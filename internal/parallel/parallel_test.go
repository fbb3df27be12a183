package parallel_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"sma/internal/core"
	"sma/internal/engine"
	"sma/internal/exec"
	"sma/internal/parallel"
	"sma/internal/tpcd"
	"sma/internal/tuple"
)

// query1 is the paper's TPC-D Query 1 (Fig. 3, delta = 90).
const query1 = `
SELECT L_RETURNFLAG, L_LINESTATUS,
       SUM(L_QUANTITY) AS SUM_QTY,
       SUM(L_EXTENDEDPRICE) AS SUM_BASE_PRICE,
       SUM(L_EXTENDEDPRICE*(1-L_DISCOUNT)) AS SUM_DISC_PRICE,
       SUM(L_EXTENDEDPRICE*(1-L_DISCOUNT)*(1+L_TAX)) AS SUM_CHARGE,
       AVG(L_QUANTITY) AS AVG_QTY,
       AVG(L_EXTENDEDPRICE) AS AVG_PRICE,
       AVG(L_DISCOUNT) AS AVG_DISC,
       COUNT(*) AS COUNT_ORDER
FROM LINEITEM
WHERE L_SHIPDATE <= DATE '1998-12-01' - INTERVAL '90' DAY
GROUP BY L_RETURNFLAG, L_LINESTATUS
ORDER BY L_RETURNFLAG, L_LINESTATUS`

// q1SMADDL is the paper's Fig. 4: the eight Query-1 SMA definitions.
var q1SMADDL = []string{
	"define sma count select count(*) from LINEITEM group by L_RETURNFLAG, L_LINESTATUS",
	"define sma max select max(L_SHIPDATE) from LINEITEM",
	"define sma min select min(L_SHIPDATE) from LINEITEM",
	"define sma qty select sum(L_QUANTITY) from LINEITEM group by L_RETURNFLAG, L_LINESTATUS",
	"define sma dis select sum(L_DISCOUNT) from LINEITEM group by L_RETURNFLAG, L_LINESTATUS",
	"define sma ext select sum(L_EXTENDEDPRICE) from LINEITEM group by L_RETURNFLAG, L_LINESTATUS",
	"define sma extdis select sum(L_EXTENDEDPRICE*(1-L_DISCOUNT)) from LINEITEM group by L_RETURNFLAG, L_LINESTATUS",
	"define sma extdistax select sum(L_EXTENDEDPRICE*(1-L_DISCOUNT)*(1+L_TAX)) from LINEITEM group by L_RETURNFLAG, L_LINESTATUS",
}

// newLineItemDB loads a LINEITEM table in the given physical order and
// defines the named subset of the Query-1 SMAs ("all" defines every one).
func newLineItemDB(t *testing.T, sf float64, order tpcd.Order, smas []string, opts engine.Options) *engine.DB {
	t.Helper()
	db, err := engine.Open(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	tbl, err := db.CreateTable("LINEITEM", tpcd.LineItemSchema().Columns())
	if err != nil {
		t.Fatal(err)
	}
	items := tpcd.GenLineItems(tpcd.Config{ScaleFactor: sf, Seed: 1998, Order: order})
	buf := tuple.NewTuple(tbl.Schema)
	for i := range items {
		items[i].FillTuple(buf)
		if _, err := tbl.Append(buf); err != nil {
			t.Fatal(err)
		}
	}
	for _, ddl := range smas {
		if _, err := db.ExecContext(context.Background(), ddl); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// runQuery drains a query at the given degree of parallelism into value
// rows, also returning the plan's strategy name.
func runQuery(t *testing.T, db *engine.DB, sql string, dop int) ([][]any, string) {
	t.Helper()
	cur, err := db.QueryContext(context.Background(), sql, engine.WithDOP(dop))
	if err != nil {
		t.Fatalf("dop=%d: %v", dop, err)
	}
	defer cur.Close()
	var rows [][]any
	for {
		vals, ok, err := cur.Next()
		if err != nil {
			t.Fatalf("dop=%d: %v", dop, err)
		}
		if !ok {
			break
		}
		rows = append(rows, vals)
	}
	return rows, cur.Plan().StrategyName()
}

// sameRows compares result sets cell by cell, with a relative tolerance on
// floats: parallel merging regroups floating-point summation across
// partition boundaries, so sums may differ in the last ulps.
func sameRows(t *testing.T, serial, par [][]any, label string) {
	t.Helper()
	if len(serial) != len(par) {
		t.Fatalf("%s: %d rows serial vs %d parallel", label, len(serial), len(par))
	}
	for i := range serial {
		if len(serial[i]) != len(par[i]) {
			t.Fatalf("%s row %d: %d cols vs %d", label, i, len(serial[i]), len(par[i]))
		}
		for j := range serial[i] {
			a, b := serial[i][j], par[i][j]
			fa, aok := a.(float64)
			fb, bok := b.(float64)
			if aok && bok {
				if diff := math.Abs(fa - fb); diff > 1e-9*math.Max(1, math.Max(math.Abs(fa), math.Abs(fb))) {
					t.Errorf("%s row %d col %d: %v vs %v", label, i, j, fa, fb)
				}
				continue
			}
			if a != b {
				t.Errorf("%s row %d col %d: %v vs %v", label, i, j, a, b)
			}
		}
	}
}

// query1Selective is Query 1's shape with a selective cutoff: few buckets
// qualify, so the planner picks SMA_Scan+GAggr when the aggregates are not
// covered by SMAs.
const query1Selective = `
SELECT L_RETURNFLAG, L_LINESTATUS,
       SUM(L_QUANTITY) AS SUM_QTY,
       AVG(L_EXTENDEDPRICE) AS AVG_PRICE,
       COUNT(*) AS COUNT_ORDER
FROM LINEITEM
WHERE L_SHIPDATE <= DATE '1992-06-01'
GROUP BY L_RETURNFLAG, L_LINESTATUS
ORDER BY L_RETURNFLAG, L_LINESTATUS`

// TestParallelEquivalenceQ1 runs TPC-D Query 1 serially and at several
// degrees of parallelism under all three strategies — SMA_GAggr (all SMAs),
// SMA_Scan+GAggr (selection SMAs only, selective cutoff), and
// FullScan+GAggr (no SMAs) — and requires identical rows.
func TestParallelEquivalenceQ1(t *testing.T) {
	cases := []struct {
		name     string
		query    string
		smas     []string
		strategy string
	}{
		{"SMA_GAggr", query1, q1SMADDL, "SMA_GAggr"},
		{"SMA_Scan", query1Selective, q1SMADDL[1:3], "SMA_Scan+GAggr"},
		{"FullScan", query1, nil, "FullScan+GAggr"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			db := newLineItemDB(t, 0.001, tpcd.OrderSorted, tc.smas, engine.Options{})
			serial, strat := runQuery(t, db, tc.query, 1)
			if strat != tc.strategy {
				t.Fatalf("strategy = %s, want %s", strat, tc.strategy)
			}
			if len(serial) == 0 {
				t.Fatal("no result rows")
			}
			for _, dop := range []int{2, 3, 8} {
				par, _ := runQuery(t, db, tc.query, dop)
				sameRows(t, serial, par, fmt.Sprintf("%s dop=%d", tc.name, dop))
			}
		})
	}
}

// TestParallelAmbivalentHeavy uses diagonally clustered data, where the
// shipdate cutoff falls inside a wide band of ambivalent buckets that must
// be inspected tuple by tuple, and checks serial/parallel equivalence plus
// the per-query stats invariant (same bucket grading, same pages read, any
// dop).
func TestParallelAmbivalentHeavy(t *testing.T) {
	db := newLineItemDB(t, 0.001, tpcd.OrderDiagonal, q1SMADDL, engine.Options{})
	queries := []string{
		// Covered aggregates: SMA_GAggr with ambivalent buckets inspected.
		`select L_RETURNFLAG, count(*) as N, sum(L_QUANTITY) as Q
		 from LINEITEM where L_SHIPDATE <= date '1992-09-01' group by L_RETURNFLAG
		 order by L_RETURNFLAG`,
		// Uncovered min aggregate: SMA_Scan feeding a hash aggregation.
		`select L_RETURNFLAG, count(*) as N, min(L_EXTENDEDPRICE) as M
		 from LINEITEM where L_SHIPDATE <= date '1992-09-01' group by L_RETURNFLAG
		 order by L_RETURNFLAG`,
	}
	for qi, q := range queries {
		serialRows, strat := runQuery(t, db, q, 1)
		serialStats := queryStats(t, db, q, 1)
		if serialStats.Ambivalent == 0 {
			t.Fatalf("query %d (%s): expected ambivalent buckets on diagonal data, got %+v",
				qi, strat, serialStats)
		}
		for _, dop := range []int{2, 5} {
			parRows, _ := runQuery(t, db, q, dop)
			sameRows(t, serialRows, parRows, fmt.Sprintf("query %d dop=%d", qi, dop))
			if ps := queryStats(t, db, q, dop); ps != serialStats {
				t.Errorf("query %d dop=%d stats = %+v, want %+v", qi, dop, ps, serialStats)
			}
		}
	}
}

// TestParallelTinyBufferPool: the planner must cap the degree of
// parallelism by the pool capacity — more workers than frames would
// exhaust the pool (every worker pins a page) instead of helping.
func TestParallelTinyBufferPool(t *testing.T) {
	db := newLineItemDB(t, 0.001, tpcd.OrderSorted, nil,
		engine.Options{PoolPages: 4, Parallelism: 16})
	serial, _ := runQuery(t, db, query1, 1)
	par, _ := runQuery(t, db, query1, 16) // would fail without the cap
	sameRows(t, serial, par, "dop=16 pool=4")
}

// TestParallelAllDisqualified: when every bucket disqualifies, one range
// holds them all and reads no page, and a global aggregate must still
// emit its single zero row — identically to a serial run.
func TestParallelAllDisqualified(t *testing.T) {
	db := newLineItemDB(t, 0.0005, tpcd.OrderSorted, q1SMADDL, engine.Options{})
	q := `select count(*) as N, sum(L_QUANTITY) as Q from LINEITEM
	      where L_SHIPDATE <= date '1990-01-01'`
	serial, _ := runQuery(t, db, q, 1)
	for _, dop := range []int{2, 4} {
		par, _ := runQuery(t, db, q, dop)
		sameRows(t, serial, par, fmt.Sprintf("dop=%d", dop))
	}
	if len(serial) != 1 {
		t.Fatalf("global aggregate rows = %d, want 1", len(serial))
	}
	if n := serial[0][0].(float64); n != 0 {
		t.Errorf("count = %v, want 0", n)
	}
	st := queryStats(t, db, q, 4)
	if st.Disqualifying == 0 || st.PagesRead != 0 {
		t.Errorf("stats = %+v, want all-disqualifying and zero pages read", st)
	}
}

// queryStats runs the query and returns the merged scan statistics.
func queryStats(t *testing.T, db *engine.DB, sql string, dop int) (out struct {
	Qualifying, Disqualifying, Ambivalent, PagesRead int
}) {
	t.Helper()
	cur, err := db.QueryContext(context.Background(), sql, engine.WithDOP(dop))
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	s, ok := cur.Stats()
	if !ok {
		t.Fatal("plan reports no stats")
	}
	out.Qualifying, out.Disqualifying = s.Qualifying, s.Disqualifying
	out.Ambivalent, out.PagesRead = s.Ambivalent, s.PagesRead
	return out
}

// TestParallelCancellation cancels a context mid-scan under dop > 1 and
// requires the query to fail with context.Canceled well before an
// uncancelled run would finish: the cancel must stop every worker at its
// next page boundary, not run the scan to completion.
func TestParallelCancellation(t *testing.T) {
	db := newLineItemDB(t, 0.002, tpcd.OrderSorted, nil,
		engine.Options{ReadLatency: time.Millisecond})
	tbl, err := db.Table("LINEITEM")
	if err != nil {
		t.Fatal(err)
	}

	// Calibrate: a full parallel cold run.
	if err := tbl.Pool().DropAll(); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, strat := runQuery(t, db, query1, 4); strat != "FullScan+GAggr" {
		t.Fatalf("strategy = %s", strat)
	}
	full := time.Since(start)

	if err := tbl.Pool().DropAll(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(full / 20)
		cancel()
	}()
	start = time.Now()
	_, err = db.QueryContext(ctx, query1, engine.WithDOP(4))
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed > full/2 {
		t.Errorf("cancelled run took %v, full run %v: siblings not stopped promptly", elapsed, full)
	}
}

// TestRunFirstErrorCancelsSiblings checks the worker pool contract: the
// first task error cancels the shared context, unblocking every sibling.
func TestRunFirstErrorCancelsSiblings(t *testing.T) {
	boom := errors.New("boom")
	var canceled [4]bool
	done := make(chan struct{})
	go func() {
		defer close(done)
		err := parallel.Run(context.Background(), 4, func(ctx context.Context, i int) error {
			if i == 0 {
				time.Sleep(5 * time.Millisecond)
				return boom
			}
			<-ctx.Done() // would block forever without sibling cancellation
			canceled[i] = true
			return ctx.Err()
		})
		if !errors.Is(err, boom) {
			t.Errorf("Run err = %v, want boom", err)
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not return: siblings were not cancelled")
	}
	for i := 1; i < 4; i++ {
		if !canceled[i] {
			t.Errorf("worker %d never observed cancellation", i)
		}
	}
}

// TestPartitionBuckets checks that the ranges tile the grade vector in
// order, each holds at least one surviving bucket and carries its
// buckets' grades, at most dop ranges come back, and the page weights of
// the survivors are balanced.
func TestPartitionBuckets(t *testing.T) {
	db := newLineItemDB(t, 0.0005, tpcd.OrderSorted, nil, engine.Options{})
	tbl, err := db.Table("LINEITEM")
	if err != nil {
		t.Fatal(err)
	}
	h := tbl.Heap
	nb := h.NumBuckets()
	if nb < 10 {
		t.Fatalf("need >= 10 buckets, have %d", nb)
	}
	grades := make([]core.Grade, nb)
	for b := range grades {
		switch {
		case b%3 == 0:
			grades[b] = core.Disqualifies
		case b%3 == 1:
			grades[b] = core.Qualifies
		default:
			grades[b] = core.Ambivalent
		}
	}
	for _, dop := range []int{1, 2, 4, nb, nb * 2} {
		parts := parallel.PartitionBuckets(h, grades, dop, false)
		if len(parts) > dop {
			t.Fatalf("dop=%d: %d partitions", dop, len(parts))
		}
		checkTiling(t, fmt.Sprintf("dop=%d", dop), parts, grades)
		if len(parts) == 1 {
			continue
		}
		var minPages, maxPages int64 = math.MaxInt64, 0
		for _, p := range parts {
			minPages = min(minPages, p.Pages)
			maxPages = max(maxPages, p.Pages)
		}
		// With single-page buckets the split should be near-even.
		if maxPages > minPages+2 {
			t.Errorf("dop=%d: unbalanced partitions: min %d max %d pages", dop, minPages, maxPages)
		}
	}
	if parts := parallel.PartitionBuckets(h, make([]core.Grade, 0), 4, false); len(parts) != 1 || len(parts[0].Grades) != 0 {
		t.Errorf("empty grades should partition to one empty range, got %v", parts)
	}

	// SMA-answered mode: qualifying buckets cost no page I/O, so with the
	// first half qualifying and the second half ambivalent, a page-weighted
	// split would give one worker all the real work. The weighted split
	// must spread the ambivalent buckets across partitions instead.
	skew := make([]core.Grade, nb)
	for b := range skew {
		if b < nb/2 {
			skew[b] = core.Qualifies
		} else {
			skew[b] = core.Ambivalent
		}
	}
	parts := parallel.PartitionBuckets(h, skew, 4, true)
	if len(parts) != 4 {
		t.Fatalf("smaAnswered split: %d partitions, want 4", len(parts))
	}
	checkTiling(t, "smaAnswered", parts, skew)
	totalAmb := nb - nb/2
	for i, p := range parts {
		amb := 0
		for _, g := range p.Grades {
			if g == core.Ambivalent {
				amb++
			}
		}
		if amb > totalAmb/2 {
			t.Errorf("smaAnswered split: partition %d holds %d of %d ambivalent buckets (page I/O not spread)",
				i, amb, totalAmb)
		}
	}
}

// checkTiling requires parts to tile [0, len(grades)) in order with no gap
// or overlap, each range viewing the query's own grade vector and, when
// the relation is split, holding at least one surviving bucket.
func checkTiling(t *testing.T, label string, parts []parallel.Partition, grades []core.Grade) {
	t.Helper()
	next := 0
	for i, p := range parts {
		if p.First != next {
			t.Fatalf("%s: range %d starts at bucket %d, want %d", label, i, p.First, next)
		}
		if len(p.Grades) > 0 && &p.Grades[0] != &grades[p.First] {
			t.Fatalf("%s: range %d does not view the query's grade vector", label, i)
		}
		survivors := 0
		for _, g := range p.Grades {
			if g != core.Disqualifies {
				survivors++
			}
		}
		if len(parts) > 1 && survivors == 0 {
			t.Fatalf("%s: range %d [%d, %d) holds no surviving bucket", label, i, p.First, p.First+len(p.Grades))
		}
		next += len(p.Grades)
	}
	if next != len(grades) {
		t.Fatalf("%s: ranges cover [0, %d), want [0, %d)", label, next, len(grades))
	}
}

// TestPartitionBucketsSerialNoWalk: at dop 1 partitioning is free — one
// range over the caller's own vector, built without looking at a bucket
// (so no heap is needed) and with at most one allocation, however many
// buckets the relation has.
func TestPartitionBucketsSerialNoWalk(t *testing.T) {
	grades := make([]core.Grade, 10000)
	for b := range grades {
		grades[b] = core.Grade(b % 3)
	}
	var parts []parallel.Partition
	allocs := testing.AllocsPerRun(100, func() {
		parts = parallel.PartitionBuckets(nil, grades, 1, true)
	})
	if allocs > 1 {
		t.Errorf("dop 1 partitioning made %.1f allocations, want <= 1", allocs)
	}
	if len(parts) != 1 || parts[0].First != 0 || len(parts[0].Grades) != len(grades) || &parts[0].Grades[0] != &grades[0] {
		t.Fatalf("dop 1: got %d ranges, want one range over the caller's vector", len(parts))
	}
}

// TestPartitionBucketsTile: at dop 2 and 4, over grade mixes from sparse
// to dense survivors, the ranges tile the relation and each holds a
// surviving bucket.
func TestPartitionBucketsTile(t *testing.T) {
	db := newLineItemDB(t, 0.0005, tpcd.OrderSorted, nil, engine.Options{})
	tbl, err := db.Table("LINEITEM")
	if err != nil {
		t.Fatal(err)
	}
	h := tbl.Heap
	nb := h.NumBuckets()
	for _, every := range []int{1, 2, 7, nb / 3, nb} {
		grades := make([]core.Grade, nb)
		for b := range grades {
			grades[b] = core.Disqualifies
			if b%every == every-1 {
				grades[b] = core.Grade(1 + b%2) // qualifying or ambivalent
			}
		}
		for _, dop := range []int{2, 4} {
			for _, answered := range []bool{false, true} {
				parts := parallel.PartitionBuckets(h, grades, dop, answered)
				label := fmt.Sprintf("every=%d dop=%d smaAnswered=%v", every, dop, answered)
				if len(parts) > dop {
					t.Fatalf("%s: %d ranges", label, len(parts))
				}
				checkTiling(t, label, parts, grades)
			}
		}
	}
}

// TestPartitionStatsMerge: the merged scan statistics — grade counts and
// pages read — are the same at dop 1, 2 and 4 for every strategy, since
// each range's operator counts the disqualified buckets it holds.
func TestPartitionStatsMerge(t *testing.T) {
	db := newLineItemDB(t, 0.001, tpcd.OrderDiagonal, q1SMADDL, engine.Options{})
	for _, tc := range []struct{ strategy, sql string }{
		{"SMA_GAggr", query1},
		{"SMA_Scan+GAggr", `select L_RETURNFLAG, max(L_TAX) as M from LINEITEM
		 where L_SHIPDATE <= date '1992-04-01' group by L_RETURNFLAG`},
		{"FullScan+GAggr", `select count(*) as N from LINEITEM where L_TAX > 0.05`},
	} {
		var serial exec.ScanStats
		for _, dop := range []int{1, 2, 4} {
			cur, err := db.QueryContext(context.Background(), tc.sql, engine.WithDOP(dop))
			if err != nil {
				t.Fatal(err)
			}
			plan := cur.Plan()
			st, _ := cur.Stats()
			cur.Close()
			if got := plan.StrategyName(); got != tc.strategy || plan.DOP != dop {
				t.Fatalf("%s: plan %s at dop %d, want %s at dop %d", tc.strategy, got, plan.DOP, tc.strategy, dop)
			}
			if dop == 1 {
				serial = st
				if st.Qualifying+st.Disqualifying+st.Ambivalent+st.PagesRead == 0 {
					t.Fatalf("%s: serial run reports no work", tc.strategy)
				}
				continue
			}
			if st.Qualifying != serial.Qualifying || st.Disqualifying != serial.Disqualifying ||
				st.Ambivalent != serial.Ambivalent || st.PagesRead != serial.PagesRead {
				t.Errorf("%s: dop %d stats %+v, serial %+v", tc.strategy, dop, st, serial)
			}
		}
	}
}

// TestPartitionPages checks the page-range split used by parallel full
// scans: exact coverage, no overlap, at most dop ranges.
func TestPartitionPages(t *testing.T) {
	for _, tc := range []struct {
		pages int64
		dop   int
	}{
		{0, 4}, {1, 4}, {7, 3}, {100, 4}, {5, 5}, {5, 50},
	} {
		ranges := parallel.PartitionPages(tc.pages, tc.dop)
		if tc.pages == 0 {
			if ranges != nil {
				t.Errorf("pages=0: got %v", ranges)
			}
			continue
		}
		if int64(len(ranges)) > tc.pages || len(ranges) > tc.dop {
			t.Errorf("pages=%d dop=%d: %d ranges", tc.pages, tc.dop, len(ranges))
		}
		var next int64
		for _, r := range ranges {
			if int64(r.First) != next || r.Last <= r.First {
				t.Fatalf("pages=%d dop=%d: bad range %+v at %d", tc.pages, tc.dop, r, next)
			}
			next = int64(r.Last)
		}
		if next != tc.pages {
			t.Errorf("pages=%d dop=%d: covered %d", tc.pages, tc.dop, next)
		}
	}
}
