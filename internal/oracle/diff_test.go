package oracle_test

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"sma"
	"sma/internal/oracle"
)

// strategyBucket folds plan-name variants ("FullScan+GAggr" vs "FullScan",
// "SMA_Scan+GAggr" vs "SMA_Scan") into the paper's three strategies.
func strategyBucket(name string) string {
	switch {
	case strings.HasPrefix(name, "SMA_GAggr"):
		return "SMA_GAggr"
	case strings.HasPrefix(name, "SMA_Scan"):
		return "SMA_Scan"
	default:
		return "FullScan"
	}
}

// runDiff drives one seeded workload through the real engine (opened with
// the extra options) and the reference oracle in lockstep, requiring
// exact equivalence after every step: identical RowsAffected for every
// write and identical rendered column names and rows for every query.
func runDiff(t *testing.T, seed int64, dop, nOps int, extra ...sma.Option) map[string]bool {
	t.Helper()
	opts := append([]sma.Option{sma.WithBucketPages(1), sma.WithParallelism(dop)}, extra...)
	db, err := sma.Open(t.TempDir(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	o := oracle.New()
	g := oracle.NewGen(seed)
	for _, setup := range g.Setup() {
		if _, err := db.Exec(setup); err != nil {
			t.Fatal(err)
		}
		if _, err := o.Exec(setup); err != nil {
			t.Fatal(err)
		}
	}

	strategies := map[string]bool{}
	queries, writes := 0, 0
	for i := 0; i < nOps; i++ {
		op := g.Next()
		if !op.IsQuery {
			writes++
			res, err := db.Exec(op.SQL)
			if err != nil {
				t.Fatalf("step %d: engine: %s: %v", i, op.SQL, err)
			}
			want, err := o.Exec(op.SQL)
			if err != nil {
				t.Fatalf("step %d: oracle: %s: %v", i, op.SQL, err)
			}
			if res.RowsAffected != want {
				t.Fatalf("step %d: %s: engine affected %d rows, oracle %d",
					i, op.SQL, res.RowsAffected, want)
			}
			continue
		}
		queries++
		rows, err := db.Query(op.SQL)
		if err != nil {
			t.Fatalf("step %d: engine: %s: %v", i, op.SQL, err)
		}
		got, err := sma.Collect(rows)
		if err != nil {
			t.Fatalf("step %d: engine: %s: %v", i, op.SQL, err)
		}
		want, err := o.Query(op.SQL)
		if err != nil {
			t.Fatalf("step %d: oracle: %s: %v", i, op.SQL, err)
		}
		strategies[strategyBucket(got.Strategy)] = true
		compareResults(t, i, op.SQL, got, want)
	}

	if queries < nOps/4 || writes < nOps/4 {
		t.Errorf("unbalanced workload: %d queries, %d writes", queries, writes)
	}
	return strategies
}

// compareResults requires the engine's rendered result to equal the
// oracle's exactly: same column names, same row count, same cells.
func compareResults(t *testing.T, step int, sql string, got *sma.Result, want *oracle.Result) {
	t.Helper()
	fail := func(detail string) {
		t.Fatalf("step %d: %s (plan %s): %s\nengine: cols=%v rows=%v\noracle: cols=%v rows=%v",
			step, sql, got.Strategy, detail, got.Columns, got.Rows, want.Columns, want.Rows)
	}
	if len(got.Columns) != len(want.Columns) {
		fail("column count differs")
	}
	for i := range got.Columns {
		if !strings.EqualFold(got.Columns[i], want.Columns[i]) {
			fail(fmt.Sprintf("column %d name %q vs %q", i, got.Columns[i], want.Columns[i]))
		}
	}
	if len(got.Rows) != len(want.Rows) {
		fail("row count differs")
	}
	for r := range got.Rows {
		for c := range got.Rows[r] {
			if got.Rows[r][c] != want.Rows[r][c] {
				fail(fmt.Sprintf("row %d column %d: %q vs %q", r, c, got.Rows[r][c], want.Rows[r][c]))
			}
		}
	}
}

// TestDifferentialOracle runs the randomized workload for several seeds at
// dop 1 and dop NumCPU, in two engine configurations: the defaults, and
// 96-tuple batches with a 4-page prefetch window ("batch=96" subtests) —
// batches that split pages and buckets, so batch and bucket boundaries
// fall everywhere. Every run interleaves ≥ 200 operations; across the seed
// set every configuration must pass through all three planner strategies
// (a single short stream can legitimately stay below the SMA_Scan cost
// breakeven while the table is small). Run with -race: DML holds the write
// lock while parallel readers partition buckets.
func TestDifferentialOracle(t *testing.T) {
	// dop NumCPU, but at least 2 so the parallel partition/merge path runs
	// even on a single-core machine (workers are goroutines, not cores).
	parallel := runtime.NumCPU()
	if parallel < 2 {
		parallel = 2
	}
	configs := []struct {
		prefix string
		opts   []sma.Option
	}{
		{"", nil},
		{"batch=96,", []sma.Option{sma.WithBatchSize(96), sma.WithPrefetchWindow(4)}},
	}
	for _, cfg := range configs {
		for _, dop := range []int{1, parallel} {
			runDiffSuite(t, fmt.Sprintf("%sdop=%d", cfg.prefix, dop), dop, cfg.opts)
		}
	}
}

// runDiffSuite runs the seed set as subtests of one configuration and
// requires every planner strategy to be exercised across it.
func runDiffSuite(t *testing.T, name string, dop int, opts []sma.Option) {
	t.Run(name, func(t *testing.T) {
		covered := map[string]bool{}
		for _, seed := range []int64{1, 7, 42, 1998} {
			seed := seed
			t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
				for s := range runDiff(t, seed, dop, 240, opts...) {
					covered[s] = true
				}
			})
		}
		for _, s := range []string{"FullScan", "SMA_GAggr", "SMA_Scan"} {
			if !covered[s] {
				t.Errorf("no seed exercised strategy %s in %s (saw %v)", s, name, covered)
			}
		}
	})
}
