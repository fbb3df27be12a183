package exec_test

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
	"testing/quick"

	"sma/internal/core"
	"sma/internal/exec"
	"sma/internal/pred"
	"sma/internal/storage"
	"sma/internal/tpcd"
	"sma/internal/tuple"
)

// batchOpts exercises small batches so multi-batch paths and grade-class
// flushes run even on the tiny test relations.
var batchOpts = exec.ExecOptions{BatchSize: 64, PrefetchWindow: 4}

// deleteEveryNth deletes every n-th record so batch decoding exercises the
// slot-skipping copy path.
func deleteEveryNth(t *testing.T, h *storage.HeapFile, n int) {
	t.Helper()
	var rids []storage.RID
	if err := h.Scan(func(_ tuple.Tuple, rid storage.RID) error {
		rids = append(rids, rid)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(rids); i += n {
		if _, err := h.Delete(rids[i]); err != nil {
			t.Fatal(err)
		}
	}
}

// collectBatched drains a batch iterator through the row adapter, copying
// every tuple.
func collectBatched(t *testing.T, it exec.BatchIter) []tuple.Tuple {
	t.Helper()
	out, err := exec.CollectTuples(exec.NewBatchToTuples(it))
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// tuplesEqual compares two tuple sequences byte for byte.
func tuplesEqual(a, b []tuple.Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(a[i].Data, b[i].Data) {
			return false
		}
	}
	return true
}

// batchSizes are the configurations the invariance tests compare: one
// page per batch (the size is raised to a full page), a size that splits
// pages and buckets, and the default.
var batchSizes = []exec.ExecOptions{{BatchSize: 1, PrefetchWindow: 4}, {BatchSize: 96, PrefetchWindow: 4}, {}}

// heapTuples is the reference tuple sequence: the heap's own record
// callback in physical order, filtered by p when it is non-nil.
func heapTuples(t *testing.T, h *storage.HeapFile, p pred.Predicate) []tuple.Tuple {
	t.Helper()
	if p != nil {
		if err := p.Bind(h.Schema()); err != nil {
			t.Fatal(err)
		}
	}
	var out []tuple.Tuple
	if err := h.Scan(func(tp tuple.Tuple, _ storage.RID) error {
		if p == nil || p.Eval(tp) {
			out = append(out, tp.Copy())
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// rowsIdentical reports where two aggregation results differ; equal
// accumulation order makes them bit-identical.
func rowsIdentical(got, want []exec.Row) (string, bool) {
	if len(got) != len(want) {
		return fmt.Sprintf("%d groups vs %d", len(got), len(want)), false
	}
	for i := range want {
		if got[i].Key != want[i].Key {
			return fmt.Sprintf("key %q vs %q", got[i].Key, want[i].Key), false
		}
		for j := range want[i].Aggs {
			if got[i].Aggs[j] != want[i].Aggs[j] {
				return fmt.Sprintf("agg[%d][%d] %v vs %v", i, j, got[i].Aggs[j], want[i].Aggs[j]), false
			}
		}
	}
	return "", true
}

// TestBatchTableScanBatchSizeInvariant: for random predicates, orders,
// bucket sizes and deleted records, the table scan yields the heap's
// filtered tuple sequence at every batch size.
func TestBatchTableScanBatchSizeInvariant(t *testing.T) {
	orders := []tpcd.Order{tpcd.OrderSorted, tpcd.OrderSpec, tpcd.OrderShuffled}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h := loadLineItems(t, tpcd.Config{ScaleFactor: 0.0008, Seed: seed, Order: orders[rng.Intn(3)]}, 1+rng.Intn(3))
		if rng.Intn(2) == 0 {
			deleteEveryNth(t, h, 2+rng.Intn(9))
		}
		p := randPred(rng, 2)
		want := heapTuples(t, h, clonePred(p))
		for _, opts := range batchSizes {
			got := collectBatched(t, exec.NewBatchTableScan(h, clonePred(p), opts))
			if !tuplesEqual(got, want) {
				t.Logf("seed %d, batch %d: %d tuples vs %d (pred %s)", seed, opts.BatchSize, len(got), len(want), p)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestBatchSMAScanBatchSizeInvariant: SMA_Scan returns the filtered
// scan's tuples and classifies buckets and reads pages identically at
// every batch size.
func TestBatchSMAScanBatchSizeInvariant(t *testing.T) {
	orders := []tpcd.Order{tpcd.OrderSorted, tpcd.OrderDiagonal, tpcd.OrderShuffled}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h := loadLineItems(t, tpcd.Config{ScaleFactor: 0.0008, Seed: seed, Order: orders[rng.Intn(3)]}, 1+rng.Intn(3))
		smas := buildQ1SMAs(t, h)
		grader := core.NewGrader(smas["min"], smas["max"])
		p := randPred(rng, 2)

		want := heapTuples(t, h, clonePred(p))
		var first exec.ScanStats
		for i, opts := range batchSizes {
			scan := exec.NewBatchSMAScan(h, clonePred(p), grader, opts)
			got := collectBatched(t, scan)
			if !tuplesEqual(got, want) {
				t.Logf("seed %d, batch %d: %d tuples vs %d (pred %s)", seed, opts.BatchSize, len(got), len(want), p)
				return false
			}
			st := scan.Stats()
			if i == 0 {
				first = st
				continue
			}
			if st.Qualifying != first.Qualifying || st.Disqualifying != first.Disqualifying ||
				st.Ambivalent != first.Ambivalent || st.PagesRead != first.PagesRead {
				t.Logf("seed %d: batch %d stats %+v vs one-page batches %+v", seed, opts.BatchSize, st, first)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestBatchGAggrBatchSizeInvariant: hash aggregation produces
// bit-identical rows — same fold order, same groups — at every batch
// size, with and without GROUP BY.
func TestBatchGAggrBatchSizeInvariant(t *testing.T) {
	groupings := [][]string{{"L_RETURNFLAG", "L_LINESTATUS"}, {"L_RETURNFLAG"}, nil}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h := loadLineItems(t, tpcd.Config{ScaleFactor: 0.0008, Seed: seed, Order: tpcd.OrderShuffled}, 1+rng.Intn(3))
		if rng.Intn(2) == 0 {
			deleteEveryNth(t, h, 3+rng.Intn(7))
		}
		groupBy := groupings[rng.Intn(len(groupings))]
		p := randPred(rng, 2)
		specs := q1Specs()

		var want []exec.Row
		for i, opts := range batchSizes {
			agg := exec.NewBatchGAggr(exec.NewBatchTableScan(h, clonePred(p), opts), h.Schema(), exec.CloneSpecs(specs), groupBy)
			got, err := exec.CollectRows(exec.NewSortRows(agg))
			if err != nil {
				t.Fatal(err)
			}
			if i == 0 {
				want = got
				continue
			}
			if diff, ok := rowsIdentical(got, want); !ok {
				t.Logf("seed %d, batch %d: %s (pred %s)", seed, opts.BatchSize, diff, p)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestSMAGAggrBatchSizeInvariant: SMA_GAggr's ambivalent-bucket fold
// produces bit-identical results at every batch size.
func TestSMAGAggrBatchSizeInvariant(t *testing.T) {
	orders := []tpcd.Order{tpcd.OrderSorted, tpcd.OrderDiagonal, tpcd.OrderShuffled}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h := loadLineItems(t, tpcd.Config{ScaleFactor: 0.0008, Seed: seed, Order: orders[rng.Intn(3)]}, 1+rng.Intn(3))
		smas := buildQ1SMAs(t, h)
		grader := core.NewGrader(smas["min"], smas["max"])
		groupBy := []string{"L_RETURNFLAG", "L_LINESTATUS"}
		specs := q1Specs()
		aggSMAs := []*core.SMA{smas["qty"], smas["ext"], smas["extdis"], smas["extdistax"],
			smas["qty"], smas["ext"], smas["dis"], smas["count"]}
		p := randPred(rng, 2)

		var want []exec.Row
		for i, opts := range batchSizes {
			op := exec.NewSMAGAggr(h, clonePred(p), exec.CloneSpecs(specs), groupBy, grader, aggSMAs, smas["count"])
			op.Opts = opts
			got, err := exec.CollectRows(exec.NewSortRows(op))
			if err != nil {
				t.Fatal(err)
			}
			if i == 0 {
				want = got
				continue
			}
			if diff, ok := rowsIdentical(got, want); !ok {
				t.Logf("seed %d, batch %d: %s (pred %s)", seed, opts.BatchSize, diff, p)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// cancellingPred cancels a context after a fixed number of evaluations, so
// cancellation lands mid-batch, between two pages of the same fill loop.
type cancellingPred struct {
	pred.Predicate
	after  int64
	seen   atomic.Int64
	cancel context.CancelFunc
}

func (c *cancellingPred) Eval(t tuple.Tuple) bool {
	if c.seen.Add(1) == c.after {
		c.cancel()
	}
	return c.Predicate.Eval(t)
}

// TestBatchScanCancelMidBatch cancels the context from inside the
// selection loop and requires the batched pipeline to abort with the
// context's error at the next page boundary.
func TestBatchScanCancelMidBatch(t *testing.T) {
	h := loadLineItems(t, tpcd.Config{ScaleFactor: 0.002, Seed: 7, Order: tpcd.OrderSorted}, 1)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	p := &cancellingPred{
		Predicate: pred.NewAtom("L_QUANTITY", pred.Ge, 0),
		after:     100,
		cancel:    cancel,
	}
	scan := exec.NewBatchTableScan(h, p, exec.ExecOptions{BatchSize: 64, PrefetchWindow: 4})
	scan.Ctx = ctx
	ga := exec.NewBatchGAggr(scan, h.Schema(), q1Specs(), []string{"L_RETURNFLAG"})
	err := ga.Open()
	if err == nil {
		ga.Close()
		t.Fatal("batched aggregation completed despite mid-batch cancellation")
	}
	if err != context.Canceled {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if err := ga.Close(); err != nil {
		t.Fatal(err)
	}
	// The scan must still close cleanly (prefetcher stopped, batch
	// returned) after the abort.
	if err := scan.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestBatchToTuplesAdapter spot-checks the adapter against the heap's own
// record callback on pages with deleted slots.
func TestBatchToTuplesAdapter(t *testing.T) {
	h := loadLineItems(t, tpcd.Config{ScaleFactor: 0.0008, Seed: 3, Order: tpcd.OrderSorted}, 2)
	deleteEveryNth(t, h, 5)
	want := heapTuples(t, h, nil)
	got := collectBatched(t, exec.NewBatchTableScan(h, nil, batchOpts))
	if !tuplesEqual(got, want) {
		t.Fatalf("adapter sequence differs: %d vs %d tuples", len(got), len(want))
	}
}
