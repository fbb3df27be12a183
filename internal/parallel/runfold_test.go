package parallel_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"sma/internal/core"
	"sma/internal/exec"
	"sma/internal/expr"
	"sma/internal/parallel"
	"sma/internal/pred"
	"sma/internal/storage"
	"sma/internal/testutil"
	"sma/internal/tuple"
)

// foldRelation is a heap of dyadic values — sums of them are exact in any
// order — with the SMAs an SMA_GAggr over it needs.
type foldRelation struct {
	h       *storage.HeapFile
	grader  *core.Grader
	specs   []exec.AggSpec
	aggSMAs []*core.SMA
	count   *core.SMA
}

// newFoldRelation loads buckets single-page buckets of 4 rows: D rises
// with the row number (so ranges on D grade runs whole), Q and P are
// multiples of 1/8, and G takes three values, one of them rare so that
// some groups are absent from most buckets.
func newFoldRelation(t *testing.T, buckets int) *foldRelation {
	t.Helper()
	const usable = storage.PageSize - 16
	schema := tuple.MustSchema([]tuple.Column{
		{Name: "D", Type: tuple.TFloat64},
		{Name: "Q", Type: tuple.TFloat64},
		{Name: "P", Type: tuple.TFloat64},
		{Name: "G", Type: tuple.TChar, Len: 1},
		{Name: "PAD", Type: tuple.TChar, Len: usable/4 - 25},
	})
	h := testutil.NewHeap(t, schema, 1, 64)
	rng := rand.New(rand.NewSource(int64(buckets)))
	tp := tuple.NewTuple(schema)
	for i := 0; i < buckets*h.RecordsPerPage(); i++ {
		tp.SetFloat64(0, float64(i/3))
		tp.SetFloat64(1, float64(1+rng.Intn(50)))
		tp.SetFloat64(2, float64(rng.Intn(8000))/8)
		g := "AN"[rng.Intn(2):][:1]
		if rng.Intn(40) == 0 {
			g = "R"
		}
		tp.SetChar(3, g)
		if _, err := h.Append(tp); err != nil {
			t.Fatal(err)
		}
	}
	if h.NumBuckets() != buckets {
		t.Fatalf("%d buckets, want %d", h.NumBuckets(), buckets)
	}
	built := 0
	build := func(agg core.AggKind, e expr.Expr, groupBy ...string) *core.SMA {
		built++
		s, err := core.Build(h, core.NewDef(fmt.Sprintf("s%d", built), "T", agg, e, groupBy...))
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	sumQ, sumP := build(core.Sum, expr.NewCol("Q"), "G"), build(core.Sum, expr.NewCol("P"), "G")
	rel := &foldRelation{
		h:      h,
		grader: core.NewGrader(build(core.Min, expr.NewCol("D")), build(core.Max, expr.NewCol("D"))),
		specs: []exec.AggSpec{
			{Func: exec.AggSum, Arg: expr.NewCol("Q"), Name: "SQ"},
			{Func: exec.AggSum, Arg: expr.NewCol("P"), Name: "SP"},
			{Func: exec.AggMin, Arg: expr.NewCol("P"), Name: "MINP"},
			{Func: exec.AggMax, Arg: expr.NewCol("Q"), Name: "MAXQ"},
			{Func: exec.AggAvg, Arg: expr.NewCol("Q"), Name: "AQ"},
			{Func: exec.AggCount, Name: "N"},
		},
		count: build(core.Count, nil, "G"),
	}
	rel.aggSMAs = []*core.SMA{sumQ, sumP, build(core.Min, expr.NewCol("P"), "G"),
		build(core.Max, expr.NewCol("Q"), "G"), sumQ, rel.count}
	return rel
}

// operator returns an SMA_GAggr over the bucket range starting at first
// with the given grades (nil: every bucket, graded by the operator).
func (rel *foldRelation) operator(p pred.Predicate, first int, grades []core.Grade) *exec.SMAGAggr {
	op := exec.NewSMAGAggr(rel.h, p, rel.specs, []string{"G"}, rel.grader, rel.aggSMAs, rel.count)
	op.First, op.Grades, op.KeepPartials = first, grades, grades != nil
	return op
}

// partitioned folds the given bucket ranges [lo, hi) of the relation one
// operator each and merges their partials, as the parallel executor does.
func (rel *foldRelation) partitioned(t *testing.T, p pred.Predicate, parts [][2]int) []exec.Row {
	t.Helper()
	all := parallel.PreGrade(rel.h, rel.grader, p)
	merged := map[core.GroupKey]*exec.Partial{}
	for _, r := range parts {
		op := rel.operator(p, r[0], all[r[0]:r[1]])
		if err := op.Open(); err != nil {
			t.Fatal(err)
		}
		for k, part := range op.Partials() {
			if dst := merged[k]; dst != nil {
				dst.Merge(part, rel.specs)
			} else {
				merged[k] = part
			}
		}
	}
	return exec.FinishPartials(merged, rel.specs, false)
}

func drainRows(t *testing.T, it exec.RowIter) []exec.Row {
	t.Helper()
	if err := it.Open(); err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	var out []exec.Row
	for {
		r, ok, err := it.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return out
		}
		out = append(out, r)
	}
}

func sameFold(t *testing.T, label string, got, want []exec.Row) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d groups, per-bucket fold has %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i].Key != want[i].Key {
			t.Fatalf("%s: group %d is %q, per-bucket fold has %q", label, i, got[i].Key, want[i].Key)
		}
		for j, w := range want[i].Aggs {
			if got[i].Aggs[j] != w {
				t.Fatalf("%s: group %q aggregate %d = %v, per-bucket fold %v", label, got[i].Key, j, got[i].Aggs[j], w)
			}
		}
	}
}

// TestSMAGAggrRunFoldEqualsBucketFold: folding whole qualifying runs from
// the run summaries gives exactly what folding their buckets one by one
// gives — serially, through the parallel executor at dop 1 and NumCPU,
// and over partitions whose boundaries cut runs.
func TestSMAGAggrRunFoldEqualsBucketFold(t *testing.T) {
	const buckets = 300 // four whole runs and a partial one of 44 buckets
	rel := newFoldRelation(t, buckets)
	lastD := float64(buckets*4/3 - 1)
	preds := []pred.Predicate{
		nil,
		pred.NewAtom("D", pred.Le, lastD), // every bucket qualifies
		pred.NewAtom("D", pred.Le, 250.5), // ambivalent bucket mid-run
		pred.NewAtom("D", pred.Ge, 86),    // ambivalent bucket at a run start
		pred.NewAnd(pred.NewAtom("D", pred.Gt, 100), pred.NewAtom("D", pred.Lt, 350)),
	}
	for _, p := range preds {
		t.Run(fmt.Sprint(p), func(t *testing.T) {
			// The reference folds every bucket on its own: a one-bucket
			// partition never holds a whole run.
			single := make([][2]int, buckets)
			for b := range single {
				single[b] = [2]int{b, b + 1}
			}
			want := rel.partitioned(t, p, single)

			sameFold(t, "serial", drainRows(t, rel.operator(p, 0, nil)), want)
			cuts := [][2]int{{0, 37}, {37, 101}, {101, 256}, {256, buckets}}
			sameFold(t, "partitions cutting runs", rel.partitioned(t, p, cuts), want)
			for _, dop := range []int{1, runtime.NumCPU(), 3} {
				agg := &parallel.Agg{Mode: parallel.ModeSMAGAggr, Heap: rel.h, Pred: p, Specs: rel.specs,
					GroupBy: []string{"G"}, Grader: rel.grader, AggSMAs: rel.aggSMAs, CountSMA: rel.count, DOP: dop}
				sameFold(t, fmt.Sprintf("parallel dop %d", dop), drainRows(t, agg), want)
			}
		})
	}
}
