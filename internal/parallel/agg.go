package parallel

import (
	"context"
	"time"

	"sma/internal/core"
	"sma/internal/exec"
	"sma/internal/obs"
	"sma/internal/pred"
	"sma/internal/storage"
)

// Mode selects the per-partition pipeline the workers run.
type Mode uint8

// Execution modes, mirroring the planner's strategies.
const (
	// ModeScan runs a table scan + hash aggregation per page-range
	// partition (the FullScan strategy: no usable selection SMAs, or not
	// selective enough).
	ModeScan Mode = iota
	// ModeSMAScan runs SMA_Scan + hash aggregation per bucket partition
	// (aggregates not covered by SMAs; grading only skips buckets).
	ModeSMAScan
	// ModeSMAGAggr runs SMA_GAggr per bucket partition (qualifying buckets
	// answered from aggregate SMAs without page access).
	ModeSMAGAggr
)

// Agg executes a grouping-with-aggregation query as one pipeline per
// partition and merges the partial aggregates into one sorted result. It
// is the only aggregation executor over a heap: serial execution is Agg
// over a single partition, which runs on the caller's goroutine with the
// query's own predicate and specs and needs no merge. Like the operators
// it drives, Agg is a pipeline breaker: Open partitions, executes, and
// merges; Next streams the merged groups. Agg implements exec.RowIter and
// exec.StatsReporter.
//
// Determinism: partitioning is a pure function of the grades and DOP, the
// merge combines partials per group key, and FinishPartials emits groups
// in sorted key order — so for a given database state the result rows are
// identical for every DOP (up to floating-point summation order, which
// regroups across partition boundaries).
type Agg struct {
	Mode    Mode
	Heap    *storage.HeapFile
	Pred    pred.Predicate // nil: every bucket qualifies
	Specs   []exec.AggSpec
	GroupBy []string

	// Grader supplies selection grades for the SMA modes.
	Grader *core.Grader
	// Pregraded, when set, is the grade vector the planner already
	// computed for this query (padded to the heap's buckets with
	// PadGrades); it saves the grading pass.
	Pregraded []core.Grade
	// AggSMAs and CountSMA parameterize ModeSMAGAggr (see exec.SMAGAggr).
	AggSMAs  []*core.SMA
	CountSMA *core.SMA

	// DOP is the requested degree of parallelism (values < 1 mean 1); the
	// effective degree is capped by the surviving buckets or pages.
	DOP int
	// Ctx, when set, cancels all workers at their next bucket or page
	// boundary.
	Ctx context.Context
	// Exec carries the batch size and prefetch window of each partition's
	// pipeline. With several partitions the per-worker prefetch window is
	// derated by the partition count so concurrent prefetchers cannot
	// crowd the shared buffer pool.
	Exec exec.ExecOptions

	// Span, when set, is the span of a traced query that Open hangs the
	// stage off. One partition traces as the serial pipeline: a "fold"
	// span noted with its operator, over a "scan" span in the scan modes.
	// Several trace as a "merge" span noted with the dop, carrying one
	// "worker" child per partition with its busy time and scan counters.
	// Metrics, when set, receives one partition-skew and per-worker
	// utilization observation per run with more than one partition; the
	// two are independent so metrics flow with tracing off.
	Span    *obs.Span
	Metrics *obs.ParallelMetrics

	out   []exec.Row
	pos   int
	stats exec.ScanStats

	// Partitions and dispatch-phase observability state, reset per Open:
	// parts (bucket modes) or ranges (ModeScan) holds the partitions.
	parts     []Partition
	ranges    []PageRange
	busy      []time.Duration // per-worker time inside the pipeline
	partPages []int64         // per-partition page counts at dispatch
}

// partialOp is one partition's pipeline root: an aggregation operator
// that keeps its merge-ready group state.
type partialOp interface {
	exec.RowIter
	Partials() map[core.GroupKey]*exec.Partial
}

// Open partitions the relation, runs one pipeline per partition, and
// merges the partial results. The whole result is computed here; Next
// merely returns one group after another.
func (a *Agg) Open() error {
	a.out, a.pos = nil, 0
	a.stats = exec.ScanStats{}
	a.busy, a.partPages = nil, nil
	n := a.partition()

	var groups map[core.GroupKey]*exec.Partial
	var sp *obs.Span
	var err error
	if n == 1 {
		sp = a.Span.Child("fold")
		groups, err = a.runSerial(sp)
	} else {
		sp = a.Span.Child("merge")
		sp.SetNote("dop=%d", a.DOP)
		groups, err = a.runParallel(sp)
	}
	if err != nil {
		return err
	}
	a.out = exec.FinishPartials(groups, a.Specs, len(a.GroupBy) == 0)
	sp.AddRows(int64(len(a.out)))
	return nil
}

// partition computes the partitions of this run and returns their count:
// page ranges in ModeScan, graded bucket ranges in the SMA modes. An
// empty relation is one empty partition, so it still runs (and traces)
// one pipeline.
func (a *Agg) partition() int {
	a.parts, a.ranges = nil, nil
	if a.Mode == ModeScan {
		a.ranges = PartitionPages(a.Heap.NumPages(), a.DOP)
		if len(a.ranges) == 0 {
			a.ranges = []PageRange{{}}
		}
		return len(a.ranges)
	}
	grades := a.Pregraded
	if grades == nil {
		grades = PreGrade(a.Heap, a.Grader, a.Pred)
	} else {
		grades = PadGrades(grades, a.Heap.NumBuckets())
	}
	a.parts = PartitionBuckets(a.Heap, grades, a.DOP, a.Mode == ModeSMAGAggr)
	return len(a.parts)
}

// pipeline builds partition i's pipeline: SMA_GAggr over its bucket range,
// or a batch scan — SMA_Scan over the bucket range, or a table scan over
// the page range — feeding hash aggregation. It returns the root and the
// operator whose stats the partition reports. foldSp, when set, is the
// fold span of a traced serial run; the scan modes hang a scan span off
// it.
func (a *Agg) pipeline(ctx context.Context, i int, p pred.Predicate, specs []exec.AggSpec,
	opts exec.ExecOptions, foldSp *obs.Span) (partialOp, exec.StatsReporter) {
	var scan interface {
		exec.BatchIter
		exec.StatsReporter
	}
	var scanSp *obs.Span
	switch a.Mode {
	case ModeSMAGAggr:
		foldSp.SetNote("sma_gaggr")
		op := exec.NewSMAGAggr(a.Heap, p, specs, a.GroupBy, a.Grader, a.AggSMAs, a.CountSMA)
		op.Ctx = ctx
		op.First, op.Grades = a.parts[i].First, a.parts[i].Grades
		op.KeepPartials = true
		op.Opts = opts
		return op, op
	case ModeSMAScan:
		scanSp = foldSp.Child("scan")
		scanSp.SetNote("sma_scan batch")
		s := exec.NewBatchSMAScan(a.Heap, p, a.Grader, opts)
		s.Ctx = ctx
		s.First, s.Grades = a.parts[i].First, a.parts[i].Grades
		scan = s
	default:
		scanSp = foldSp.Child("scan")
		scanSp.SetNote("table_scan batch")
		s := exec.NewBatchTableScan(a.Heap, p, opts)
		s.Ctx = ctx
		s.StartPage, s.EndPage = a.ranges[i].First, a.ranges[i].Last
		scan = s
	}
	ga := exec.NewBatchGAggr(exec.TraceBatchIter(scan, scanSp), a.Heap.Schema(), specs, a.GroupBy)
	ga.KeepPartials = true
	return ga, scan
}

// runSerial runs the single partition on the caller's goroutine: no
// clones, no worker pool, and its groups are the result.
func (a *Agg) runSerial(foldSp *obs.Span) (map[core.GroupKey]*exec.Partial, error) {
	op, src := a.pipeline(a.Ctx, 0, a.Pred, a.Specs, a.workerExecOptions(1), foldSp)
	it := exec.TraceRowIter(op, foldSp)
	if err := it.Open(); err != nil {
		_ = it.Close() // the Open error is the one worth reporting
		return nil, err
	}
	groups := op.Partials()
	a.stats = src.Stats()
	return groups, it.Close()
}

// runParallel dispatches the partitions to the worker pool and merges
// their partial groups and stats under mergeSp.
func (a *Agg) runParallel(mergeSp *obs.Span) (map[core.GroupKey]*exec.Partial, error) {
	start := time.Now()
	defer func() {
		mergeSp.AddTime(time.Since(start))
		exec.SpanStats(mergeSp, a.stats)
		mergeSp.End()
	}()
	n := max(len(a.parts), len(a.ranges))
	workerOpts := a.workerExecOptions(n)
	partials := make([]map[core.GroupKey]*exec.Partial, n)
	stats := make([]exec.ScanStats, n)
	a.partPages = make([]int64, n)
	for i := range a.parts {
		a.partPages[i] = a.parts[i].Pages
	}
	for i, r := range a.ranges {
		a.partPages[i] = int64(r.Last - r.First)
	}
	spans := make([]*obs.Span, n)
	for i := range spans {
		spans[i] = mergeSp.Child("worker")
		spans[i].SetNote("w%d", i)
	}
	a.busy = make([]time.Duration, n)
	err := Run(a.Ctx, n, func(ctx context.Context, i int) error {
		defer func(t0 time.Time) {
			a.busy[i] = time.Since(t0)
			spans[i].AddTime(a.busy[i])
		}(time.Now())
		// Each worker evaluates private clones of the predicate and the
		// aggregate expressions: Bind writes column indexes, which must
		// not race across workers.
		op, src := a.pipeline(ctx, i, pred.Clone(a.Pred), exec.CloneSpecs(a.Specs), workerOpts, nil)
		if err := op.Open(); err != nil {
			_ = op.Close()
			return err
		}
		partials[i], stats[i] = op.Partials(), src.Stats()
		return op.Close()
	})
	if err != nil {
		return nil, err
	}
	a.observe(time.Since(start))

	// Merge stage: fold every worker's partial groups and stats together.
	merged := make(map[core.GroupKey]*exec.Partial)
	for w := range partials {
		for key, p := range partials[w] {
			if dst, ok := merged[key]; ok {
				dst.Merge(p, a.Specs)
			} else {
				merged[key] = p
			}
		}
		a.stats.Add(stats[w])
		st := stats[w]
		spans[w].AddPages(int64(st.PagesRead), int64(st.PagesPrefetched), int64(st.PrefetchHits))
		spans[w].AddGrades(int64(st.Qualifying), int64(st.Disqualifying), int64(st.Ambivalent))
		spans[w].AddBatches(int64(st.Batches))
		spans[w].End()
	}
	return merged, nil
}

// observe feeds the parallel metric families after a successful run:
// partition skew as max-over-mean dispatched pages, and one utilization
// sample per worker (busy time over the stage's wall time).
func (a *Agg) observe(wall time.Duration) {
	if a.Metrics == nil || len(a.busy) == 0 {
		return
	}
	var sum, max int64
	for _, p := range a.partPages {
		sum += p
		if p > max {
			max = p
		}
	}
	if sum > 0 {
		mean := float64(sum) / float64(len(a.partPages))
		a.Metrics.PartitionSkew.Observe(float64(max) / mean)
	}
	if wall > 0 {
		for _, b := range a.busy {
			a.Metrics.WorkerUtilization.Observe(float64(b) / float64(wall))
		}
	}
}

// workerExecOptions derates the query-level prefetch window for n
// concurrent workers: each worker prefetches its own partition, but the
// combined readahead must leave the shared pool room for the workers'
// demand pins. A derated window below one page disables prefetch.
func (a *Agg) workerExecOptions(n int) exec.ExecOptions {
	opts := a.Exec
	w := opts.EffectivePrefetchWindow()
	if w > 0 && n > 1 {
		w = min(w, a.Heap.Pool().Capacity()/(4*n))
	}
	if w < 1 {
		opts.PrefetchWindow = -1
	} else {
		opts.PrefetchWindow = w
	}
	return opts
}

// Next returns the next merged group.
func (a *Agg) Next() (exec.Row, bool, error) {
	if a.pos >= len(a.out) {
		return exec.Row{}, false, nil
	}
	r := a.out[a.pos]
	a.pos++
	return r, true, nil
}

// Close drops the result.
func (a *Agg) Close() error {
	a.out = nil
	return nil
}

// Stats returns the scan statistics of the run, merged across partitions.
func (a *Agg) Stats() exec.ScanStats { return a.stats }
