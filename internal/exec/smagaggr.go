package exec

import (
	"context"
	"fmt"
	"strings"

	"sma/internal/core"
	"sma/internal/expr"
	"sma/internal/pred"
	"sma/internal/storage"
	"sma/internal/tuple"
)

// SMAGAggr is the paper's SMA_GAggr operator (Fig. 7): it computes a
// grouping with aggregation, using selection SMAs (via the Grader) to grade
// buckets and aggregate SMAs to advance the result aggregates of qualifying
// buckets without touching their pages. Only ambivalent buckets are
// inspected, batch by batch. The operator is a pipeline breaker: init()
// computes the whole result, next() merely returns one group after another.
type SMAGAggr struct {
	H       *storage.HeapFile
	Pred    pred.Predicate // nil: every bucket qualifies
	Specs   []AggSpec
	GroupBy []string

	// Grader holds the selection SMAs.
	Grader *core.Grader
	// AggSMAs maps each spec (by position) to the SMA supplying its
	// per-bucket values. The SMA's grouping must equal the query grouping
	// or be finer (a superset of the group-by columns, §2.3: "a SMA has to
	// reflect the grouping of the query or a finer grouping").
	AggSMAs []*core.SMA
	// CountSMA supplies the per-group tuple count used as the AVG divisor;
	// required when any spec is AVG ("If the result aggregates do not
	// contain a count(*) and if averages are demanded by the query, we add
	// it").
	CountSMA *core.SMA
	// Ctx, when set, is checked once per run of buckets during init() (and
	// per page inside ambivalent buckets) so a cancelled query aborts the
	// aggregation pass with the context's error.
	Ctx context.Context
	// First and Grades restrict the operator to the bucket range
	// [First, First+len(Grades)) with pre-computed grades, saving
	// re-grading (one partition of the parallel subsystem). Nil Grades
	// grades every bucket from First to the end of the relation.
	First  int
	Grades []core.Grade
	// KeepPartials makes Open keep the merge-ready per-group state instead
	// of finishing it into rows; retrieve it with Partials before Close.
	// Next yields nothing in this mode. Parallel partition workers use it.
	KeepPartials bool
	// Opts tunes the batched inspection of the ambivalent buckets (decode
	// to a reusable batch, predicate as a selection-vector loop, alloc-free
	// group fold) and the asynchronous prefetch of their pages.
	Opts ExecOptions

	schema *tuple.Schema
	gx     *core.Extractor

	// per-spec: SMA group files with their projected query-level group.
	projected [][]projectedGroup
	countProj []projectedGroup

	groups map[core.GroupKey]*Partial
	out    []Row
	pos    int
	stats  ScanStats
}

// projectedGroup caches the roll-up mapping from one SMA-file to the query
// group it contributes to.
type projectedGroup struct {
	gf   *core.GroupFile
	key  core.GroupKey
	vals []core.GroupVal
	acc  *Partial // the query group's state, once it has one
}

// NewSMAGAggr constructs the operator; see the field docs for parameters.
func NewSMAGAggr(h *storage.HeapFile, p pred.Predicate, specs []AggSpec, groupBy []string,
	grader *core.Grader, aggSMAs []*core.SMA, countSMA *core.SMA) *SMAGAggr {
	return &SMAGAggr{H: h, Pred: p, Specs: specs, GroupBy: groupBy,
		Grader: grader, AggSMAs: aggSMAs, CountSMA: countSMA}
}

// projectGroups validates that s's grouping is equal to or finer than the
// query grouping and computes, for every SMA-file, the query-level group it
// rolls up into.
func projectGroups(s *core.SMA, queryGroupBy []string) ([]projectedGroup, error) {
	pos := make([]int, len(queryGroupBy))
	for i, q := range queryGroupBy {
		found := -1
		for j, g := range s.Def.GroupBy {
			if strings.EqualFold(q, g) {
				found = j
				break
			}
		}
		if found < 0 {
			return nil, fmt.Errorf("exec: sma %s groups by (%s), which does not cover query group-by column %s",
				s.Def.Name, strings.Join(s.Def.GroupBy, ","), q)
		}
		pos[i] = found
	}
	same := len(pos) == len(s.Def.GroupBy)
	for i, j := range pos {
		same = same && i == j
	}
	out := make([]projectedGroup, 0, s.NumFiles())
	err := s.Groups(func(gf *core.GroupFile) error {
		if same {
			// The SMA groups exactly as the query does: every SMA-file is
			// its own query group, keyed as it already is.
			out = append(out, projectedGroup{gf: gf, key: gf.Key, vals: gf.Vals})
			return nil
		}
		vals := make([]core.GroupVal, len(pos))
		for i, j := range pos {
			vals[i] = gf.Vals[j]
		}
		out = append(out, projectedGroup{gf: gf, key: core.MakeGroupKey(vals), vals: vals})
		return nil
	})
	return out, err
}

// Open computes the result, the paper's three phases: initialize, advance
// per bucket, post-process averages.
func (g *SMAGAggr) Open() error {
	g.schema = g.H.Schema()
	if g.Pred != nil {
		if err := g.Pred.Bind(g.schema); err != nil {
			return err
		}
	}
	for i := range g.Specs {
		if err := g.Specs[i].Validate(g.schema); err != nil {
			return err
		}
	}
	if len(g.AggSMAs) != len(g.Specs) {
		return fmt.Errorf("exec: %d aggregate SMAs for %d specs", len(g.AggSMAs), len(g.Specs))
	}
	needCount := false
	for i := range g.Specs {
		s := g.AggSMAs[i]
		if s == nil {
			return fmt.Errorf("exec: spec %s has no aggregate SMA", g.Specs[i])
		}
		if want := g.Specs[i].Func.NeededSMAKind(); s.Def.Agg != want {
			return fmt.Errorf("exec: spec %s needs a %s SMA, got %s (%s)", g.Specs[i], want, s.Def.Agg, s.Def.Name)
		}
		if g.Specs[i].Arg != nil && !expr.Equal(g.Specs[i].Arg, s.Def.Expr) {
			return fmt.Errorf("exec: spec %s does not match sma %s over %s",
				g.Specs[i], s.Def.Name, s.Def.ExprString())
		}
		if g.Specs[i].Func == AggAvg {
			needCount = true
		}
	}
	if needCount && g.CountSMA == nil {
		return fmt.Errorf("exec: AVG aggregates require a count SMA")
	}

	var err error
	if len(g.GroupBy) > 0 {
		g.gx, err = core.NewExtractor(g.schema, g.GroupBy)
		if err != nil {
			return err
		}
	}
	g.projected = make([][]projectedGroup, len(g.Specs))
	for i, s := range g.AggSMAs {
		if g.projected[i], err = projectGroups(s, g.GroupBy); err != nil {
			return err
		}
	}
	if g.CountSMA != nil {
		if g.countProj, err = projectGroups(g.CountSMA, g.GroupBy); err != nil {
			return err
		}
	}

	g.groups = make(map[core.GroupKey]*Partial)
	g.stats = ScanStats{}

	// Every bucket is graded up front (reusing pre-computed grades when
	// given), so whole qualifying runs can be folded from the run
	// summaries and the ambivalent page set — the only pages this operator
	// ever touches — is known before the first access and can stream in
	// behind an asynchronous prefetcher.
	grades := g.Grades
	if grades == nil {
		grades = gradeBuckets(g.Grader, g.Pred, g.First, max(0, g.H.NumBuckets()-g.First))
	}
	var pf *storage.Prefetcher
	if w := g.Opts.EffectivePrefetchWindow(); w > 0 {
		var spans []storage.PageSpan
		for i, gr := range grades {
			if gr != core.Ambivalent {
				continue
			}
			first, last := g.H.BucketRange(g.First + i)
			spans = append(spans, storage.PageSpan{First: first, Last: last})
		}
		pf = g.H.Pool().StartPrefetch(spans, w)
		defer func() {
			pf.Close()
			g.stats.PagesPrefetched += pf.Issued()
		}()
	}
	folder := newGroupFolder(g.Specs, g.gx, g.groups)
	batch := getBatch(g.schema, batchCap(g.Opts, g.H.RecordsPerPage()))
	defer putBatch(batch)

	runBuckets := g.runBuckets()
	lastRun := -1
	for i := 0; i < len(grades); {
		b := g.First + i
		if r := b / core.RunLen; r != lastRun {
			if err := ctxErr(g.Ctx); err != nil {
				return err
			}
			lastRun = r
			if k := qualifyingRun(grades, i, b, runBuckets); k > 0 {
				g.stats.Qualifying += k
				g.advanceRunFromSMAs(r)
				i += k
				continue
			}
		}
		switch grades[i] {
		case core.Disqualifies:
			g.stats.Disqualifying++ // "do nothing"
		case core.Qualifies:
			g.stats.Qualifying++
			g.advanceFromSMAs(b)
		default:
			g.stats.Ambivalent++
			if err := g.advanceFromBucket(b, batch, folder, pf); err != nil {
				return err
			}
		}
		i++
	}
	if !g.KeepPartials {
		g.out = FinishPartials(g.groups, g.Specs, len(g.GroupBy) == 0)
	}
	g.pos = 0
	return nil
}

// runBuckets returns the relation's bucket count when every aggregate
// SMA covers exactly those buckets, so that run r's summaries cover
// [r*RunLen, min((r+1)*RunLen, runBuckets)), or 0 when one does not and
// runs must not be folded whole.
func (g *SMAGAggr) runBuckets() int {
	n := g.H.NumBuckets()
	for _, s := range g.AggSMAs {
		if s.NumBuckets != n {
			return 0
		}
	}
	if g.CountSMA != nil && g.CountSMA.NumBuckets != n {
		return 0
	}
	return n
}

// qualifyingRun reports how many positions from i on form the whole run
// starting at bucket b — every bucket of the run inside the operator's
// range and graded Qualifies — or 0 if they do not, in which case the run
// is folded bucket by bucket.
func qualifyingRun(grades []core.Grade, i, b, runBuckets int) int {
	if b%core.RunLen != 0 {
		return 0
	}
	k := min(core.RunLen, runBuckets-b)
	if k <= 0 || i+k > len(grades) {
		return 0
	}
	for _, gr := range grades[i : i+k] {
		if gr != core.Qualifies {
			return 0
		}
	}
	return k
}

// Partials returns the merge-ready group states computed by Open. The map
// is owned by the operator and valid until Close.
func (g *SMAGAggr) Partials() map[core.GroupKey]*Partial { return g.groups }

// acc returns (creating if needed) the accumulator for a query group.
func (g *SMAGAggr) acc(key core.GroupKey, vals []core.GroupVal) *Partial {
	a := g.groups[key]
	if a == nil {
		a = newGroupAcc(vals, len(g.Specs))
		g.groups[key] = a
	}
	return a
}

// partial returns the query group an SMA-file rolls up into, resolved
// once per Open on first contribution (a group with none gets no row).
func (g *SMAGAggr) partial(pg *projectedGroup) *Partial {
	if pg.acc == nil {
		pg.acc = g.acc(pg.key, pg.vals)
	}
	return pg.acc
}

// advanceFromSMAs advances the result aggregates of a qualifying bucket
// using only SMA entries — no page access.
func (g *SMAGAggr) advanceFromSMAs(b int) {
	for i := range g.Specs {
		for j := range g.projected[i] {
			pg := &g.projected[i][j]
			if v, ok := pg.gf.ValueAt(b); ok {
				g.partial(pg).addSMA(g.Specs, i, v)
			}
		}
	}
	for j := range g.countProj {
		pg := &g.countProj[j]
		if v, ok := pg.gf.ValueAt(b); ok {
			g.partial(pg).Count += v
		}
	}
}

// advanceRunFromSMAs advances the result aggregates by a whole qualifying
// run r with one fold per SMA-file from its run summary: the run's min,
// max or sum is exactly what folding its buckets one by one accumulates.
func (g *SMAGAggr) advanceRunFromSMAs(r int) {
	for i := range g.Specs {
		for j := range g.projected[i] {
			pg := &g.projected[i][j]
			if v, present := pg.gf.Run(r); present != 0 {
				g.partial(pg).addSMA(g.Specs, i, v)
			}
		}
	}
	for j := range g.countProj {
		pg := &g.countProj[j]
		if v, present := pg.gf.Run(r); present != 0 {
			g.partial(pg).Count += v
		}
	}
}

// advanceFromBucket inspects an ambivalent bucket batch by batch: pages
// decode into the reusable batch, the predicate runs as a selection-vector
// loop, and the survivors fold into the shared group map without
// per-tuple allocations.
func (g *SMAGAggr) advanceFromBucket(b int, batch *Batch, folder *groupFolder, pf *storage.Prefetcher) error {
	first, last := g.H.BucketRange(b)
	per := g.H.RecordsPerPage()
	capT := batchCap(g.Opts, per)
	for p := first; p <= last; {
		batch.reset()
		for ; p <= last && batch.n+per <= capT; p++ {
			if err := ctxErr(g.Ctx); err != nil {
				return err
			}
			if pf.Claim(p) {
				g.stats.PrefetchHits++
			}
			data, n, err := g.H.ReadPageInto(p, batch.data)
			if err != nil {
				return err
			}
			batch.data, batch.n = data, batch.n+n
			g.stats.PagesRead++
			pf.Advance()
		}
		if batch.n == 0 {
			continue
		}
		g.stats.Batches++
		if g.Pred != nil {
			batch.selectPred(g.Pred)
		} else {
			batch.selectAll()
		}
		folder.fold(batch)
	}
	return nil
}

// Next returns the next unseen group.
func (g *SMAGAggr) Next() (Row, bool, error) {
	if g.pos >= len(g.out) {
		return Row{}, false, nil
	}
	r := g.out[g.pos]
	g.pos++
	return r, true, nil
}

// Close drops the result.
func (g *SMAGAggr) Close() error {
	g.groups = nil
	g.out = nil
	return nil
}

// Stats returns the bucket classification of the completed computation.
func (g *SMAGAggr) Stats() ScanStats { return g.stats }
