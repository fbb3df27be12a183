package core

import (
	"fmt"
	"math"
	"math/bits"
	"sort"

	"sma/internal/storage"
	"sma/internal/tuple"
)

// RunLen is the number of consecutive buckets one run summary covers. It
// is the width of a presence-bitmap word, so run r's presence is exactly
// bitmap word r and needs no state of its own.
const RunLen = 64

// GroupFile is one SMA-file: the materialized aggregate of one group,
// aligned positionally with the buckets of the indexed relation. An
// ungrouped SMA has exactly one GroupFile with the empty key.
//
// Beside its entries a GroupFile keeps an in-memory run summary, the
// second level of the paper's hierarchical SMAs (§4): for every run of
// RunLen buckets, the min and max (min and max SMAs) or the sum (sum and
// count SMAs) of the run's present entries. Grading decides whole runs
// from it and SMA_GAggr folds whole qualifying runs with it, so both cost
// O(runs) plus the buckets of the runs they cannot decide. The summary is
// rebuilt on load and never written: the SMA-file format is unchanged.
// Every entry mutation goes through the methods below, which keep it
// current: appends in O(1) (unless an appended tuple lowers the entry
// holding its run's largest minimum, or raises the one holding the
// smallest maximum), any other change by recomputing one run in
// O(RunLen).
type GroupFile struct {
	Key  GroupKey
	Vals []GroupVal // decoded group-by column values (nil for ungrouped)

	agg AggKind
	vec *Vector
	// present marks buckets in which the group has at least one tuple;
	// min/max entries of absent buckets are meaningless and must be
	// skipped during grading and aggregation.
	present *Bitmap
	runs    []runSummary
}

// runSummary summarizes the present entries of one run. Min and max files
// keep both extremes: the one matching the aggregate folds the run and
// bounds grading, the other lets grading prove that every bucket of the
// run grades alike. Sum and count files keep the sum.
type runSummary struct {
	lo, hi float64 // min and max files
	sum    float64 // sum and count files
}

// emptyRun is the summary of a run without present entries.
var emptyRun = runSummary{lo: math.Inf(1), hi: math.Inf(-1)}

// add folds a present entry into the summary.
func (s *runSummary) add(v float64, extremes bool) {
	if !extremes {
		s.sum += v
		return
	}
	if v < s.lo {
		s.lo = v
	}
	if v > s.hi {
		s.hi = v
	}
}

// newGroupFile creates an empty SMA-file for an SMA of kind agg.
func newGroupFile(key GroupKey, vals []GroupVal, elem ElemType, agg AggKind) *GroupFile {
	return &GroupFile{Key: key, Vals: vals, agg: agg, vec: NewVector(elem), present: NewBitmap()}
}

// ValueAt returns the aggregate for bucket b and whether it is present.
func (g *GroupFile) ValueAt(b int) (float64, bool) {
	if !g.present.Get(b) {
		return 0, false
	}
	return g.vec.Get(b), true
}

// Run returns the aggregate of run r (buckets [r*RunLen, (r+1)*RunLen)):
// the min, max or sum of its present entries, by the SMA's aggregate —
// what folding the run's entries one by one accumulates — and its
// presence word, bit i of which is set when bucket r*RunLen+i is present.
// The aggregate is meaningful only when the word is non-zero; runs past
// the end have none.
func (g *GroupFile) Run(r int) (float64, uint64) {
	if r >= len(g.runs) {
		return 0, 0
	}
	s := &g.runs[r]
	switch g.agg {
	case Min:
		return s.lo, g.present.word(r)
	case Max:
		return s.hi, g.present.word(r)
	default:
		return s.sum, g.present.word(r)
	}
}

// extremes reports whether the file's runs keep min and max (rather than
// the sum).
func (g *GroupFile) extremes() bool { return g.agg == Min || g.agg == Max }

// runSummary recomputes run r from the entries, in bucket order.
func (g *GroupFile) runSummary(r int) runSummary {
	s, ext, base := emptyRun, g.extremes(), r*RunLen
	for w := g.present.word(r); w != 0; w &= w - 1 {
		s.add(g.vec.Get(base+bits.TrailingZeros64(w)), ext)
	}
	return s
}

// appendEntry adds one bucket's entry in O(1).
func (g *GroupFile) appendEntry(v float64, present bool) {
	b := g.vec.Len()
	if b%RunLen == 0 {
		g.runs = append(g.runs, emptyRun)
	}
	g.vec.Append(v)
	g.present.Append(present)
	if present {
		g.runs[b/RunLen].add(g.vec.Get(b), g.extremes())
	}
}

// setEntry overwrites bucket b's entry and recomputes its run in
// O(RunLen).
func (g *GroupFile) setEntry(b int, v float64, present bool) {
	g.vec.Set(b, v)
	g.present.Set(b, present)
	g.runs[b/RunLen] = g.runSummary(b / RunLen)
}

// foldValue folds one appended tuple's value v into bucket b's entry (a
// count entry counts the tuple instead). A min entry only falls and a max
// entry only rises, so the run summary follows in O(1) — unless the entry
// held the run's opposite extreme, which then recomputes the run.
func (g *GroupFile) foldValue(b int, v float64) {
	s := &g.runs[b/RunLen]
	if !g.present.Get(b) {
		if g.agg == Count {
			v = 1
		}
		g.vec.Set(b, v)
		g.present.Set(b, true)
		s.add(g.vec.Get(b), g.extremes())
		return
	}
	old := g.vec.Get(b)
	switch g.agg {
	case Min:
		if v >= old {
			return
		}
	case Max:
		if v <= old {
			return
		}
	case Sum:
		v = old + v
	case Count:
		v = old + 1
	}
	g.vec.Set(b, v)
	nv := g.vec.Get(b)
	switch {
	case !g.extremes():
		s.sum += nv - old
	case g.agg == Min && old == s.hi, g.agg == Max && old == s.lo:
		*s = g.runSummary(b / RunLen)
	default:
		s.add(nv, true)
	}
}

// load installs decoded entries and rebuilds the run summary.
func (g *GroupFile) load(vec *Vector, present *Bitmap) {
	g.vec, g.present = vec, present
	g.runs = make([]runSummary, (present.Len()+RunLen-1)/RunLen)
	for r := range g.runs {
		g.runs[r] = g.runSummary(r)
	}
}

// checkRuns recomputes every run summary and reports the first that
// differs from the maintained one.
func (g *GroupFile) checkRuns() error {
	n := g.present.Len()
	if want := (n + RunLen - 1) / RunLen; len(g.runs) != want {
		return fmt.Errorf("%d run summaries for %d buckets, want %d", len(g.runs), n, want)
	}
	for r, got := range g.runs {
		want := g.runSummary(r)
		if !almostEqual(got.lo, want.lo) || !almostEqual(got.hi, want.hi) || !almostEqual(got.sum, want.sum) {
			return fmt.Errorf("run %d summary %+v, want %+v", r, got, want)
		}
	}
	return nil
}

// SMA is a built Small Materialized Aggregate over one relation: the
// definition plus one GroupFile per group.
type SMA struct {
	Def         Def
	BucketPages int
	NumBuckets  int

	elem   ElemType
	schema *tuple.Schema
	gx     *Extractor // nil for ungrouped SMAs

	groups map[GroupKey]*GroupFile
	order  []GroupKey // deterministic iteration order
}

// newSMA allocates an empty SMA skeleton bound to schema.
func newSMA(def Def, schema *tuple.Schema, bucketPages int) (*SMA, error) {
	if err := def.Validate(schema); err != nil {
		return nil, err
	}
	s := &SMA{
		Def:         def,
		BucketPages: bucketPages,
		elem:        def.ElemTypeFor(schema),
		schema:      schema,
		groups:      make(map[GroupKey]*GroupFile),
	}
	if def.Grouped() {
		gx, err := NewExtractor(schema, def.GroupBy)
		if err != nil {
			return nil, err
		}
		s.gx = gx
	}
	return s, nil
}

// ElemType returns the storage type of the SMA's entries.
func (s *SMA) ElemType() ElemType { return s.elem }

// Schema returns the schema the SMA is bound to.
func (s *SMA) Schema() *tuple.Schema { return s.schema }

// NumFiles returns the number of SMA-files (one per group).
func (s *SMA) NumFiles() int { return len(s.groups) }

// GroupKeys returns the group keys in deterministic order.
func (s *SMA) GroupKeys() []GroupKey {
	out := make([]GroupKey, len(s.order))
	copy(out, s.order)
	return out
}

// Group returns the SMA-file for key (nil if the group never occurred).
func (s *SMA) Group(key GroupKey) *GroupFile { return s.groups[key] }

// Groups visits every SMA-file in deterministic order.
func (s *SMA) Groups(visit func(g *GroupFile) error) error {
	for _, k := range s.order {
		if err := visit(s.groups[k]); err != nil {
			return err
		}
	}
	return nil
}

// addGroup registers a new group, backfilling absent entries for the first
// backfill buckets.
func (s *SMA) addGroup(key GroupKey, vals []GroupVal, backfill int) *GroupFile {
	g := newGroupFile(key, vals, s.elem, s.Def.Agg)
	for i := 0; i < backfill; i++ {
		g.appendEntry(0, false)
	}
	s.groups[key] = g
	s.order = append(s.order, key)
	sort.Slice(s.order, func(i, j int) bool { return s.order[i] < s.order[j] })
	return g
}

// BucketMin returns the smallest aggregate value over all groups present in
// bucket b. For an SMA defined with the min aggregate this is the bucket
// minimum of the indexed expression (the paper's min_i(A)); grouped min
// SMAs are usable for selection by taking the min over all groups (§3.1).
func (s *SMA) BucketMin(b int) (float64, bool) {
	lo, ok := math.Inf(1), false
	for _, k := range s.order {
		if v, present := s.groups[k].ValueAt(b); present {
			if v < lo {
				lo = v
			}
			ok = true
		}
	}
	return lo, ok
}

// BucketMax returns the largest aggregate value over all groups present in
// bucket b (the paper's max_i(A) for max SMAs).
func (s *SMA) BucketMax(b int) (float64, bool) {
	hi, ok := math.Inf(-1), false
	for _, k := range s.order {
		if v, present := s.groups[k].ValueAt(b); present {
			if v > hi {
				hi = v
			}
			ok = true
		}
	}
	return hi, ok
}

// SizeBytes returns the total payload size of all SMA-files (aggregate
// entries only, the quantity the paper's size table reports).
func (s *SMA) SizeBytes() int64 {
	var total int64
	for _, g := range s.groups {
		total += g.vec.SizeBytes()
	}
	return total
}

// PagesUsed returns the number of pages the SMA-files occupy, rounding each
// file up to whole pages as the paper's per-file accounting does.
func (s *SMA) PagesUsed() int64 {
	var total int64
	for _, g := range s.groups {
		bytes := g.vec.SizeBytes()
		total += (bytes + storage.PageSize - 1) / storage.PageSize
	}
	return total
}

// checkBucket validates a bucket index.
func (s *SMA) checkBucket(b int) error {
	if b < 0 || b >= s.NumBuckets {
		return fmt.Errorf("core: sma %s: bucket %d out of range [0,%d)", s.Def.Name, b, s.NumBuckets)
	}
	return nil
}
