package core

import (
	"fmt"
	"math"
	"strings"

	"sma/internal/pred"
)

// Grade is the three-way classification of a bucket against a selection
// predicate (§3.1): every tuple qualifies, no tuple qualifies, or the bucket
// must be inspected.
type Grade uint8

// Grades. The zero value is Ambivalent so that "no information" degrades
// safely to inspection.
const (
	Ambivalent Grade = iota
	Qualifies
	Disqualifies
)

// String names the grade.
func (g Grade) String() string {
	switch g {
	case Qualifies:
		return "qualifies"
	case Disqualifies:
		return "disqualifies"
	case Ambivalent:
		return "ambivalent"
	default:
		return fmt.Sprintf("Grade(%d)", uint8(g))
	}
}

// and combines two partition memberships under conjunction (§3.1):
// BU_q = BU_q¹ ∩ BU_q², BU_d = BU_d¹ ∪ BU_d², rest ambivalent.
func (g Grade) and(h Grade) Grade {
	switch {
	case g == Disqualifies || h == Disqualifies:
		return Disqualifies
	case g == Qualifies && h == Qualifies:
		return Qualifies
	default:
		return Ambivalent
	}
}

// or combines two partition memberships under disjunction (§3.1):
// BU_q = BU_q¹ ∪ BU_q², BU_d = BU_d¹ ∩ BU_d², rest ambivalent.
func (g Grade) or(h Grade) Grade {
	switch {
	case g == Qualifies || h == Qualifies:
		return Qualifies
	case g == Disqualifies && h == Disqualifies:
		return Disqualifies
	default:
		return Ambivalent
	}
}

// not inverts a grade: if all tuples satisfy p, none satisfy ¬p, and vice
// versa. (Sound extension of the paper's rules to negation.)
func (g Grade) not() Grade {
	switch g {
	case Qualifies:
		return Disqualifies
	case Disqualifies:
		return Qualifies
	default:
		return Ambivalent
	}
}

// bound is an optionally-known scalar bound.
type bound struct {
	v  float64
	ok bool
}

// gradeConst implements the paper's rules for atomic predicates A op c given
// the bucket's min/max of A (either possibly unknown). Unknown information
// always degrades to Ambivalent ("The else case is also applied if the
// max/min aggregates are not defined").
func gradeConst(min, max bound, op pred.CmpOp, c float64) Grade {
	switch op {
	case pred.Eq:
		// if c < min_i(A) or c > max_i(A): disqualifies; else ambivalent.
		if min.ok && c < min.v {
			return Disqualifies
		}
		if max.ok && c > max.v {
			return Disqualifies
		}
		// Refinement: a constant bucket equal to c fully qualifies.
		if min.ok && max.ok && min.v == max.v && min.v == c {
			return Qualifies
		}
		return Ambivalent
	case pred.Ne:
		if min.ok && c < min.v {
			return Qualifies
		}
		if max.ok && c > max.v {
			return Qualifies
		}
		if min.ok && max.ok && min.v == max.v && min.v == c {
			return Disqualifies
		}
		return Ambivalent
	case pred.Le:
		// if max_i(A) <= c: qualifies; if min_i(A) > c: disqualifies.
		if max.ok && max.v <= c {
			return Qualifies
		}
		if min.ok && min.v > c {
			return Disqualifies
		}
		return Ambivalent
	case pred.Lt:
		if max.ok && max.v < c {
			return Qualifies
		}
		if min.ok && min.v >= c {
			return Disqualifies
		}
		return Ambivalent
	case pred.Ge:
		// if min_i(A) >= c: qualifies; if max_i(A) < c: disqualifies.
		if min.ok && min.v >= c {
			return Qualifies
		}
		if max.ok && max.v < c {
			return Disqualifies
		}
		return Ambivalent
	case pred.Gt:
		if min.ok && min.v > c {
			return Qualifies
		}
		if max.ok && max.v <= c {
			return Disqualifies
		}
		return Ambivalent
	default:
		return Ambivalent
	}
}

// gradeColCol implements the paper's A θ B rules given per-bucket bounds of
// both columns: if max_i(A) <= min_i(B) the bucket qualifies for A <= B; if
// min_i(A) > max_i(B) it disqualifies.
func gradeColCol(minA, maxA, minB, maxB bound, op pred.CmpOp) Grade {
	switch op {
	case pred.Le:
		if maxA.ok && minB.ok && maxA.v <= minB.v {
			return Qualifies
		}
		if minA.ok && maxB.ok && minA.v > maxB.v {
			return Disqualifies
		}
		return Ambivalent
	case pred.Lt:
		if maxA.ok && minB.ok && maxA.v < minB.v {
			return Qualifies
		}
		if minA.ok && maxB.ok && minA.v >= maxB.v {
			return Disqualifies
		}
		return Ambivalent
	case pred.Ge:
		return gradeColCol(minB, maxB, minA, maxA, pred.Le)
	case pred.Gt:
		return gradeColCol(minB, maxB, minA, maxA, pred.Lt)
	case pred.Eq:
		if minA.ok && maxB.ok && minA.v > maxB.v {
			return Disqualifies
		}
		if maxA.ok && minB.ok && maxA.v < minB.v {
			return Disqualifies
		}
		if minA.ok && maxA.ok && minB.ok && maxB.ok &&
			minA.v == maxA.v && minB.v == maxB.v && minA.v == minB.v {
			return Qualifies
		}
		return Ambivalent
	case pred.Ne:
		if minA.ok && maxB.ok && minA.v > maxB.v {
			return Qualifies
		}
		if maxA.ok && minB.ok && maxA.v < minB.v {
			return Qualifies
		}
		return Ambivalent
	default:
		return Ambivalent
	}
}

// Grader implements the paper's grade(bucket, predicate) function over a set
// of SMAs: min/max SMAs on bare columns (grouped or not) and count SMAs
// grouped by a single column (per-value counts, §3.1's last rule family).
//
// A grading pass compiles the predicate once: every atom resolves to the
// SMA-files of its min, max and count SMAs, so no bucket pays a map lookup
// or a string hash. The pass then grades each run of RunLen buckets from
// the files' run summaries (§4's hierarchical SMAs) and reads single
// bucket entries only inside runs that grade ambivalent, for a cost of
// O(runs + buckets in ambivalent runs). The result is bucket for bucket
// the flat grading of every bucket.
type Grader struct {
	numBuckets int
	mins       map[string]*SMA // column -> min SMA
	maxs       map[string]*SMA // column -> max SMA
	counts     map[string]*SMA // column -> count(*) group by column SMA
}

// NewGrader indexes the given SMAs by the columns they can grade. SMAs that
// cannot help with selection (e.g. sums, or min/max of compound
// expressions) are ignored, mirroring the paper: grading only ever uses
// min/max SMAs and count-group-by-A SMAs.
func NewGrader(smas ...*SMA) *Grader {
	g := &Grader{
		mins:   make(map[string]*SMA),
		maxs:   make(map[string]*SMA),
		counts: make(map[string]*SMA),
	}
	for _, s := range smas {
		if s == nil {
			continue
		}
		if s.NumBuckets > g.numBuckets {
			g.numBuckets = s.NumBuckets
		}
		switch s.Def.Agg {
		case Min:
			if col := s.Def.ColumnOf(); col != "" {
				g.mins[col] = s
			}
		case Max:
			if col := s.Def.ColumnOf(); col != "" {
				g.maxs[col] = s
			}
		case Count:
			if len(s.Def.GroupBy) == 1 {
				g.counts[strings.ToUpper(s.Def.GroupBy[0])] = s
			}
		}
	}
	return g
}

// NumBuckets returns the bucket count covered by the grader's SMAs.
func (g *Grader) NumBuckets() int { return g.numBuckets }

// HasSelectionSMA reports whether any atom of p can be graded by the
// available SMAs (i.e. whether an SMA scan can prune anything at all).
func (g *Grader) HasSelectionSMA(p pred.Predicate) bool {
	for _, a := range pred.Atoms(p) {
		if g.mins[a.Col] != nil || g.maxs[a.Col] != nil || g.counts[a.Col] != nil {
			return true
		}
		if a.RightCol != "" && (g.mins[a.RightCol] != nil || g.maxs[a.RightCol] != nil) {
			return true
		}
	}
	return false
}

// Grade classifies bucket b against predicate p, combining atom grades with
// the §3.1 partition algebra. It never errs toward Qualifies/Disqualifies:
// any atom it cannot decide contributes Ambivalent. Grading many buckets
// is cheaper through GradeAll, which compiles p once.
func (g *Grader) Grade(b int, p pred.Predicate) Grade {
	n := g.compile(p)
	return n.bucket(b)
}

// GradeAll grades every bucket and returns the slice of grades.
func (g *Grader) GradeAll(p pred.Predicate) []Grade {
	grades, _ := g.GradeRuns(p)
	return grades
}

// RunStats reports a grading pass: its grade tally and how much
// per-bucket work the run summaries saved.
type RunStats struct {
	Grades      GradeCounts
	Runs        int // run summaries consulted
	RunsDecided int // runs graded whole from their summaries
	BucketsRead int // buckets graded entry by entry, inside undecided runs
}

// GradeRuns is GradeAll that also reports the tally and how many runs the
// run summaries decided.
func (g *Grader) GradeRuns(p pred.Predicate) ([]Grade, RunStats) {
	out := make([]Grade, g.numBuckets)
	st := g.walk(p, func(lo, hi int, gr Grade) {
		for b := lo; b < hi; b++ {
			out[b] = gr
		}
	})
	return out, st
}

// Tally counts the grades of every bucket without materializing them.
func (g *Grader) Tally(p pred.Predicate) GradeCounts {
	return g.walk(p, func(int, int, Grade) {}).Grades
}

// walk grades p over every bucket, handing emit each stretch [lo, hi) of
// equally graded buckets: a whole run its summaries grade uniformly, or a
// single bucket of a run they do not.
//
// A decided run grade is every bucket's grade. Each bucket's [min, max]
// lies inside its run's, so a comparison the run bounds settle settles
// the same way for the bucket; run bounds are known only when every
// bucket of the run has an entry, so a bucket never knows less than its
// run; and the partition algebra is monotone, so a decided combination of
// run-level atom grades is also the combination of bucket-level ones. An
// ambivalent atom grade is taken for the whole run only when the
// summaries prove that no bucket's own bounds decide the atom either.
func (g *Grader) walk(p pred.Predicate, emit func(lo, hi int, gr Grade)) RunStats {
	n := g.compile(p)
	var st RunStats
	for lo := 0; lo < g.numBuckets; lo += RunLen {
		hi := min(lo+RunLen, g.numBuckets)
		st.Runs++
		if gr, uniform := n.run(lo/RunLen, runMask(hi-lo)); uniform {
			st.RunsDecided++
			st.Grades.add(gr, hi-lo)
			emit(lo, hi, gr)
			continue
		}
		st.BucketsRead += hi - lo
		for b := lo; b < hi; b++ {
			gr := n.bucket(b)
			st.Grades.add(gr, 1)
			emit(b, b+1, gr)
		}
	}
	return st
}

// runMask is the presence word of a run whose first k buckets exist.
func runMask(k int) uint64 {
	if k >= RunLen {
		return ^uint64(0)
	}
	return 1<<k - 1
}

// nodeKind tags a compiled predicate node.
type nodeKind uint8

const (
	nodeUnknown nodeKind = iota // ungradable: always Ambivalent
	nodeTrue
	nodeAtom
	nodeAnd
	nodeOr
	nodeNot
)

// gradeNode is a predicate compiled against the grader's SMAs.
type gradeNode struct {
	kind nodeKind
	kids []gradeNode

	// Atoms: A op c, or A op B when colCol is set. Nil SMA-file sets mean
	// no SMA supplies that bound.
	op                     pred.CmpOp
	c                      float64
	colCol                 bool
	minA, maxA, minB, maxB *boundFiles
	counts                 *valueCounts
}

// compile resolves p's atoms to SMA-files, sharing each SMA's resolution
// between the atoms that use it.
func (g *Grader) compile(p pred.Predicate) gradeNode {
	seen := make(map[*SMA]*boundFiles)
	files := func(s *SMA) *boundFiles {
		if s == nil {
			return nil
		}
		f, ok := seen[s]
		if !ok {
			f = &boundFiles{nb: s.NumBuckets}
			for _, k := range s.order {
				f.files = append(f.files, s.groups[k])
			}
			seen[s] = f
		}
		return f
	}
	var walk func(p pred.Predicate) gradeNode
	walk = func(p pred.Predicate) gradeNode {
		switch q := p.(type) {
		case *pred.Atom:
			n := gradeNode{kind: nodeAtom, op: q.Op, c: q.Value, colCol: q.RightCol != "",
				minA: files(g.mins[q.Col]), maxA: files(g.maxs[q.Col])}
			if n.colCol {
				n.minB, n.maxB = files(g.mins[q.RightCol]), files(g.maxs[q.RightCol])
			} else if s := g.counts[q.Col]; s != nil {
				n.counts = newValueCounts(s)
			}
			return n
		case *pred.And:
			return gradeNode{kind: nodeAnd, kids: walkAll(q.Kids, walk)}
		case *pred.Or:
			return gradeNode{kind: nodeOr, kids: walkAll(q.Kids, walk)}
		case *pred.Not:
			return gradeNode{kind: nodeNot, kids: []gradeNode{walk(q.Kid)}}
		case pred.True, *pred.True:
			return gradeNode{kind: nodeTrue}
		default:
			return gradeNode{kind: nodeUnknown}
		}
	}
	return walk(p)
}

func walkAll(ps []pred.Predicate, walk func(pred.Predicate) gradeNode) []gradeNode {
	out := make([]gradeNode, len(ps))
	for i, p := range ps {
		out[i] = walk(p)
	}
	return out
}

// bucket grades bucket b from its SMA entries.
func (n *gradeNode) bucket(b int) Grade {
	switch n.kind {
	case nodeAtom:
		return n.atomBucket(b)
	case nodeAnd:
		out := Qualifies
		for i := range n.kids {
			out = out.and(n.kids[i].bucket(b))
			if out == Disqualifies {
				return Disqualifies
			}
		}
		return out
	case nodeOr:
		out := Disqualifies
		for i := range n.kids {
			out = out.or(n.kids[i].bucket(b))
			if out == Qualifies {
				return Qualifies
			}
		}
		return out
	case nodeNot:
		return n.kids[0].bucket(b).not()
	case nodeTrue:
		return Qualifies
	default:
		return Ambivalent
	}
}

// run grades run r, whose existing buckets are the bits of full, from the
// run summaries alone. uniform reports that every bucket of the run has
// that grade; otherwise the grade is Ambivalent and the buckets must be
// graded one by one. A decided grade is always uniform.
func (n *gradeNode) run(r int, full uint64) (g Grade, uniform bool) {
	switch n.kind {
	case nodeAtom:
		return n.atomRun(r, full)
	case nodeAnd:
		out, all := Qualifies, true
		for i := range n.kids {
			g, u := n.kids[i].run(r, full)
			if g == Disqualifies {
				return Disqualifies, true
			}
			out, all = out.and(g), all && u
		}
		return out, all
	case nodeOr:
		out, all := Disqualifies, true
		for i := range n.kids {
			g, u := n.kids[i].run(r, full)
			if g == Qualifies {
				return Qualifies, true
			}
			out, all = out.or(g), all && u
		}
		return out, all
	case nodeNot:
		g, u := n.kids[0].run(r, full)
		return g.not(), u
	case nodeTrue:
		return Qualifies, true
	default:
		return Ambivalent, true
	}
}

// atomRun grades one atomic comparison on run r. A grade the run's bounds
// decide holds for every bucket. An ambivalent run is uniform only when
// the summaries prove that no bucket's own bounds decide it either; a
// count-by-value fallback or a col-col atom always grades such runs bucket
// by bucket.
func (n *gradeNode) atomRun(r int, full uint64) (Grade, bool) {
	mn, mx := n.minA.runRange(r, full), n.maxA.runRange(r, full)
	var g Grade
	if n.colCol {
		mnB, mxB := n.minB.runRange(r, full), n.maxB.runRange(r, full)
		g = gradeColCol(mn.min(full), mx.max(full), mnB.min(full), mxB.max(full), n.op)
		return g, g != Ambivalent
	}
	g = gradeConst(mn.min(full), mx.max(full), n.op, n.c)
	if g != Ambivalent {
		return g, true
	}
	return Ambivalent, n.counts == nil && constAmbivalent(mn, mx, n.op, n.c)
}

// constAmbivalent reports whether gradeConst grades every bucket of a run
// Ambivalent, given the run's ranges of bucket minima (mn) and maxima
// (mx): each of its decisive comparisons must fail for every bucket that
// has the bound it needs. A bound no bucket has ranges over [+Inf, -Inf],
// which fails every comparison by itself.
func constAmbivalent(mn, mx runBound, op pred.CmpOp, c float64) bool {
	switch op {
	case pred.Le: // Q: max <= c; D: min > c
		return mx.lo > c && mn.hi <= c
	case pred.Lt: // Q: max < c; D: min >= c
		return mx.lo >= c && mn.hi < c
	case pred.Ge: // Q: min >= c; D: max < c
		return mn.hi < c && mx.lo >= c
	case pred.Gt: // Q: min > c; D: max <= c
		return mn.hi <= c && mx.lo > c
	case pred.Eq, pred.Ne: // decided by c < min, c > max, or min = max = c
		return mn.hi <= c && mx.lo >= c && (mn.hi < c || mx.lo > c)
	default:
		return true
	}
}

// atomBucket grades one atomic comparison on bucket b, preferring min/max
// SMAs and falling back to a count-group-by-A SMA when min/max information
// is absent or indecisive.
func (n *gradeNode) atomBucket(b int) Grade {
	var grade Grade
	if n.colCol {
		grade = gradeColCol(n.minA.bucketMin(b), n.maxA.bucketMax(b),
			n.minB.bucketMin(b), n.maxB.bucketMax(b), n.op)
	} else {
		grade = gradeConst(n.minA.bucketMin(b), n.maxA.bucketMax(b), n.op, n.c)
	}
	if grade == Ambivalent && n.counts != nil {
		return n.counts.grade(b, n.op, n.c)
	}
	return grade
}

// boundFiles is one min or max SMA resolved for grading: its SMA-files,
// whose min (or max) over the present groups bounds the column.
type boundFiles struct {
	files []*GroupFile
	nb    int
}

// bucketMin returns the bucket minimum of the column: the smallest entry
// over the groups present in bucket b (the paper's min_i(A); grouped min
// SMAs grade by taking the min over all groups, §3.1). Safe on nil.
func (f *boundFiles) bucketMin(b int) bound {
	if f == nil || b >= f.nb {
		return bound{}
	}
	lo, ok := math.Inf(1), false
	for _, gf := range f.files {
		if v, present := gf.ValueAt(b); present {
			if v < lo {
				lo = v
			}
			ok = true
		}
	}
	return bound{lo, ok}
}

// bucketMax returns the bucket maximum of the column. Safe on nil.
func (f *boundFiles) bucketMax(b int) bound {
	if f == nil || b >= f.nb {
		return bound{}
	}
	hi, ok := math.Inf(-1), false
	for _, gf := range f.files {
		if v, present := gf.ValueAt(b); present {
			if v > hi {
				hi = v
			}
			ok = true
		}
	}
	return bound{hi, ok}
}

// runBound ranges one column bound over the buckets of a run: every
// bucket's bound (its min, for a min SMA, or its max) lies in [lo, hi],
// and cover marks the buckets that have one. For a min SMA lo is the
// exact least bucket minimum and hi may overshoot the greatest (entries
// of several groups are pooled); for a max SMA hi is exact and lo may
// undershoot.
type runBound struct {
	lo, hi float64
	cover  uint64
}

// min returns the run's minimum as a grading bound: known only when every
// existing bucket of the run (the bits of full) has an entry.
func (rb runBound) min(full uint64) bound { return bound{rb.lo, rb.cover == full} }

// max returns the run's maximum as a grading bound, like min.
func (rb runBound) max(full uint64) bound { return bound{rb.hi, rb.cover == full} }

// runRange pools the run summaries of every group present in run r.
// Safe on nil (no SMA: no bucket has the bound).
func (f *boundFiles) runRange(r int, full uint64) runBound {
	rb := runBound{lo: math.Inf(1), hi: math.Inf(-1)}
	if f == nil {
		return rb
	}
	for _, gf := range f.files {
		if r >= len(gf.runs) {
			continue
		}
		if w := gf.present.word(r) & full; w != 0 {
			rb.cover |= w
			s := &gf.runs[r]
			if s.lo < rb.lo {
				rb.lo = s.lo
			}
			if s.hi > rb.hi {
				rb.hi = s.hi
			}
		}
	}
	return rb
}

// valueCounts is a count(*) SMA grouped by exactly the predicate column,
// resolved for grading: each SMA-file with its group value in the
// comparison domain.
type valueCounts struct {
	files []valueFile
	nb    int
}

type valueFile struct {
	gf *GroupFile
	x  float64
	ok bool // false: the value is not comparable (multi-char string)
}

func newValueCounts(s *SMA) *valueCounts {
	vc := &valueCounts{nb: s.NumBuckets}
	for _, k := range s.order {
		gf := s.groups[k]
		x, ok := gf.Vals[0].Numeric()
		vc.files = append(vc.files, valueFile{gf: gf, x: x, ok: ok})
	}
	return vc
}

// grade grades bucket b: the group keys enumerate the values occurring in
// the bucket, so the bucket qualifies when every present value satisfies
// the comparison and disqualifies when none does (§3.1).
func (vc *valueCounts) grade(b int, op pred.CmpOp, c float64) Grade {
	if b >= vc.nb {
		return Ambivalent
	}
	sawAny := false
	allSat, noneSat := true, true
	for _, f := range vc.files {
		v, present := f.gf.ValueAt(b)
		if !present || v <= 0 {
			continue
		}
		if !f.ok {
			return Ambivalent
		}
		sawAny = true
		if op.Compare(f.x, c) {
			noneSat = false
		} else {
			allSat = false
		}
		if !allSat && !noneSat {
			return Ambivalent
		}
	}
	if !sawAny {
		// Empty bucket: vacuously no qualifying tuples.
		return Disqualifies
	}
	if allSat {
		return Qualifies
	}
	return Disqualifies
}

// GradeCounts summarizes a grading pass; the planner uses it for the
// breakeven decision (Fig. 5: SMAs stop paying off at ≈25% ambivalent
// buckets).
type GradeCounts struct {
	Qualifying    int
	Disqualifying int
	Ambivalent    int
}

// Total returns the number of graded buckets.
func (c GradeCounts) Total() int { return c.Qualifying + c.Disqualifying + c.Ambivalent }

// AmbivalentFrac returns the fraction of buckets that must be inspected.
func (c GradeCounts) AmbivalentFrac() float64 {
	if c.Total() == 0 {
		return 0
	}
	return float64(c.Ambivalent) / float64(c.Total())
}

// add counts n buckets of grade g.
func (c *GradeCounts) add(g Grade, n int) {
	switch g {
	case Qualifies:
		c.Qualifying += n
	case Disqualifies:
		c.Disqualifying += n
	default:
		c.Ambivalent += n
	}
}

// CountGrades tallies a grade slice.
func CountGrades(grades []Grade) GradeCounts {
	var c GradeCounts
	for _, g := range grades {
		c.add(g, 1)
	}
	return c
}
