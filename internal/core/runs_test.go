package core

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"sma/internal/expr"
	"sma/internal/pred"
	"sma/internal/storage"
	"sma/internal/testutil"
	"sma/internal/tuple"
)

// refGrader is the flat reference grader: every bucket graded on its own,
// bounds looked up by column name, none of the run machinery. The
// run-level Grader must agree with it bucket for bucket.
type refGrader struct {
	mins, maxs, counts map[string]*SMA
}

func newRefGrader(smas ...*SMA) *refGrader {
	g := &refGrader{mins: map[string]*SMA{}, maxs: map[string]*SMA{}, counts: map[string]*SMA{}}
	for _, s := range smas {
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

func (g *refGrader) minOf(col string, b int) bound {
	if s := g.mins[col]; s != nil && b < s.NumBuckets {
		if v, ok := s.BucketMin(b); ok {
			return bound{v, true}
		}
	}
	return bound{}
}

func (g *refGrader) maxOf(col string, b int) bound {
	if s := g.maxs[col]; s != nil && b < s.NumBuckets {
		if v, ok := s.BucketMax(b); ok {
			return bound{v, true}
		}
	}
	return bound{}
}

func (g *refGrader) grade(b int, p pred.Predicate) Grade {
	switch q := p.(type) {
	case *pred.Atom:
		var out Grade
		if q.RightCol != "" {
			out = gradeColCol(g.minOf(q.Col, b), g.maxOf(q.Col, b), g.minOf(q.RightCol, b), g.maxOf(q.RightCol, b), q.Op)
		} else {
			out = gradeConst(g.minOf(q.Col, b), g.maxOf(q.Col, b), q.Op, q.Value)
		}
		if out == Ambivalent && q.RightCol == "" && g.counts[q.Col] != nil {
			return refByValueCounts(g.counts[q.Col], b, q.Op, q.Value)
		}
		return out
	case *pred.And:
		out := Qualifies
		for _, k := range q.Kids {
			out = out.and(g.grade(b, k))
		}
		return out
	case *pred.Or:
		out := Disqualifies
		for _, k := range q.Kids {
			out = out.or(g.grade(b, k))
		}
		return out
	case *pred.Not:
		return g.grade(b, q.Kid).not()
	case pred.True, *pred.True:
		return Qualifies
	default:
		return Ambivalent
	}
}

// refByValueCounts grades bucket b by the values a count-group-by-col SMA
// records as occurring in it.
func refByValueCounts(s *SMA, b int, op pred.CmpOp, c float64) Grade {
	if b >= s.NumBuckets {
		return Ambivalent
	}
	seen, sat, unsat := false, false, false
	for _, key := range s.GroupKeys() {
		gf := s.Group(key)
		if v, ok := gf.ValueAt(b); !ok || v <= 0 {
			continue
		}
		x, ok := gf.Vals[0].Numeric()
		if !ok {
			return Ambivalent
		}
		seen = true
		if op.Compare(x, c) {
			sat = true
		} else {
			unsat = true
		}
	}
	switch {
	case !seen:
		return Disqualifies
	case sat && unsat:
		return Ambivalent
	case sat:
		return Qualifies
	default:
		return Disqualifies
	}
}

// runSchema has two numeric columns, a one-character group column and
// padding for 4 records per page, so a few hundred rows give a few
// hundred single-page buckets.
func runSchema() *tuple.Schema {
	const usable = storage.PageSize - 16
	return tuple.MustSchema([]tuple.Column{
		{Name: "A", Type: tuple.TFloat64},
		{Name: "B", Type: tuple.TFloat64},
		{Name: "G", Type: tuple.TChar, Len: 1},
		{Name: "PAD", Type: tuple.TChar, Len: usable/4 - 17},
	})
}

// runDefs are the SMAs the differential grades with: ungrouped min/max on
// A, min/max on B grouped by G, per-value counts of G and a sum that
// grading must ignore.
func runDefs() []Def {
	return []Def{
		NewDef("mna", "T", Min, expr.NewCol("A")),
		NewDef("mxa", "T", Max, expr.NewCol("A")),
		NewDef("gmnb", "T", Min, expr.NewCol("B"), "G"),
		NewDef("gmxb", "T", Max, expr.NewCol("B"), "G"),
		NewDef("cntg", "T", Count, nil, "G"),
		NewDef("suma", "T", Sum, expr.NewCol("A"), "G"),
	}
}

// runRelation is a heap with its SMAs and the rows it holds.
type runRelation struct {
	h    *storage.HeapFile
	smas []*SMA
	rids []storage.RID // live rows
	rng  *rand.Rand
}

// rowValues generates row i of n under layout: A sorted, sorted in
// plateaus wider than a run, diagonal (every bucket spans the range),
// diagonal with constant buckets, or shuffled; B near A; G from three values, one of them rare so it is
// absent from most buckets.
func rowValues(rng *rand.Rand, layout string, i, n int) (a, b float64, g string) {
	switch layout {
	case "sorted":
		a = float64(i / 6)
	case "plateau":
		a = float64(i / 600)
	case "diagonal":
		a = float64((i*37)%101) + float64(i/400)
	case "spiky": // diagonal, with every ninth bucket constant at 50
		a = float64((i*37)%101) + float64(i/400)
		if (i/4)%9 == 0 {
			a = 50
		}
	default:
		a = float64(rng.Intn(n/6 + 1))
	}
	b = a + float64(rng.Intn(5)-2)
	g = []string{"A", "N", "R"}[rng.Intn(2)]
	if rng.Intn(50) == 0 {
		g = "R"
	}
	return a, b, g
}

func newRunRelation(t testing.TB, seed int64, layout string, buckets int) *runRelation {
	t.Helper()
	rel := &runRelation{
		h:   testutil.NewHeap(t, runSchema(), 1, 64),
		rng: rand.New(rand.NewSource(seed)),
	}
	n := buckets * rel.h.RecordsPerPage()
	tp := tuple.NewTuple(rel.h.Schema())
	for i := 0; i < n; i++ {
		a, b, g := rowValues(rel.rng, layout, i, n)
		tp.SetFloat64(0, a)
		tp.SetFloat64(1, b)
		tp.SetChar(2, g)
		rid, err := rel.h.Append(tp)
		if err != nil {
			t.Fatal(err)
		}
		rel.rids = append(rel.rids, rid)
	}
	if got := rel.h.NumBuckets(); got != buckets {
		t.Fatalf("%d buckets, want %d", got, buckets)
	}
	for _, def := range runDefs() {
		s, err := Build(rel.h, def)
		if err != nil {
			t.Fatal(err)
		}
		rel.smas = append(rel.smas, s)
	}
	return rel
}

// randomPred builds a random predicate tree over every atom form the
// grader knows: constants on A and B (drawn from the data so equalities
// hit), col-col atoms, per-value atoms on G, an atom no SMA covers, TRUE,
// and And/Or/Not combinations.
func randomPred(rng *rand.Rand, hiA float64, depth int) pred.Predicate {
	ops := []pred.CmpOp{pred.Eq, pred.Ne, pred.Lt, pred.Le, pred.Gt, pred.Ge}
	op := ops[rng.Intn(len(ops))]
	c := float64(rng.Intn(int(hiA)+3) - 1)
	switch rng.Intn(4) {
	case 0:
		c += 0.5
	case 1:
		c = 50 // the value of the spiky layout's constant buckets
	}
	if depth > 0 && rng.Intn(3) != 0 {
		kids := make([]pred.Predicate, 1+rng.Intn(3))
		for i := range kids {
			kids[i] = randomPred(rng, hiA, depth-1)
		}
		switch rng.Intn(3) {
		case 0:
			return pred.NewAnd(kids...)
		case 1:
			return pred.NewOr(kids...)
		default:
			return pred.NewNot(kids[0])
		}
	}
	switch rng.Intn(8) {
	case 0, 1, 2:
		return pred.NewAtom("A", op, c)
	case 3:
		return pred.NewAtom("B", op, c)
	case 4:
		return pred.NewColAtom("A", op, "B")
	case 5:
		return pred.NewAtom("G", op, pred.CharConst("ANR"[rng.Intn(3)]))
	case 6:
		return pred.NewAtom("Z", op, c)
	default:
		return pred.True{}
	}
}

// checkAgainstFlat grades random predicates with the run-level grader over
// every SMA and over each SMA alone, and compares each bucket's grade, and
// the tally, with the flat reference.
func checkAgainstFlat(t *testing.T, rel *runRelation, preds int) {
	t.Helper()
	hiA := 0.0
	if len(rel.smas[1].order) > 0 {
		for b := 0; b < rel.smas[1].NumBuckets; b++ {
			if v, ok := rel.smas[1].BucketMax(b); ok && v > hiA {
				hiA = v
			}
		}
	}
	sets := [][]*SMA{rel.smas}
	for _, s := range rel.smas {
		sets = append(sets, []*SMA{s})
	}
	for i := 0; i < preds; i++ {
		p := randomPred(rel.rng, hiA, 3)
		for _, set := range sets {
			g, ref := NewGrader(set...), newRefGrader(set...)
			grades, st := g.GradeRuns(p)
			if len(grades) != g.NumBuckets() {
				t.Fatalf("%s: %d grades for %d buckets", p, len(grades), g.NumBuckets())
			}
			if st.RunsDecided*RunLen+st.BucketsRead < len(grades) || st.BucketsRead > len(grades) {
				t.Fatalf("%s: inconsistent run stats %+v for %d buckets", p, st, len(grades))
			}
			flat := make([]Grade, len(grades))
			for b, got := range grades {
				flat[b] = ref.grade(b, p)
				if got != flat[b] {
					t.Fatalf("%s over %d SMAs, bucket %d (run %d): run-level %s, flat %s",
						p, len(set), b, b/RunLen, got, flat[b])
				}
				if one := g.Grade(b, p); one != flat[b] {
					t.Fatalf("%s over %d SMAs, bucket %d: Grade %s, flat %s", p, len(set), b, one, flat[b])
				}
			}
			if got, want := g.Tally(p), CountGrades(flat); got != want {
				t.Fatalf("%s over %d SMAs: Tally %+v, flat %+v", p, len(set), got, want)
			}
		}
	}
}

// TestRunGradingDifferential: on sorted, plateau, diagonal and shuffled
// data, at relation sizes around the run length, the run-level grader
// equals the flat reference for random predicate trees.
func TestRunGradingDifferential(t *testing.T) {
	for _, layout := range []string{"sorted", "plateau", "diagonal", "spiky", "shuffled"} {
		for i, buckets := range []int{0, 1, 63, 64, 65, 200} {
			t.Run(fmt.Sprintf("%s/%d", layout, buckets), func(t *testing.T) {
				rel := newRunRelation(t, int64(100*i+len(layout)), layout, buckets)
				checkAgainstFlat(t, rel, 60)
			})
		}
	}
}

// TestRunGradingAfterMaintenance runs the differential again after random
// appends, updates, deletes and bucket recomputations — leaving holes,
// emptied buckets and groups that died out — and after a Save/Load round
// trip. Verify checks every entry and run summary along the way.
func TestRunGradingAfterMaintenance(t *testing.T) {
	for _, layout := range []string{"sorted", "diagonal", "spiky", "shuffled"} {
		for i, buckets := range []int{1, 64, 130} {
			t.Run(fmt.Sprintf("%s/%d", layout, buckets), func(t *testing.T) {
				rel := newRunRelation(t, int64(7*i+len(layout)), layout, buckets)
				rel.maintain(t, 400)
				rel.verify(t, "after maintenance")
				checkAgainstFlat(t, rel, 40)

				dir := t.TempDir()
				for j, s := range rel.smas {
					if err := s.Save(dir); err != nil {
						t.Fatal(err)
					}
					loaded, err := Load(dir, s.Def, rel.h.Schema())
					if err != nil {
						t.Fatal(err)
					}
					for _, key := range s.order {
						og, lg := s.groups[key], loaded.groups[key]
						for k, o := range og.runs {
							l := lg.runs[k]
							if !almostEqual(l.lo, o.lo) || !almostEqual(l.hi, o.hi) || !almostEqual(l.sum, o.sum) {
								t.Fatalf("%s run %d: loaded %+v, maintained %+v", s.Def.Name, k, l, o)
							}
						}
					}
					rel.smas[j] = loaded
				}
				rel.verify(t, "after Save/Load")
				checkAgainstFlat(t, rel, 40)
			})
		}
	}
}

// maintain applies ops random maintenance operations to the relation and
// every SMA.
func (rel *runRelation) maintain(t *testing.T, ops int) {
	t.Helper()
	tp := tuple.NewTuple(rel.h.Schema())
	for i := 0; i < ops; i++ {
		switch k := rel.rng.Intn(10); {
		case k < 4: // append at the tail, sometimes opening a new run
			a, b, g := rowValues(rel.rng, "shuffled", i, 600)
			tp.SetFloat64(0, a)
			tp.SetFloat64(1, b)
			tp.SetChar(2, g)
			rid, err := rel.h.Append(tp)
			if err != nil {
				t.Fatal(err)
			}
			rel.rids = append(rel.rids, rid)
			for _, s := range rel.smas {
				if err := s.OnAppend(rel.h, tp, rid); err != nil {
					t.Fatal(err)
				}
			}
		case k < 7 && len(rel.rids) > 0: // update in place
			rid := rel.rids[rel.rng.Intn(len(rel.rids))]
			old, err := rel.h.Get(rid)
			if err != nil {
				t.Fatal(err)
			}
			nw := old.Copy()
			nw.SetFloat64(0, old.Float64(0)+float64(rel.rng.Intn(21)-10))
			nw.SetFloat64(1, float64(rel.rng.Intn(120)))
			nw.SetChar(2, "ANR"[rel.rng.Intn(3):][:1])
			if err := rel.h.Update(rid, nw); err != nil {
				t.Fatal(err)
			}
			for _, s := range rel.smas {
				if err := s.OnUpdate(rel.h, old, nw, rid); err != nil {
					t.Fatal(err)
				}
			}
		case k < 9 && len(rel.rids) > 0: // delete, in runs of neighbours to empty buckets
			j := rel.rng.Intn(len(rel.rids))
			for n := 1 + rel.rng.Intn(6); n > 0 && j < len(rel.rids); n-- {
				rid := rel.rids[j]
				old, err := rel.h.Delete(rid)
				if err != nil {
					t.Fatal(err)
				}
				rel.rids = append(rel.rids[:j], rel.rids[j+1:]...)
				for _, s := range rel.smas {
					if err := s.OnDelete(rel.h, old, rid); err != nil {
						t.Fatal(err)
					}
				}
			}
		default:
			if nb := rel.h.NumBuckets(); nb > 0 {
				b := rel.rng.Intn(nb)
				for _, s := range rel.smas {
					if err := s.RecomputeBucket(rel.h, b); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
	}
}

func (rel *runRelation) verify(t *testing.T, when string) {
	t.Helper()
	for _, s := range rel.smas {
		if err := s.Verify(rel.h); err != nil {
			t.Fatalf("%s: %v", when, err)
		}
	}
}

// buildMinMax loads n values into a single-float relation (16 per page,
// so n/16 buckets) mildly clustered so that some runs decide whole, and
// builds the min/max SMA pair.
func buildMinMax(t testing.TB, seed int64, n int) (*storage.HeapFile, *SMA, *SMA) {
	t.Helper()
	h := testutil.NewHeap(t, testutil.PaddedFloatSchema(t, 16), 1, 64)
	rng := rand.New(rand.NewSource(seed))
	tpl := tuple.NewTuple(h.Schema())
	for i := 0; i < n; i++ {
		tpl.SetFloat64(0, float64(i)+rng.Float64()*50)
		if _, err := h.Append(tpl); err != nil {
			t.Fatal(err)
		}
	}
	var smas []*SMA
	for _, def := range []Def{NewDef("mn", "T", Min, expr.NewCol("A")), NewDef("mx", "T", Max, expr.NewCol("A"))} {
		s, err := Build(h, def)
		if err != nil {
			t.Fatal(err)
		}
		smas = append(smas, s)
	}
	return h, smas[0], smas[1]
}

// TestTwoLevelEquivalence: grading through the run summaries (the second
// level) agrees with flat grading on every bucket for every operator.
func TestTwoLevelEquivalence(t *testing.T) {
	_, mn, mx := buildMinMax(t, 11, 5000)
	g, ref := NewGrader(mn, mx), newRefGrader(mn, mx)
	for _, op := range []pred.CmpOp{pred.Eq, pred.Ne, pred.Lt, pred.Le, pred.Gt, pred.Ge} {
		for _, c := range []float64{-10, 100, 2500, 6000} {
			atom := pred.NewAtom("A", op, c)
			grades, st := g.GradeRuns(atom)
			for b, got := range grades {
				if want := ref.grade(b, atom); got != want {
					t.Fatalf("A %s %g bucket %d: two-level %s, flat %s", op, c, b, got, want)
				}
			}
			if st.BucketsRead > len(grades) {
				t.Fatalf("stats inconsistent: %+v", st)
			}
		}
	}
}

// TestTwoLevelSavesL1 on clustered data: a selective cutoff decides most
// runs from their summaries, so most level-1 entries are never read.
func TestTwoLevelSavesL1(t *testing.T) {
	_, mn, mx := buildMinMax(t, 5, 16*RunLen*8)
	_, st := NewGrader(mn, mx).GradeRuns(pred.NewAtom("A", pred.Le, 2000))
	if st.BucketsRead*2 > mn.NumBuckets {
		t.Errorf("read %d of %d level-1 entries; expected at least 50%% savings on clustered data",
			st.BucketsRead, mn.NumBuckets)
	}
	if st.RunsDecided == 0 {
		t.Errorf("no run decided from its summary")
	}
}

// TestTwoLevelValidation: Verify recomputes every run summary, so a
// summary that disagrees with its entries is reported even when every
// entry is right.
func TestTwoLevelValidation(t *testing.T) {
	h, mn, mx := buildMinMax(t, 7, 16*RunLen*2)
	for _, s := range []*SMA{mn, mx} {
		if err := s.Verify(h); err != nil {
			t.Fatalf("fresh %s: %v", s.Def.Name, err)
		}
		gf := s.groups[""]
		saved := gf.runs[1]
		gf.runs[1].lo--
		if err := s.Verify(h); err == nil {
			t.Errorf("%s: stale run summary not reported", s.Def.Name)
		}
		gf.runs[1] = saved
		gf.runs = gf.runs[:1]
		if err := s.Verify(h); err == nil {
			t.Errorf("%s: missing run summary not reported", s.Def.Name)
		}
	}
}

// TestTwoLevelOtherColumnAmbivalent: atoms on a column no SMA covers grade
// everything ambivalent, run by run, without reading a level-1 entry.
func TestTwoLevelOtherColumnAmbivalent(t *testing.T) {
	_, mn, mx := buildMinMax(t, 7, 200*16)
	grades, st := NewGrader(mn, mx).GradeRuns(pred.NewAtom("OTHER", pred.Le, 1))
	for b, g := range grades {
		if g != Ambivalent {
			t.Fatalf("bucket %d: %s, want ambivalent", b, g)
		}
	}
	if st.RunsDecided != st.Runs || st.BucketsRead != 0 {
		t.Errorf("run stats %+v, want every run decided whole", st)
	}
}

// TestQuickTwoLevelEquivalence: random data and cutoffs.
func TestQuickTwoLevelEquivalence(t *testing.T) {
	f := func(seed int64, cut float64) bool {
		if math.IsNaN(cut) {
			return true
		}
		_, mn, mx := buildMinMax(t, seed, 3000)
		atom := pred.NewAtom("A", pred.Le, math.Mod(cut, 4000))
		ref := newRefGrader(mn, mx)
		for b, got := range NewGrader(mn, mx).GradeAll(atom) {
			if got != ref.grade(b, atom) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}
