package experiments

import (
	"fmt"
	"strings"
	"time"

	"sma/internal/storage"
	"sma/internal/tpcd"
)

// Fig5Point is one x-position of Figure 5: the fraction of buckets that
// must be investigated, with the runtime of both plans.
type Fig5Point struct {
	Frac      float64
	NoSMA     time.Duration
	WithSMA   time.Duration
	NoSMAPage int64
	SMAPage   int64
	// ModelNoSMA and ModelSMA are the hardware-independent page costs under
	// the planner's cost model (sequential page = 1, random page = 4): a
	// full sequential scan vs SMA-file pages plus random ambivalent-bucket
	// fetches. The modeled curves cross at the paper's ≈25% regardless of
	// the machine.
	ModelNoSMA float64
	ModelSMA   float64
}

// E5Result is the Figure 5 sweep.
type E5Result struct {
	SF     float64
	Delta  int
	Points []Fig5Point
	// Breakeven is the interpolated ambivalent fraction where the measured
	// SMA runtime stops paying off (paper: ≈25%). 1 means the curves did
	// not cross inside the measured range.
	Breakeven float64
	// ModelBreakeven is the crossing of the modeled page-cost curves.
	ModelBreakeven float64
	// MisuseOverheadPct is the measured extra cost of erroneously using
	// SMAs when every bucket must be investigated (paper: <2%).
	MisuseOverheadPct float64
	// ModelMisusePct is the modeled overhead: SMA pages on top of a full
	// sequential scan.
	ModelMisusePct float64
}

// RunE5 sweeps the fraction of ambivalent buckets and measures both plans.
// Each point uses a fresh environment with AmbivalentFrac planted into
// otherwise shipdate-sorted data.
func RunE5(base Config, deltaDays int, fracs []float64) (E5Result, error) {
	base = base.withDefaults()
	r := E5Result{SF: base.SF, Delta: deltaDays}
	for _, f := range fracs {
		cfg := base
		cfg.Order = tpcd.OrderSorted
		cfg.AmbivalentFrac = f
		e, err := NewEnv(cfg)
		if err != nil {
			return r, err
		}
		pt, err := measureFig5Point(e, deltaDays, f)
		e.Close()
		if err != nil {
			return r, err
		}
		r.Points = append(r.Points, pt)
	}
	r.Breakeven = interpolateBreakeven(r.Points, func(p Fig5Point) (float64, float64) {
		return float64(p.WithSMA), float64(p.NoSMA)
	})
	r.ModelBreakeven = interpolateBreakeven(r.Points, func(p Fig5Point) (float64, float64) {
		return p.ModelSMA, p.ModelNoSMA
	})
	r.MisuseOverheadPct, r.ModelMisusePct = misuseOverhead(base, deltaDays)
	return r, nil
}

// measureFig5Point runs both plans cold (the no-SMA curve is flat by
// construction: the relation never fits the pool). The SMA run is warm in
// the paper's sense — SMA vectors in memory — while ambivalent buckets
// still hit the disk, which is exactly the regime Figure 5 plots.
func measureFig5Point(e *Env, deltaDays int, f float64) (Fig5Point, error) {
	pt := Fig5Point{Frac: f}
	if err := e.GoCold(); err != nil {
		return pt, err
	}
	start := time.Now()
	if _, err := e.RunQ1Baseline(deltaDays); err != nil {
		return pt, err
	}
	pt.NoSMA = time.Since(start)
	pt.NoSMAPage, _ = e.Disk().Stats()

	if err := e.GoCold(); err != nil {
		return pt, err
	}
	start = time.Now()
	_, stats, err := e.RunQ1SMA(deltaDays)
	if err != nil {
		return pt, err
	}
	pt.WithSMA = time.Since(start)
	pt.SMAPage, _ = e.Disk().Stats()

	counts := e.Grader().Tally(Q1Pred(deltaDays))
	_ = stats
	pt.ModelNoSMA = float64(pt.NoSMAPage)
	pt.ModelSMA = float64(e.SMAPages()) + 4*float64(counts.Ambivalent*e.Cfg.BucketPages)
	return pt, nil
}

// interpolateBreakeven finds the first crossing of the two curves.
func interpolateBreakeven(pts []Fig5Point, get func(Fig5Point) (sma, scan float64)) float64 {
	for i := 1; i < len(pts); i++ {
		s0, n0 := get(pts[i-1])
		s1, n1 := get(pts[i])
		d0, d1 := s0-n0, s1-n1
		if d0 <= 0 && d1 > 0 {
			t := -d0 / (d1 - d0)
			return pts[i-1].Frac + t*(pts[i].Frac-pts[i-1].Frac)
		}
	}
	if len(pts) > 0 {
		s, n := get(pts[len(pts)-1])
		if s <= n {
			return 1 // never crossed: SMAs always won in the measured range
		}
	}
	return 0
}

// misuseOverhead measures the paper's claim that even a wrong SMA decision
// costs < 2%: with every bucket ambivalent, compare the SMA plan against a
// plain scan, in wall time and in modeled pages.
func misuseOverhead(base Config, deltaDays int) (measuredPct, modelPct float64) {
	cfg := base
	cfg.Order = tpcd.OrderShuffled
	e, err := NewEnv(cfg)
	if err != nil {
		return -1, -1
	}
	defer e.Close()
	// A mid-domain cutoff over shuffled data makes essentially every
	// bucket ambivalent: the erroneous-application scenario, in which the
	// SMA plan degenerates to the sequential scan plus the SMA-file reads.
	deltaDays = 1265 // cutoff ≈ 1995-06-15, the middle of the date domain
	if err := e.GoCold(); err != nil {
		return -1, -1
	}
	start := time.Now()
	if _, err := e.RunQ1Baseline(deltaDays); err != nil {
		return -1, -1
	}
	scan := time.Since(start)
	scanPages, _ := e.Disk().Stats()
	if err := e.GoCold(); err != nil {
		return -1, -1
	}
	start = time.Now()
	if e.Cfg.ReadLatency > 0 {
		storage.SimulateLatency(time.Duration(e.SMAPages()) * e.Cfg.ReadLatency)
	}
	if _, _, err := e.RunQ1SMA(deltaDays); err != nil {
		return -1, -1
	}
	sma := time.Since(start)
	measuredPct = 100 * (float64(sma) - float64(scan)) / float64(scan)
	modelPct = 100 * float64(e.SMAPages()) / float64(scanPages)
	return measuredPct, modelPct
}

// Render prints the Figure 5 series and derived quantities.
func (r E5Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "E5 — Figure 5: runtime vs fraction of buckets to be investigated (SF %.3g)\n", r.SF)
	fmt.Fprintf(&b, "  %8s %12s %12s %12s %12s %12s %12s\n",
		"frac", "no-SMA", "with SMA", "scan pages", "sma pages", "model scan", "model sma")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "  %8.2f %12s %12s %12d %12d %12.0f %12.0f\n",
			p.Frac, p.NoSMA.Round(time.Millisecond), p.WithSMA.Round(time.Millisecond),
			p.NoSMAPage, p.SMAPage, p.ModelNoSMA, p.ModelSMA)
	}
	render := func(label string, v float64, paper string) {
		if v >= 1 {
			fmt.Fprintf(&b, "  %s: not reached in measured range (SMA plan always cheaper)\n", label)
		} else {
			fmt.Fprintf(&b, "  %s at %.0f%% ambivalent buckets (paper: %s)\n", label, 100*v, paper)
		}
	}
	render("measured breakeven", r.Breakeven, "≈25%")
	render("modeled breakeven (4:1 random:sequential)", r.ModelBreakeven, "≈25%")
	fmt.Fprintf(&b, "  misuse overhead (all buckets ambivalent): measured %.1f%%, modeled %.1f%% (paper: <2%%)\n",
		r.MisuseOverheadPct, r.ModelMisusePct)
	return b.String()
}
