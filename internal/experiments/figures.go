package experiments

import (
	"fmt"
	"strings"

	"sma/internal/core"
	"sma/internal/exec"
	"sma/internal/expr"
	"sma/internal/pred"
	"sma/internal/storage"
	"sma/internal/tpcd"
	"sma/internal/tuple"
)

// --- E6: the Figure 1 worked example ---------------------------------------

// RunE6 rebuilds the paper's Figure 1 (three buckets of three shipdates with
// min/max/count SMA-files) in a scratch directory and walks through the §2.2
// count query, returning the rendered walkthrough.
func RunE6(dir string) (string, error) {
	schema := tuple.MustSchema([]tuple.Column{
		{Name: "L_SHIPDATE", Type: tuple.TDate},
		{Name: "PAD", Type: tuple.TChar, Len: 1356}, // 3 records per 4K page
	})
	dm, err := storage.OpenDiskManager(dir + "/fig1.tbl")
	if err != nil {
		return "", err
	}
	defer dm.Close()
	pool := storage.NewBufferPool(dm, 16)
	h, err := storage.NewHeapFile(pool, schema, 1)
	if err != nil {
		return "", err
	}
	dates := []string{
		"1997-03-11", "1997-04-22", "1997-02-02",
		"1997-04-01", "1997-05-07", "1997-04-28",
		"1997-05-02", "1997-05-20", "1997-06-03",
	}
	t := tuple.NewTuple(schema)
	for _, d := range dates {
		t.SetInt32(0, tuple.MustParseDate(d))
		t.SetChar(1, "")
		if _, err := h.Append(t); err != nil {
			return "", err
		}
	}
	mn, err := core.Build(h, core.NewDef("min", "L", core.Min, expr.NewCol("L_SHIPDATE")))
	if err != nil {
		return "", err
	}
	mx, err := core.Build(h, core.NewDef("max", "L", core.Max, expr.NewCol("L_SHIPDATE")))
	if err != nil {
		return "", err
	}
	cnt, err := core.Build(h, core.NewDef("count", "L", core.Count, nil))
	if err != nil {
		return "", err
	}

	var b strings.Builder
	fmt.Fprintf(&b, "E6 — Figure 1: buckets and SMA-files\n")
	row := func(label string, get func(b int) string) {
		fmt.Fprintf(&b, "  %-18s", label)
		for i := 0; i < h.NumBuckets(); i++ {
			fmt.Fprintf(&b, "  %10s", get(i))
		}
		b.WriteByte('\n')
	}
	row("SMA-file 1: min", func(i int) string {
		v, _ := mn.BucketMin(i)
		return tuple.FormatDate(int32(v))[2:]
	})
	row("SMA-file 2: max", func(i int) string {
		v, _ := mx.BucketMax(i)
		return tuple.FormatDate(int32(v))[2:]
	})
	row("SMA-file 3: count", func(i int) string {
		v, _ := cnt.Group("").ValueAt(i)
		return fmt.Sprintf("%.0f", v)
	})

	p := pred.NewAtom("L_SHIPDATE", pred.Lt, float64(tuple.MustParseDate("1997-04-30")))
	g := core.NewGrader(mn, mx)
	fmt.Fprintf(&b, "  query: select count(*) where L_SHIPDATE < 97-04-30\n")
	for i := 0; i < h.NumBuckets(); i++ {
		fmt.Fprintf(&b, "  bucket %d: %s\n", i+1, g.Grade(i, p))
	}
	agg := exec.NewSMAGAggr(h, p, []exec.AggSpec{{Func: exec.AggCount, Name: "N"}}, nil,
		g, []*core.SMA{cnt}, cnt)
	rows, err := exec.CollectRows(agg)
	if err != nil {
		return "", err
	}
	fmt.Fprintf(&b, "  count(*) = %.0f (bucket 1 from the count SMA, bucket 2 inspected, bucket 3 skipped)\n",
		rows[0].Aggs[0])
	return b.String(), nil
}

// --- E7: Figure 2, diagonal data distribution -------------------------------

// E7Row summarizes the clustering quality of one physical ordering.
type E7Row struct {
	Order tpcd.Order
	// AmbivalentPct is the fraction of buckets ambivalent for the Query-1
	// predicate at delta 90.
	AmbivalentPct float64
	// MeanSpanDays is the mean per-bucket shipdate span (max-min); small
	// spans mean strong clustering.
	MeanSpanDays float64
}

// E7Result compares the orderings and carries an ASCII rendering of the
// diagonal scatter (insertion order vs shipdate, Fig. 2).
type E7Result struct {
	SF      float64
	Rows    []E7Row
	Scatter string
}

// RunE7 measures clustering per ordering and draws the diagonal.
func RunE7(base Config) (E7Result, error) {
	base = base.withDefaults()
	r := E7Result{SF: base.SF}
	for _, o := range []tpcd.Order{tpcd.OrderSorted, tpcd.OrderDiagonal, tpcd.OrderSpec, tpcd.OrderShuffled} {
		cfg := base
		cfg.Order = o
		e, err := NewEnv(cfg)
		if err != nil {
			return r, err
		}
		counts := e.Grader().Tally(Q1Pred(90))
		span, err := meanBucketSpan(e)
		if err != nil {
			e.Close()
			return r, err
		}
		r.Rows = append(r.Rows, E7Row{
			Order:         o,
			AmbivalentPct: 100 * counts.AmbivalentFrac(),
			MeanSpanDays:  span,
		})
		if o == tpcd.OrderDiagonal {
			r.Scatter = renderScatter(e)
		}
		e.Close()
	}
	return r, nil
}

// meanBucketSpan averages (max-min) shipdate per bucket, in days.
func meanBucketSpan(e *Env) (float64, error) {
	mn, mx := e.SMAs["min"], e.SMAs["max"]
	total, n := 0.0, 0
	for b := 0; b < mn.NumBuckets; b++ {
		lo, ok1 := mn.BucketMin(b)
		hi, ok2 := mx.BucketMax(b)
		if ok1 && ok2 {
			total += hi - lo
			n++
		}
	}
	if n == 0 {
		return 0, nil
	}
	return total / float64(n), nil
}

// renderScatter draws Fig. 2: x = date of introduction into the warehouse
// (bucket number as a proxy), y = shipdate.
func renderScatter(e *Env) string {
	const w, hgt = 64, 16
	grid := make([][]byte, hgt)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", w))
	}
	mn, mx := e.SMAs["min"], e.SMAs["max"]
	nb := mn.NumBuckets
	lo, hi := float64(tpcd.StartDate), float64(tpcd.EndDate)
	plot := func(b int, v float64) {
		x := b * (w - 1) / max(nb-1, 1)
		y := int((v - lo) / (hi - lo) * float64(hgt-1))
		if y < 0 {
			y = 0
		}
		if y >= hgt {
			y = hgt - 1
		}
		grid[hgt-1-y][x] = 'x'
	}
	for b := 0; b < nb; b++ {
		if v, ok := mn.BucketMin(b); ok {
			plot(b, v)
		}
		if v, ok := mx.BucketMax(b); ok {
			plot(b, v)
		}
	}
	var sb strings.Builder
	sb.WriteString("  shipdate ↑ / insertion order →\n")
	for _, row := range grid {
		sb.WriteString("  |")
		sb.Write(row)
		sb.WriteByte('\n')
	}
	sb.WriteString("  +" + strings.Repeat("-", w) + "\n")
	return sb.String()
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Render prints the clustering comparison and the scatter.
func (r E7Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "E7 — Figure 2: implicit (diagonal) clustering (SF %.3g)\n", r.SF)
	fmt.Fprintf(&b, "  %-10s %16s %16s\n", "order", "ambivalent %", "mean span (days)")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %-10s %15.1f%% %16.1f\n", row.Order, row.AmbivalentPct, row.MeanSpanDays)
	}
	b.WriteString(r.Scatter)
	return b.String()
}
