package main

// The pr4 experiment measures the batched engine with SMA-guided
// asynchronous prefetch: it runs the TPC-D Query-1 benchmarks across all
// three plan shapes (full scan, SMA_GAggr, and SMA_Scan at a
// Fig.-5-style partial-ambivalence selectivity) and writes a JSON
// trajectory file that later runs can regress against.
//
// Warm scenarios measure pure CPU; cold scenarios drop the buffer pool
// each run and simulate a 1ms-page disk (the time.Sleep regime, so
// prefetch genuinely overlaps I/O even on one core).

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"sma/internal/engine"
	"sma/internal/exec"
	"sma/internal/experiments"
	"sma/internal/tpcd"
	"sma/internal/tuple"
)

// pr4Result is one scenario's measurement.
type pr4Result struct {
	Scenario     string  `json:"scenario"`
	Strategy     string  `json:"strategy"`
	NsPerOp      int64   `json:"ns_per_op"`
	PagesRead    int     `json:"pages_read"`
	Batches      int     `json:"batches"`
	Prefetched   int     `json:"prefetch_pages"`
	PrefetchHits int     `json:"prefetch_hits"`
	Rows         int     `json:"rows"`
	Checksum     float64 `json:"checksum"`
}

// pr4File is the on-disk trajectory format.
type pr4File struct {
	PR                int         `json:"pr"`
	SF                float64     `json:"sf"`
	ColdReadLatencyMs float64     `json:"cold_read_latency_ms"`
	Results           []pr4Result `json:"results"`
}

// pr4Queries are the measured statements per scenario; delta mirrors the
// paper's Query 1 parameter.
func pr4Queries(delta int) map[string]string {
	cutoff := tuple.FormatDate(tpcd.EndDate - int32(delta))
	early := tuple.FormatDate(tpcd.StartDate + (tpcd.EndDate-tpcd.StartDate)/10)
	return map[string]string{
		// Full scan + hash aggregation: SUM(L_QUANTITY*L_DISCOUNT) matches
		// no SMA, so the planner must read every page.
		"q1_fullscan": `SELECT L_RETURNFLAG, L_LINESTATUS,
			SUM(L_QUANTITY) AS SUM_QTY,
			SUM(L_EXTENDEDPRICE) AS SUM_BASE_PRICE,
			SUM(L_EXTENDEDPRICE*(1-L_DISCOUNT)) AS SUM_DISC_PRICE,
			SUM(L_EXTENDEDPRICE*(1-L_DISCOUNT)*(1+L_TAX)) AS SUM_CHARGE,
			SUM(L_QUANTITY*L_DISCOUNT) AS SUM_QD,
			AVG(L_QUANTITY) AS AVG_QTY, AVG(L_EXTENDEDPRICE) AS AVG_PRICE,
			AVG(L_DISCOUNT) AS AVG_DISC, COUNT(*) AS COUNT_ORDER
			FROM LINEITEM GROUP BY L_RETURNFLAG, L_LINESTATUS
			ORDER BY L_RETURNFLAG, L_LINESTATUS`,
		// The paper's Query 1: covered by the eight SMAs → SMA_GAggr.
		"q1_sma": fmt.Sprintf(`SELECT L_RETURNFLAG, L_LINESTATUS,
			SUM(L_QUANTITY) AS SUM_QTY,
			SUM(L_EXTENDEDPRICE) AS SUM_BASE_PRICE,
			SUM(L_EXTENDEDPRICE*(1-L_DISCOUNT)) AS SUM_DISC_PRICE,
			SUM(L_EXTENDEDPRICE*(1-L_DISCOUNT)*(1+L_TAX)) AS SUM_CHARGE,
			AVG(L_QUANTITY) AS AVG_QTY, AVG(L_EXTENDEDPRICE) AS AVG_PRICE,
			AVG(L_DISCOUNT) AS AVG_DISC, COUNT(*) AS COUNT_ORDER
			FROM LINEITEM WHERE L_SHIPDATE <= DATE '%s'
			GROUP BY L_RETURNFLAG, L_LINESTATUS
			ORDER BY L_RETURNFLAG, L_LINESTATUS`, cutoff),
		// Aggregate not covered by any SMA over a selective predicate →
		// SMA_Scan feeding a hash aggregation.
		"q1_smascan": fmt.Sprintf(`SELECT L_RETURNFLAG, MAX(L_EXTENDEDPRICE) AS M,
			COUNT(*) AS N FROM LINEITEM WHERE L_SHIPDATE <= DATE '%s'
			GROUP BY L_RETURNFLAG ORDER BY L_RETURNFLAG`, early),
	}
}

// runPR4 builds the dataset, measures every scenario, prints a table, and
// writes the JSON trajectory file.
func runPR4(sf float64, seed int64, delta int, out string) error {
	dir, err := os.MkdirTemp("", "sma-pr4-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	// Load LINEITEM once (shipdate-sorted, the paper's layout) and define
	// the eight Query-1 SMAs; every scenario reopens the same directory.
	if err := pr4Load(dir, sf, seed); err != nil {
		return err
	}

	const coldLatency = time.Millisecond
	queries := pr4Queries(delta)
	file := pr4File{PR: 4, SF: sf, ColdReadLatencyMs: coldLatency.Seconds() * 1e3}

	scenarios := []struct {
		name  string
		query string
		cold  bool
	}{
		{"q1_fullscan_warm_dop1", queries["q1_fullscan"], false},
		{"q1_fullscan_cold_disk_dop1", queries["q1_fullscan"], true},
		{"q1_sma_cold_disk_dop1", queries["q1_sma"], true},
		{"q1_smascan_cold_disk_dop1", queries["q1_smascan"], true},
	}
	for _, sc := range scenarios {
		var opts engine.Options
		if sc.cold {
			opts.ReadLatency = coldLatency
		} else {
			// A warm run must genuinely fit in the pool, or syscall
			// re-reads dilute the CPU-side measurement.
			opts.PoolPages = 16384
		}
		res, err := pr4Measure(dir, opts, sc.query, sc.cold)
		if err != nil {
			return fmt.Errorf("pr4 %s: %w", sc.name, err)
		}
		res.Scenario = sc.name
		file.Results = append(file.Results, res)
		fmt.Printf("%-28s %-14s %12.3fms  pages=%-5d prefetched=%-5d hits=%-5d\n",
			sc.name, res.Strategy,
			float64(res.NsPerOp)/1e6, res.PagesRead, res.Prefetched, res.PrefetchHits)
	}

	if out != "" {
		data, err := json.MarshalIndent(file, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", out)
	}
	return nil
}

// pr4Load creates the LINEITEM table and its Query-1 SMAs in dir.
func pr4Load(dir string, sf float64, seed int64) error {
	db, err := engine.Open(dir, engine.Options{})
	if err != nil {
		return err
	}
	defer closeOrWarn("database", db.Close)
	tbl, err := db.CreateTable("LINEITEM", tpcd.LineItemSchema().Columns())
	if err != nil {
		return err
	}
	items := tpcd.GenLineItems(tpcd.Config{ScaleFactor: sf, Seed: seed, Order: tpcd.OrderSorted})
	tp := tuple.NewTuple(tbl.Schema)
	for i := range items {
		items[i].FillTuple(tp)
		if _, err := tbl.Append(tp); err != nil {
			return err
		}
	}
	for _, def := range experiments.Q1SMADefs() {
		if _, err := db.DefineSMADef(def); err != nil {
			return err
		}
	}
	return nil
}

// pr4Measure reopens dir with opts and times the query at dop=1, best of
// three runs (warm) or the mean of three cold runs.
func pr4Measure(dir string, opts engine.Options, query string, cold bool) (pr4Result, error) {
	db, err := engine.Open(dir, opts)
	if err != nil {
		return pr4Result{}, err
	}
	defer closeOrWarn("database", db.Close)
	tbl, err := db.Table("LINEITEM")
	if err != nil {
		return pr4Result{}, err
	}

	run := func() (pr4Result, time.Duration, error) {
		var res pr4Result
		start := time.Now()
		cur, err := db.QueryContext(context.Background(), query, engine.WithDOP(1))
		if err != nil {
			return res, 0, err
		}
		for {
			vals, ok, err := cur.Next()
			if err != nil {
				_ = cur.Close() // Next's error is the one worth reporting
				return res, 0, err
			}
			if !ok {
				break
			}
			res.Rows++
			for _, v := range vals {
				if f, ok := v.(float64); ok {
					res.Checksum += f
				}
			}
		}
		elapsed := time.Since(start)
		var stats exec.ScanStats
		if s, ok := cur.Stats(); ok {
			stats = s
		}
		if err := cur.Close(); err != nil {
			return res, 0, err
		}
		res.Strategy = "?"
		if p := cur.Plan(); p != nil {
			res.Strategy = p.StrategyName()
		}
		res.PagesRead = stats.PagesRead
		res.Batches = stats.Batches
		res.Prefetched = stats.PagesPrefetched
		res.PrefetchHits = stats.PrefetchHits
		return res, elapsed, nil
	}

	if !cold {
		if _, _, err := run(); err != nil { // warm the pool
			return pr4Result{}, err
		}
	}
	const iters = 3
	var best pr4Result
	var total time.Duration
	bestNs := int64(1<<62 - 1)
	for i := 0; i < iters; i++ {
		if cold {
			if err := tbl.Pool().DropAll(); err != nil {
				return pr4Result{}, err
			}
		}
		res, elapsed, err := run()
		if err != nil {
			return pr4Result{}, err
		}
		total += elapsed
		if elapsed.Nanoseconds() < bestNs {
			bestNs = elapsed.Nanoseconds()
			best = res
		}
	}
	if cold {
		best.NsPerOp = total.Nanoseconds() / iters
	} else {
		best.NsPerOp = bestNs
	}
	return best, nil
}
