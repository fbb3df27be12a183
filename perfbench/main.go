// Command perfbench is the repository's benchmark. It drives the SMA
// engine through its public surfaces — sma.DB and sma.Rows embedded, and
// package client against an in-process internal/server on loopback — on
// three workloads generated from a seed (internal/tpcd only generates the
// rows), checks every answer against a reference computed from the
// generated rows, and prints every metric by name with its unit and
// sample count. The last line of standard output is one JSON object:
// the end-to-end metrics, or with --trace 1 the per-layer metrics of a
// traced phase whose spans are written to .bench_build/traces.
//
//	bash perfbench/run.sh --workload sma_answer --seed 1 --seconds 10 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"sma"
	"sma/client"
	"sma/internal/tpcd"
)

// workDir holds the databases and traces of a run, relative to the
// directory the benchmark runs in.
const workDir = ".bench_build"

// The end-to-end metrics every workload reports, in BENCHMARK.json. The
// write-side metrics and failed_frac are printed too, but only
// ingest_wire writes and failed_frac is 0 on a correct program, so they
// are not in this set (BENCHMARK.json metrics must be measured, and
// non-zero, on every workload). query_tail_ms is the workload's pinned
// tail percentile (config.TailPercentile); p95 and p99 are printed too.
var endToEnd = []string{
	"setup_s", "query_p50_ms", "query_tail_ms", "queries_per_s",
	"disk_bytes_per_user_byte", "sma_bytes_per_heap_byte", "peak_heap_mb",
}

func main() {
	workload := flag.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := flag.Int64("seed", 1, "seed of the generated inputs")
	seconds := flag.Int("seconds", 10, "length of the timed phase in seconds")
	trace := flag.Int("trace", 0, "1 adds a traced phase and reports per-layer metrics")
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	cfg, err := newConfig(*workload, *seed, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	res, err := runBenchmark(cfg, workDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := res.report(os.Stdout, workDir); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// result is everything one run measured.
type result struct {
	cfg       config
	setups    []float64 // seconds
	checks    []record  // warm-up and end-of-run checks
	plain     *phase
	traced    *phase
	heapPages int64
	userBytes int64
	disk      diskUsage
}

// runBenchmark sets the workload up cfg.SetupRepeats times, keeping the
// last set-up, warms it, runs the untraced phase and, if asked, the traced
// phase, and checks the end state.
func runBenchmark(cfg config, workDir string) (res *result, err error) {
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return nil, err
	}
	root, err := os.MkdirTemp(workDir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)
	res = &result{cfg: cfg}
	var e *env
	defer func() {
		if e != nil {
			if cerr := e.close(); err == nil && cerr != nil {
				err = cerr
			}
		}
	}()
	for i := 0; i < cfg.SetupRepeats; i++ {
		if e != nil {
			if err := e.close(); err != nil {
				return nil, err
			}
			os.RemoveAll(e.dir)
			e = nil
		}
		runtime.GC()
		var d time.Duration
		if e, d, err = setup(cfg, filepath.Join(root, strconv.Itoa(i))); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		res.setups = append(res.setups, d.Seconds())
	}
	res.cfg.SyncPolicy = e.db.WALStats().Policy
	ref := newReference(e.items)
	e.items = nil
	li, err := e.db.Table("LINEITEM")
	if err != nil {
		return nil, err
	}
	res.heapPages = li.Pages()

	gens := make([]generator, cfg.Clients)
	var writers []*writer
	for i := range gens {
		switch cfg.Workload {
		case "sma_answer":
			gens[i] = smaAnswerGen(ref)
		case "scan_spill":
			gens[i] = scanSpillGen(ref)
		default:
			w := newWriter(i, ref)
			writers = append(writers, w)
			gens[i] = w.next
		}
	}
	res.checks = warm(e, ref)
	d := time.Duration(cfg.Seconds) * time.Second
	runtime.GC()
	res.plain = runPhase(e, gens, d, false, cfg.Seed)
	if cfg.Trace {
		// The same statement mix as the untraced phase, drawn afresh: the
		// engine caches per-predicate work (the statistics collector's
		// per-SMA attribution), so replaying the untraced phase's exact
		// statements would make the traced phase read faster than it is.
		runtime.GC()
		res.traced = runPhase(e, gens, d, true, cfg.Seed+1)
	}
	if cfg.Wire {
		// Acknowledged writes must survive a close and reopen.
		if err := e.close(); err != nil {
			return nil, err
		}
		db, err := sma.Open(e.dir, cfg.options()...)
		if err != nil {
			e = nil
			return nil, fmt.Errorf("reopen: %w", err)
		}
		e.db = db
		final := ref.clone()
		for _, w := range writers {
			w.addLive(final)
		}
		q1 := op{name: "final_q1", class: readOp, keyCols: 2, tol: 1e-6,
			sql: q1Select + "L_SHIPDATE <= DATE '1998-12-01'" + q1GroupBy, want: final.q1(tpcd.StartDate, q1Base)}
		scan := scanOp(final)
		scan.name = "final_scan"
		c := &runner{db: e.db}
		ctx := context.Background()
		res.checks = append(res.checks, c.run(ctx, &q1), c.run(ctx, &scan))
	}
	for _, t := range e.db.Tables() {
		res.userBytes += t.Rows * rowWidth(t.Columns)
	}
	cerr := e.close()
	e = nil
	if cerr != nil {
		return nil, cerr
	}
	res.disk, err = measureDisk(filepath.Join(root, strconv.Itoa(cfg.SetupRepeats-1)))
	return res, err
}

// warm fills the pool (one full scan) and runs a few statements of the
// workload's read mix untimed, so caches and lazy set-up are done before
// timing. The answers are checked like any other.
func warm(e *env, ref *reference) []record {
	ctx := context.Background()
	c := &runner{db: e.db}
	scan := scanOp(ref)
	recs := []record{c.run(ctx, &scan)}
	gen := smaAnswerGen(ref)
	switch e.cfg.Workload {
	case "scan_spill":
		gen = scanSpillGen(ref)
	case "ingest_wire":
		gen = func(rng *rand.Rand) op { return q1Op(ref, 60+rng.Intn(61), 1e-3) }
		tr := &http.Transport{}
		defer tr.CloseIdleConnections()
		c = &runner{db: e.db, cl: client.New(e.url, client.WithRetries(1), client.WithHTTPClient(&http.Client{Transport: tr}))}
	}
	rng := rand.New(rand.NewSource(e.cfg.Seed - 1))
	for i := 0; i < 10; i++ {
		o := gen(rng)
		recs = append(recs, c.run(ctx, &o))
	}
	return recs
}

// rowWidth is the stored width of one row's values: the raw user bytes.
func rowWidth(cols []sma.Column) int64 {
	var w int64
	for _, c := range cols {
		switch c.Type {
		case sma.TypeInt32, sma.TypeDate:
			w += 4
		case sma.TypeInt64, sma.TypeFloat64:
			w += 8
		default:
			w += int64(c.Len)
		}
	}
	return w
}

// diskUsage sums the bytes of a closed database directory.
type diskUsage struct{ total, heap, sma int64 }

func measureDisk(dir string) (diskUsage, error) {
	var u diskUsage
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		u.total += info.Size()
		switch filepath.Ext(path) {
		case ".tbl":
			u.heap += info.Size()
		case ".smaf":
			u.sma += info.Size()
		}
		return nil
	})
	return u, err
}

// metric is one reported number; n is its sample count (0: the workload
// does not exercise it, value 0) and base states what it is taken over.
type metric struct {
	name  string
	value float64
	unit  string
	n     int
	base  string
}

// percentile is the nearest-rank p-th percentile of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p/100*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// ok reports whether the statement succeeded with a correct answer.
func (r *record) ok() bool { return r.err == nil && r.wrong == nil }

// endToEndMetrics derives the end-to-end metrics of the untraced phase.
func (res *result) endToEndMetrics() []metric {
	var reads, inserts, modifies []float64
	var rowsInserted int64
	for _, r := range res.plain.all() {
		if !r.ok() {
			continue
		}
		switch r.class {
		case readOp:
			reads = append(reads, ms(r.lat))
		case insertOp:
			inserts = append(inserts, ms(r.lat))
			rowsInserted += r.affected
		default:
			modifies = append(modifies, ms(r.lat))
		}
	}
	secs := res.plain.elapsed.Seconds()
	attempted, failed := res.tally()
	return []metric{
		{"setup_s", percentile(res.setups, 50), "s", len(res.setups), "median of the run's set-ups"},
		{"query_p50_ms", percentile(reads, 50), "ms", len(reads), "succeeded reads"},
		{"query_tail_ms", percentile(reads, res.cfg.TailPercentile), "ms", len(reads), "succeeded reads, config.tail_percentile"},
		{"query_p95_ms", percentile(reads, 95), "ms", len(reads), "succeeded reads"},
		{"query_p99_ms", percentile(reads, 99), "ms", len(reads), "succeeded reads"},
		{"queries_per_s", float64(len(reads)) / secs, "1/s", len(reads), "succeeded reads / phase seconds"},
		{"insert_p50_ms", percentile(inserts, 50), "ms", len(inserts), "succeeded INSERTs"},
		{"insert_p99_ms", percentile(inserts, 99), "ms", len(inserts), "succeeded INSERTs"},
		{"rows_inserted_per_s", float64(rowsInserted) / secs, "rows/s", len(inserts), "acknowledged rows / phase seconds"},
		{"modify_p50_ms", percentile(modifies, 50), "ms", len(modifies), "succeeded UPDATE/DELETE"},
		{"modify_p90_ms", percentile(modifies, 90), "ms", len(modifies), "succeeded UPDATE/DELETE"},
		{"failed_frac", ratio(float64(failed), float64(attempted)), "ratio", attempted, "(errors + 503s + wrong answers) / statements, whole run"},
		{"disk_bytes_per_user_byte", ratio(float64(res.disk.total), float64(res.userBytes)), "ratio", 1, "database directory bytes / raw row bytes, after the run"},
		{"sma_bytes_per_heap_byte", ratio(float64(res.disk.sma), float64(res.disk.heap)), "ratio", 1, "SMA-file bytes / heap-file bytes, after the run"},
		{"peak_heap_mb", float64(res.plain.peakHeapB) / (1 << 20), "MB", 1 + int(res.plain.gcCycles), "peak live heap after each GC, from the one before the phase on"},
	}
}

// tally counts every statement the run issued and the failed ones
// (errors, 503s and wrong answers).
func (res *result) tally() (attempted, failed int) {
	recs := append([]record(nil), res.checks...)
	recs = append(recs, res.plain.all()...)
	if res.traced != nil {
		recs = append(recs, res.traced.all()...)
	}
	for _, r := range recs {
		attempted++
		if !r.ok() {
			failed++
		}
	}
	return attempted, failed
}

// isolationShare separates the workloads' planning shares: planning
// (plan/grade net of parse) must be at least this share of a read's
// open+drain time on sma_answer and below it on scan_spill.
const isolationShare = 0.1

// layerMetrics derives the per-layer metrics of the traced phase and the
// layer-isolation check. Each is a mean per statement that crosses the
// layer, a ratio of totals, or a count over the phase.
func (res *result) layerMetrics() ([]metric, []string) {
	ph := res.traced
	var parse, plan, open, drain, graded, pages, batches, dop, execUS, wireUS, fullMisses []float64
	var qual, disq, amb, pagesRead, rowsOut, walBytes, written float64
	var reads, shed, fullScanPlans int
	var tracedReads []float64
	for _, r := range ph.all() {
		if r.shed {
			shed++
		}
		if !r.ok() {
			continue
		}
		t := r.tr
		parse = append(parse, us(t.parse))
		if r.wire {
			wireUS = append(wireUS, us(r.lat-t.server))
		}
		if r.class != readOp {
			execUS = append(execUS, us(t.server))
			walBytes += float64(t.walBytes)
			written += float64(r.affected)
			continue
		}
		reads++
		tracedReads = append(tracedReads, ms(r.lat))
		plan = append(plan, us(t.plan-t.parse))
		open = append(open, us(t.open))
		drain = append(drain, us(t.drain))
		dop = append(dop, float64(t.dop))
		if t.info != nil {
			graded = append(graded, float64(t.info.Qualifying+t.info.Disqualifying+t.info.Ambivalent))
			qual += float64(t.info.Qualifying)
			disq += float64(t.info.Disqualifying)
			amb += float64(t.info.Ambivalent)
			// A point projection that falls back to a scan plans as
			// "FullScan", an aggregate as "FullScan+GAggr".
			if strings.HasPrefix(t.info.Strategy, "FullScan") {
				fullScanPlans++
			}
		}
		if t.hasStats {
			pages = append(pages, float64(t.stats.PagesRead))
			batches = append(batches, float64(t.stats.Batches))
			pagesRead += float64(t.stats.PagesRead)
		}
		rowsOut += float64(t.rowsOut)
		if r.fullScan && !r.wire {
			fullMisses = append(fullMisses, float64(t.misses))
		}
	}
	var plainReads []float64
	for _, r := range res.plain.all() {
		if r.ok() && r.class == readOp {
			plainReads = append(plainReads, ms(r.lat))
		}
	}
	p := ph.pool
	const phaseDelta = ", delta over the phase"
	m := []metric{
		{"parser.parse_us", mean(parse), "us", len(parse), "mean per statement, the benchmark's parser.ParseStatement call"},
		{"planner.plan_us", mean(plan), "us", len(plan), "mean per read, DB.Plan minus parser.parse"},
		{"core.buckets_graded", mean(graded), "count", len(graded), "mean per read, PlanInfo"},
		{"core.disqualified_frac", ratio(disq, qual+disq+amb), "ratio", len(graded), "disqualified / graded buckets over reads, PlanInfo"},
		{"core.ambivalent_frac", ratio(amb, qual+disq+amb), "ratio", len(graded), "ambivalent / graded buckets over reads, PlanInfo"},
		{"engine.query_open_us", mean(open), "us", len(open), "mean per read, DB.Query (or client.Query) until Rows returns"},
		{"engine.drain_us", mean(drain), "us", len(drain), "mean per read, Rows.Next loop and Close"},
		{"exec.pages_read_per_query", mean(pages), "pages", len(pages), "mean per read, Rows.Stats (wire: trailer)"},
		{"exec.batches_per_query", mean(batches), "count", len(batches), "mean per read, Rows.Stats (wire: trailer)"},
		{"exec.pages_per_row_returned", ratio(pagesRead, rowsOut), "ratio", len(pages), "pages read / rows returned over reads"},
		{"parallel.dop", mean(dop), "count", len(dop), "mean per read, Rows.Parallelism"},
		{"storage.pool_hit_ratio", ratio(float64(p.Hits), float64(p.Hits+p.Misses)), "ratio", int(p.Hits + p.Misses), "hits / (hits+misses), DB.PoolStats" + phaseDelta},
		{"storage.misses_per_query", ratio(float64(p.Misses), float64(reads)), "pages", reads, "DB.PoolStats misses" + phaseDelta + " / reads"},
		{"storage.evictions_per_query", ratio(float64(p.Evictions), float64(reads)), "pages", reads, "DB.PoolStats evictions" + phaseDelta + " / reads"},
		{"storage.prefetch_hit_ratio", ratio(float64(p.PrefetchHits), float64(p.Prefetched)), "ratio", int(p.Prefetched), "prefetch hits / pages prefetched, DB.PoolStats" + phaseDelta},
		{"wal.syncs_per_commit", ratio(float64(ph.wal.Syncs), float64(ph.wal.Commits)), "ratio", int(ph.wal.Commits), "fsyncs / commits, DB.WALStats" + phaseDelta},
		{"wal.bytes_per_row_written", ratio(walBytes, written), "B/row", int(written), "ExecResult WAL bytes / rows affected over writes"},
		{"wal.checkpoints", float64(ph.wal.Checkpoints), "count", 1, "DB.WALStats" + phaseDelta},
		{"engine.exec_us", mean(execUS), "us", len(execUS), "mean per write, server-reported elapsed_us"},
		{"server.wire_overhead_us", mean(wireUS), "us", len(wireUS), "mean per wire statement, client latency minus server elapsed_us"},
		{"server.shed", float64(shed), "count", 1, "503 answers over the phase"},
	}
	plainP50 := percentile(plainReads, 50)
	m = append(m, metric{"bench.trace_overhead_frac", ratio(percentile(tracedReads, 50)-plainP50, plainP50), "ratio", len(tracedReads),
		"traced read p50 / untraced read p50 - 1, both issue -> last row; traced reads add span recording and follow a DB.Plan of the same text"})

	// Layer isolation: sma_answer must stay in the pool and spend a
	// planning share scan_spill does not, scan_spill must spill, and only
	// ingest_wire may cross the wire. A workload that breaks its split no
	// longer isolates its layer; the run says so here.
	var fails []string
	share := ratio(mean(plan), mean(open)+mean(drain))
	missesPerQuery := ratio(float64(p.Misses), float64(reads))
	switch res.cfg.Workload {
	case "sma_answer":
		if missesPerQuery > 0.1 {
			fails = append(fails, fmt.Sprintf("storage.misses_per_query %.3f > 0.1: the pool does not hold the table", missesPerQuery))
		}
		if share < isolationShare {
			fails = append(fails, fmt.Sprintf("planning share %.3f < %.2f of open+drain", share, isolationShare))
		}
		if fullScanPlans > 0 {
			fails = append(fails, fmt.Sprintf("%d reads planned as full scans", fullScanPlans))
		}
	case "scan_spill":
		spill := float64(res.heapPages - int64(res.cfg.PoolPages))
		if got := percentile(fullMisses, 50); len(fullMisses) == 0 || got < spill {
			fails = append(fails, fmt.Sprintf("median misses per full scan %.0f < %.0f heap pages the pool cannot hold", got, spill))
		}
		if share >= isolationShare {
			fails = append(fails, fmt.Sprintf("planning share %.3f >= %.2f of open+drain", share, isolationShare))
		}
	}
	if res.cfg.Wire != (len(wireUS) > 0) {
		fails = append(fails, fmt.Sprintf("%d wire statements on a workload with wire=%v", len(wireUS), res.cfg.Wire))
	}
	m = append(m, metric{"bench.isolation_failures", float64(len(fails)), "count", 1, "failed layer-isolation conditions"})
	return m, fails
}

// report prints the configuration, every metric with its unit and sample
// count, the traced phase's self times and isolation check, and last the
// JSON result line.
func (res *result) report(w io.Writer, workDir string) error {
	cfgJSON, err := json.Marshal(res.cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "config %s\n", cfgJSON)
	for _, r := range res.checks {
		if !r.ok() {
			fmt.Fprintf(w, "check %s failed: %v%v\n", r.name, errText(r.err), errText(r.wrong))
		}
	}
	printFailures(w, res.plain)
	printKinds(w, res.plain)
	e2e := res.endToEndMetrics()
	printMetrics(w, "metric", e2e)
	out, err := pick(e2e, endToEnd)
	if err != nil {
		return err
	}
	if res.traced != nil {
		printFailures(w, res.traced)
		layers, fails := res.layerMetrics()
		printMetrics(w, "layer", layers)
		selfs := selfTimes(res.traced.logs)
		for _, s := range selfs {
			fmt.Fprintf(w, "self %-20s spans=%d total_us=%.0f self_us=%.0f mean_self_us=%.2f\n",
				s.Name, s.Spans, s.TotalUS, s.SelfUS, s.MeanUS)
		}
		if len(fails) == 0 {
			fmt.Fprintln(w, "isolation ok")
		}
		for _, f := range fails {
			fmt.Fprintln(w, "isolation FAIL:", f)
		}
		path, err := writeTrace(res, selfs, fails, workDir)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "trace", path)
		out = make(map[string]value, len(layers))
		for _, m := range layers {
			out[m.name] = value{m.value, m.unit}
		}
	}
	// A failed statement — an error, a 503 or a wrong answer — is left out
	// of every latency and rate, so any failure makes the run incorrect.
	attempted, failed := res.tally()
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{failed == 0, attempted, failed, out})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// pick returns the named metrics of ms for the result line. Each must
// have been measured on at least one sample: a gated metric that no
// statement fed would read 0 and pass any bound.
func pick(ms []metric, names []string) (map[string]value, error) {
	byName := map[string]metric{}
	for _, m := range ms {
		byName[m.name] = m
	}
	out := make(map[string]value, len(names))
	for _, name := range names {
		m, ok := byName[name]
		if !ok || m.n == 0 {
			return nil, fmt.Errorf("metric %s has no samples", name)
		}
		out[name] = value{m.value, m.unit}
	}
	return out, nil
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error() + " "
}

// printFailures prints the first few failed statements of a phase.
func printFailures(w io.Writer, ph *phase) {
	n := 0
	for _, r := range ph.all() {
		if r.ok() {
			continue
		}
		if n++; n <= 5 {
			fmt.Fprintf(w, "failed %s: %s%s\n", r.name, errText(r.err), errText(r.wrong))
		}
	}
}

// printKinds prints the latency of each statement kind of a phase, the
// mixture the end-to-end percentiles are taken over.
func printKinds(w io.Writer, ph *phase) {
	lats := map[string][]float64{}
	var names []string
	for _, r := range ph.all() {
		if !r.ok() {
			continue
		}
		if lats[r.name] == nil {
			names = append(names, r.name)
		}
		lats[r.name] = append(lats[r.name], ms(r.lat))
	}
	sort.Strings(names)
	for _, n := range names {
		l := lats[n]
		fmt.Fprintf(w, "kind %s n=%d p10_ms=%.3f p50_ms=%.3f p90_ms=%.3f\n",
			n, len(l), percentile(l, 10), percentile(l, 50), percentile(l, 90))
	}
}

func printMetrics(w io.Writer, kind string, ms []metric) {
	for _, m := range ms {
		v := "n/a"
		if m.n > 0 {
			v = strconv.FormatFloat(m.value, 'g', -1, 64)
		}
		fmt.Fprintf(w, "%s %s %s %s n=%d (%s)\n", kind, m.name, v, m.unit, m.n, m.base)
	}
}

// writeTrace writes the traced phase's spans, self times and isolation
// check to workDir/traces and returns the file's path.
func writeTrace(res *result, selfs []selfTime, fails []string, workDir string) (string, error) {
	dir := filepath.Join(workDir, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	var spans []span
	for _, l := range res.traced.logs {
		spans = append(spans, l.spans...)
	}
	buf, err := json.Marshal(struct {
		Config    config     `json:"config"`
		SelfTimes []selfTime `json:"self_times"`
		Isolation []string   `json:"isolation_failures"`
		Spans     []span     `json:"spans"`
	}{res.cfg, selfs, fails, spans})
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", res.cfg.Workload, res.cfg.Seed))
	return path, os.WriteFile(path, buf, 0o644)
}
