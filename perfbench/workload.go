package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"time"

	"sma"
	"sma/internal/server"
	"sma/internal/tpcd"
)

// nprocCap caps the client goroutines, connections and engine workers
// of every run. Nothing else is derived from the machine's CPU count.
const nprocCap = 2

// config is the pinned, self-describing configuration of one run; it is
// printed with the results.
type config struct {
	Workload            string  `json:"workload"`
	Seed                int64   `json:"seed"`
	Seconds             int     `json:"seconds"`
	Trace               bool    `json:"trace"`
	SF                  float64 `json:"sf"`
	Order               string  `json:"order"`
	PoolPages           int     `json:"pool_pages"`
	BucketPages         int     `json:"bucket_pages"`
	DOP                 int     `json:"dop"`
	BatchSize           int     `json:"batch_size"`
	PrefetchWindow      int     `json:"prefetch_window"`
	SyncPolicy          string  `json:"sync_policy"`
	CheckpointBytes     int64   `json:"checkpoint_bytes"`
	TailPercentile      float64 `json:"tail_percentile"`
	Clients             int     `json:"clients"`
	Wire                bool    `json:"wire"`
	ServerMaxConcurrent int     `json:"server_max_concurrent,omitempty"`
	SetupRepeats        int     `json:"setup_repeats"`
	NProc               int     `json:"nproc"`
	GOMAXPROCS          int     `json:"gomaxprocs"`
	GoVersion           string  `json:"go_version"`
}

var workloadNames = []string{"sma_answer", "scan_spill", "ingest_wire"}

func newConfig(workload string, seed int64, seconds int, trace bool) (config, error) {
	nproc := min(runtime.NumCPU(), nprocCap)
	c := config{
		Workload: workload, Seed: seed, Seconds: seconds, Trace: trace,
		BucketPages: 1, BatchSize: 1024, PrefetchWindow: 16,
		SyncPolicy: "grouped", CheckpointBytes: 8 << 20, SetupRepeats: 3,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
	}
	switch workload {
	case "sma_answer":
		// The paper's case: shipdate-sorted LINEITEM with the eight Fig. 4
		// SMAs and a pool holding heap and SMA pages, so Q1, narrow Q1
		// windows and shipdate point lookups plan as SMA_GAggr or a
		// few-page SMA_Scan. Time goes to parse, plan/grade over every
		// bucket and SMA folding with ~0 pool misses: hierarchical
		// grading and prefix-sum folding should show here, scan kernels
		// should not.
		c.SF, c.Order, c.PoolPages, c.DOP, c.Clients = 0.05, "sorted", 16384, 1, 1
		c.TailPercentile = 95
	case "scan_spill":
		// The inverse: the Fig. 2 diagonal clustering at the same size with
		// the paper's 8 MB pool, ~5x smaller than the heap, and uncovered
		// aggregates. Time goes to page reads from the OS cache, batch
		// decode, expression fold and the parallel merge; grading is a
		// small share. No simulated read latency: it would measure the
		// sleep, not the program.
		c.SF, c.Order, c.PoolPages, c.DOP, c.Clients = 0.05, "diagonal", 2048, nproc, 1
		// ~450 reads a run: too few for p99 to have ten samples beyond it.
		c.TailPercentile = 95
	case "ingest_wire":
		// The append-mostly warehouse over the wire: multi-row INSERTs at
		// the shipdate tail beside UPDATE/DELETE on each client's own keys
		// and Q1 reads. The only workload crossing server/client, engine
		// DML, WAL group commit and SMA maintenance, so a read-path gain
		// that costs writes or wire overhead shows here.
		c.SF, c.Order, c.PoolPages, c.DOP, c.Clients = 0.02, "sorted", 16384, 1, nproc
		// Its set-up is short, so it is repeated more for a steady median.
		c.Wire, c.ServerMaxConcurrent, c.SetupRepeats = true, nproc, 5
		// Reads split into those that waited behind the other client's
		// UPDATE/DELETE and those that did not; p95 falls between the two
		// and flips from run to run, p99 lies inside the waiting ones.
		c.TailPercentile = 99
	default:
		return c, fmt.Errorf("unknown workload %q (want one of %s)", workload, strings.Join(workloadNames, ", "))
	}
	return c, nil
}

func (c config) options() []sma.Option {
	return []sma.Option{
		sma.WithPoolPages(c.PoolPages), sma.WithBucketPages(c.BucketPages),
		sma.WithParallelism(c.DOP), sma.WithBatchSize(c.BatchSize),
		sma.WithPrefetchWindow(c.PrefetchWindow), sma.WithSyncPolicy(sma.SyncGrouped()),
		sma.WithCheckpointBytes(c.CheckpointBytes),
	}
}

func (c config) tpcdOrder() tpcd.Order {
	if c.Order == "diagonal" {
		return tpcd.OrderDiagonal
	}
	return tpcd.OrderSorted
}

// q1SMAs is the paper's Fig. 4: eight SMA definitions (26 SMA-files).
var q1SMAs = []string{
	"define sma count select count(*) from LINEITEM group by L_RETURNFLAG, L_LINESTATUS",
	"define sma max select max(L_SHIPDATE) from LINEITEM",
	"define sma min select min(L_SHIPDATE) from LINEITEM",
	"define sma qty select sum(L_QUANTITY) from LINEITEM group by L_RETURNFLAG, L_LINESTATUS",
	"define sma dis select sum(L_DISCOUNT) from LINEITEM group by L_RETURNFLAG, L_LINESTATUS",
	"define sma ext select sum(L_EXTENDEDPRICE) from LINEITEM group by L_RETURNFLAG, L_LINESTATUS",
	"define sma extdis select sum(L_EXTENDEDPRICE*(1-L_DISCOUNT)) from LINEITEM group by L_RETURNFLAG, L_LINESTATUS",
	"define sma extdistax select sum(L_EXTENDEDPRICE*(1-L_DISCOUNT)*(1+L_TAX)) from LINEITEM group by L_RETURNFLAG, L_LINESTATUS",
}

// env is one set-up database, plus the in-process server for wire runs.
type env struct {
	cfg     config
	dir     string
	db      *sma.DB
	items   []tpcd.LineItem
	srv     *server.Server
	httpSrv *http.Server
	served  chan error
	url     string
}

// setup generates LINEITEM, loads it through the public Append path,
// defines the eight SMAs and, for wire runs, starts the server. Its
// duration is the setup_s sample.
func setup(cfg config, dir string) (*env, time.Duration, error) {
	start := time.Now()
	items := tpcd.GenLineItems(tpcd.Config{ScaleFactor: cfg.SF, Seed: cfg.Seed, Order: cfg.tpcdOrder()})
	db, err := sma.Open(dir, cfg.options()...)
	if err != nil {
		return nil, 0, err
	}
	e := &env{cfg: cfg, dir: dir, db: db, items: items}
	if err := e.load(); err != nil {
		e.close()
		return nil, 0, err
	}
	if cfg.Wire {
		if err := e.startServer(); err != nil {
			e.close()
			return nil, 0, err
		}
	}
	return e, time.Since(start), nil
}

func (e *env) load() error {
	if _, err := e.db.Exec(tpcd.LineItemDDL); err != nil {
		return err
	}
	li, err := e.db.Table("LINEITEM")
	if err != nil {
		return err
	}
	for i := range e.items {
		if _, err := li.Append(e.items[i].Values()...); err != nil {
			return fmt.Errorf("append row %d: %w", i, err)
		}
	}
	for _, ddl := range q1SMAs {
		if _, err := e.db.Exec(ddl); err != nil {
			return fmt.Errorf("%s: %w", ddl, err)
		}
	}
	return nil
}

func (e *env) startServer() error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	e.srv = server.New(e.db, server.Config{MaxConcurrent: e.cfg.ServerMaxConcurrent, QueueTimeout: 2 * time.Second})
	e.httpSrv = &http.Server{Handler: e.srv.Handler()}
	e.served = make(chan error, 1)
	go func() { e.served <- e.httpSrv.Serve(ln) }()
	e.url = "http://" + ln.Addr().String()
	return nil
}

// stopServer drains the server's statements, closes the listener and
// waits for the serving goroutine to return.
func (e *env) stopServer() error {
	if e.srv == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := e.srv.Shutdown(ctx)
	if herr := e.httpSrv.Shutdown(ctx); err == nil {
		err = herr
	}
	if serr := <-e.served; err == nil && !errors.Is(serr, http.ErrServerClosed) {
		err = serr
	}
	e.srv = nil
	return err
}

func (e *env) close() error {
	err := e.stopServer()
	if cerr := e.db.Close(); err == nil {
		err = cerr
	}
	return err
}

// opClass separates the statements the metrics are reported for.
type opClass uint8

const (
	readOp opClass = iota
	insertOp
	modifyOp
)

// op is one statement a client issues, with what its answer must be.
type op struct {
	name  string
	class opClass
	sql   string
	// Reads: the expected answer, how many leading output columns are
	// keys, whether to compare the rows' [count, sums...] rather than the
	// rows, the comparison's absolute tolerance, and whether the plan
	// reads every heap page.
	want      answer
	keyCols   int
	summarize bool
	tol       float64
	fullScan  bool
	// Writes: the RowsAffected the client's model predicts, and the
	// model update to apply once the statement is acknowledged.
	wantRows int64
	onAck    func()
}

// generator produces a client's next statement.
type generator func(rng *rand.Rand) op

const q1Select = `SELECT L_RETURNFLAG, L_LINESTATUS,
       SUM(L_QUANTITY) AS SUM_QTY,
       SUM(L_EXTENDEDPRICE) AS SUM_BASE_PRICE,
       SUM(L_EXTENDEDPRICE*(1-L_DISCOUNT)) AS SUM_DISC_PRICE,
       SUM(L_EXTENDEDPRICE*(1-L_DISCOUNT)*(1+L_TAX)) AS SUM_CHARGE,
       AVG(L_QUANTITY) AS AVG_QTY,
       AVG(L_EXTENDEDPRICE) AS AVG_PRICE,
       AVG(L_DISCOUNT) AS AVG_DISC,
       COUNT(*) AS COUNT_ORDER
FROM LINEITEM
WHERE `

const q1GroupBy = `
GROUP BY L_RETURNFLAG, L_LINESTATUS
ORDER BY L_RETURNFLAG, L_LINESTATUS`

// q1Base is the date Query 1 subtracts its delta from.
var q1Base = tpcd.EndDate - 30 // 1998-12-01

func dateLit(d int32) string { return "DATE '" + sma.Date(d).String() + "'" }

// q1Op is TPC-D Query 1 (Fig. 3 of the paper) with the given delta.
func q1Op(ref *reference, delta int, tol float64) op {
	return op{
		name: "q1", class: readOp, keyCols: 2, tol: tol,
		sql:  q1Select + "L_SHIPDATE <= DATE '1998-12-01' - INTERVAL '" + strconv.Itoa(delta) + "' DAY" + q1GroupBy,
		want: ref.q1(tpcd.StartDate, q1Base-int32(delta)),
	}
}

// windowOp is Query 1's select list over the shipdate window [lo, hi].
func windowOp(ref *reference, lo, hi int32) op {
	return op{
		name: "q1_window", class: readOp, keyCols: 2, tol: 1e-6,
		sql:  q1Select + "L_SHIPDATE >= " + dateLit(lo) + " AND L_SHIPDATE <= " + dateLit(hi) + q1GroupBy,
		want: ref.q1(lo, hi),
	}
}

// pointOp projects the line items shipped on one day.
func pointOp(ref *reference, day int32) op {
	return op{
		name: "point", class: readOp, summarize: true, tol: 1e-6,
		sql:  "select L_ORDERKEY, L_QUANTITY, L_EXTENDEDPRICE from LINEITEM where L_SHIPDATE = " + dateLit(day),
		want: ref.point(day),
	}
}

// uncoveredSelect aggregates what no SMA covers.
const uncoveredSelect = "select sum(L_QUANTITY*L_DISCOUNT), max(L_EXTENDEDPRICE), count(*) from LINEITEM"

// wideOp aggregates what no SMA covers over the shipdate window [lo, hi].
func wideOp(ref *reference, lo, hi int32) op {
	return op{
		name: "wide", class: readOp, tol: 1e-6,
		sql:  uncoveredSelect + " where L_SHIPDATE >= " + dateLit(lo) + " and L_SHIPDATE <= " + dateLit(hi),
		want: ref.uncovered(lo, hi),
	}
}

// scanOp aggregates what no SMA covers over the whole relation.
func scanOp(ref *reference) op {
	return op{
		name: "scan", class: readOp, tol: 1e-6, fullScan: true,
		sql: uncoveredSelect, want: ref.uncovered(tpcd.StartDate, tpcd.EndDate),
	}
}

// groupedScanOp is a grouped full-scan aggregate no SMA covers.
func groupedScanOp(ref *reference) op {
	return op{
		name: "scan_grouped", class: readOp, keyCols: 2, tol: 1e-6, fullScan: true,
		sql: "select L_RETURNFLAG, L_LINESTATUS, max(L_EXTENDEDPRICE), sum(L_QUANTITY*L_DISCOUNT) from LINEITEM " +
			"group by L_RETURNFLAG, L_LINESTATUS order by L_RETURNFLAG, L_LINESTATUS",
		want: ref.uncoveredGrouped(),
	}
}

// shippedDays lists the days with at least one reference row.
func shippedDays(ref *reference) []int32 {
	var days []int32
	for d := tpcd.StartDate; d <= tpcd.EndDate; d++ {
		if ref.rows(d) > 0 {
			days = append(days, d)
		}
	}
	return days
}

// smaAnswerGen: 30% Query 1 with a seeded delta, 40% Q1-shaped windows of
// one to four weeks, 30% point projections. The windows are the middle
// cost class, flanked by cheaper points and costlier Q1 of equal weight,
// so the median falls inside the windows' class rather than in the gap
// between two classes, where a shift in machine speed moves it most.
func smaAnswerGen(ref *reference) generator {
	days := shippedDays(ref)
	return func(rng *rand.Rand) op {
		switch p := rng.Intn(100); {
		case p < 30:
			return q1Op(ref, 60+rng.Intn(61), 1e-6)
		case p < 70:
			lo := days[rng.Intn(len(days))]
			return windowOp(ref, lo, lo+7+int32(rng.Intn(22)))
		default:
			return pointOp(ref, days[rng.Intn(len(days))])
		}
	}
}

// scanSpillGen: 75% full scans with uncovered aggregates, 15% windows of
// 1.5 to 3 years, 10% Query 1 (100-250 ambivalent pages on this
// clustering). Full scans are the costliest and the majority.
func scanSpillGen(ref *reference) generator {
	days := shippedDays(ref)
	first, last := days[0], days[len(days)-1]
	return func(rng *rand.Rand) op {
		switch p := rng.Intn(100); {
		case p < 40:
			return scanOp(ref)
		case p < 75:
			return groupedScanOp(ref)
		case p < 90:
			width := int32(540 + rng.Intn(560))
			lo := first + int32(rng.Intn(int(last-first-width)))
			return wideOp(ref, lo, lo+width)
		default:
			return q1Op(ref, 60+rng.Intn(61), 1e-6)
		}
	}
}

// Inserted line items ship in the last ten days of the generated data,
// after every Query 1 cutoff (delta >= 60), so the reads of ingest_wire
// have a fixed answer while the clients write.
const (
	insertRows  = 16
	tailDays    = 10
	clientKeys  = 100_000_000 // order keys each client owns, above every generated key
	modifyRange = 48          // recent keys an UPDATE may cover
	deleteRange = 8           // recent keys a DELETE may cover
)

var tailHi = tpcd.EndDate - 31 // the generator's last shipdate, 1998-11-30

// writer is one ingest_wire client's model of the rows it wrote. Clients
// write disjoint order-key ranges, so each model is exact whatever the
// interleaving.
type writer struct {
	base int64
	rows []tailRow // by order key - base
	ref  *reference
}

// tailRow is the model of one inserted line item, kept to what the
// reference and the UPDATE/DELETE predicates need: its order key is the
// writer's base plus its index, its flag and status are 'N' and 'O'.
type tailRow struct {
	price          int32 // L_EXTENDEDPRICE per unit of L_QUANTITY, in cents
	ship           uint8 // days before tailHi
	qty, disc, tax uint8 // L_QUANTITY; L_DISCOUNT and L_TAX in hundredths
	live           bool
}

func (t *tailRow) shipDate() int32 { return tailHi - int32(t.ship) }

// item expands the row to the line item the reference folds.
func (t *tailRow) item(orderKey int64) tpcd.LineItem {
	qty := float64(t.qty)
	return tpcd.LineItem{
		OrderKey: orderKey, LineNumber: 1, Quantity: qty,
		ExtendedPrice: qty * float64(t.price) / 100,
		Discount:      float64(t.disc) / 100, Tax: float64(t.tax) / 100,
		ReturnFlag: 'N', LineStatus: 'O', ShipDate: t.shipDate(),
	}
}

func newWriter(id int, ref *reference) *writer {
	return &writer{base: int64(id+1) * clientKeys, ref: ref}
}

// next: 70% 16-row INSERTs at the shipdate tail, 5% UPDATE and 5% DELETE
// on a recent window of the client's own keys, 20% Query 1.
func (w *writer) next(rng *rand.Rand) op {
	p := rng.Intn(100)
	switch {
	case p < 20:
		return q1Op(w.ref, 60+rng.Intn(61), 1e-3)
	case p < 25 && len(w.rows) >= modifyRange:
		return w.update(rng)
	case p < 30 && len(w.rows) >= modifyRange:
		return w.delete(rng)
	default:
		return w.insert(rng)
	}
}

func (w *writer) insert(rng *rand.Rand) op {
	var b strings.Builder
	b.WriteString("insert into LINEITEM values ")
	rows := make([]tailRow, insertRows)
	for i := range rows {
		t := tailRow{
			qty: uint8(1 + rng.Intn(50)), ship: uint8(rng.Intn(tailDays)), price: int32(90000 + rng.Intn(20000)),
			disc: uint8(rng.Intn(11)), tax: uint8(rng.Intn(9)), live: true,
		}
		rows[i] = t
		li := t.item(w.base + int64(len(w.rows)+i))
		part, supp := 1+rng.Intn(200000), 1+rng.Intn(10000)
		receipt := li.ShipDate + 1 + int32(rng.Intn(30))
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "(%d, %d, %d, %d, %s, %s, %s, %s, 'N', 'O', %s, %s, %s, 'DELIVER IN PERSON', 'TRUCK', 'appended')",
			li.OrderKey, part, supp, li.LineNumber, num(li.Quantity), num(li.ExtendedPrice),
			num(li.Discount), num(li.Tax), dateLit(li.ShipDate), dateLit(li.ShipDate-30), dateLit(receipt))
	}
	return op{name: "insert", class: insertOp, sql: b.String(), wantRows: insertRows, onAck: func() {
		w.rows = append(w.rows, rows...)
	}}
}

func num(f float64) string { return strconv.FormatFloat(f, 'f', -1, 64) }

// window picks a recent key range [lo, hi] of at most span keys and a
// shipdate floor inside the tail, returning the matching live rows.
func (w *writer) window(rng *rand.Rand, span int) (lo, hi int, floor int32, match []int) {
	hi = len(w.rows) - 1 - rng.Intn(32)
	lo = max(0, hi-rng.Intn(span))
	floor = tailHi - int32(rng.Intn(tailDays))
	for i := lo; i <= hi; i++ {
		if w.rows[i].live && w.rows[i].shipDate() >= floor {
			match = append(match, i)
		}
	}
	return lo, hi, floor, match
}

func (w *writer) where(lo, hi int, floor int32) string {
	return fmt.Sprintf(" where L_ORDERKEY >= %d and L_ORDERKEY <= %d and L_SHIPDATE >= %s",
		w.base+int64(lo), w.base+int64(hi), dateLit(floor))
}

func (w *writer) update(rng *rand.Rand) op {
	lo, hi, floor, match := w.window(rng, modifyRange)
	disc := uint8(rng.Intn(11))
	return op{
		name: "update", class: modifyOp, wantRows: int64(len(match)),
		sql: "update LINEITEM set L_DISCOUNT = " + num(float64(disc)/100) + w.where(lo, hi, floor),
		onAck: func() {
			for _, i := range match {
				w.rows[i].disc = disc
			}
		},
	}
}

func (w *writer) delete(rng *rand.Rand) op {
	lo, hi, floor, match := w.window(rng, deleteRange)
	return op{
		name: "delete", class: modifyOp, wantRows: int64(len(match)),
		sql: "delete from LINEITEM" + w.where(lo, hi, floor),
		onAck: func() {
			for _, i := range match {
				w.rows[i].live = false
			}
		},
	}
}

// addLive adds the writer's live rows to ref.
func (w *writer) addLive(ref *reference) {
	for i := range w.rows {
		if t := &w.rows[i]; t.live {
			li := t.item(w.base + int64(i))
			ref.add(&li)
		}
	}
}
