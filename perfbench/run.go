package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"time"

	"sma"
	"sma/client"
	"sma/internal/parser"
)

// record is the outcome of one statement. The untraced phase keeps one
// per statement, so it holds only what the end-to-end metrics need; the
// traced phase adds the span durations and counters in tr.
type record struct {
	name     string
	class    opClass
	wire     bool
	shed     bool // the server answered 503
	fullScan bool
	lat      time.Duration // issue -> last row (reads) or acknowledgement (writes)
	affected int64
	err      error
	wrong    error // the answer differs from the reference
	tr       *tracedRecord
}

// tracedRecord holds a traced statement's span durations and the
// counters taken at the same boundaries.
type tracedRecord struct {
	parse, plan, open, drain time.Duration
	server                   time.Duration // server-reported elapsed_us
	info                     *sma.PlanInfo
	stats                    sma.QueryStats
	hasStats                 bool
	rowsOut                  int64
	dop                      int
	misses                   int64 // pool misses during the statement (one-client runs)
	walBytes                 int64
}

// runner issues one client's statements, embedded (cl == nil) or over
// the wire. db is the in-process database either way: the traced phase
// calls DB.Plan on it to time planning.
type runner struct {
	db  *sma.DB
	cl  *client.Client
	log *spanLog
}

func (c *runner) run(ctx context.Context, o *op) record {
	r := record{name: o.name, class: o.class, wire: c.cl != nil, fullScan: o.fullScan}
	root := c.log.beginOp()
	if c.log != nil {
		r.tr = &tracedRecord{}
		s := c.log.begin("parser.parse", root)
		_, err := parser.ParseStatement(o.sql)
		r.tr.parse = c.log.end(s)
		if err != nil {
			r.err = err
			c.log.end(root)
			return r
		}
		if o.class == readOp {
			s = c.log.begin("planner.plan", root)
			r.tr.info, err = c.db.Plan(o.sql)
			r.tr.plan = c.log.end(s)
			if err != nil {
				r.err = err
				c.log.end(root)
				return r
			}
		}
	}
	var got answer
	switch {
	case c.cl == nil:
		got = c.query(ctx, o, &r, root)
	case o.class == readOp:
		got = c.wireQuery(ctx, o, &r, root)
	default:
		c.wireExec(ctx, o, &r, root)
	}
	c.log.end(root)
	if r.err != nil {
		var se *client.Error
		r.shed = errors.As(r.err, &se) && se.IsUnavailable()
		return r
	}
	if o.class == readOp {
		if err := compare(got, o.want, o.tol); err != nil {
			r.wrong = fmt.Errorf("%s: %w", o.name, err)
		}
	} else if r.affected != o.wantRows {
		r.wrong = fmt.Errorf("%s affected %d rows, want %d", o.name, r.affected, o.wantRows)
	} else if o.onAck != nil {
		o.onAck()
	}
	return r
}

// query runs a read through sma.DB and sma.Rows.
func (c *runner) query(ctx context.Context, o *op, r *record, root int) answer {
	var before sma.PoolStats
	if r.tr != nil {
		before = c.db.PoolStats()
	}
	start := time.Now()
	s := c.log.begin("engine.query_open", root)
	rows, err := c.db.QueryContext(ctx, o.sql)
	open := c.log.end(s)
	if err != nil {
		r.err, r.lat = err, time.Since(start)
		return answer{}
	}
	s = c.log.begin("engine.drain", root)
	got, rowsOut, err := collect(o, rows, rows.Values)
	drain := c.log.end(s)
	r.err, r.lat = err, time.Since(start)
	if t := r.tr; t != nil {
		t.open, t.drain, t.rowsOut = open, drain, rowsOut
		t.stats, t.hasStats = rows.Stats()
		t.dop = rows.Parallelism()
		t.misses = c.db.PoolStats().Misses - before.Misses
	}
	return got
}

// wireQuery runs a read through client.Query against the server.
func (c *runner) wireQuery(ctx context.Context, o *op, r *record, root int) answer {
	start := time.Now()
	cq := c.log.begin("client.query", root)
	s := c.log.begin("engine.query_open", cq)
	rows, err := c.cl.Query(ctx, o.sql)
	open := c.log.end(s)
	if err != nil {
		c.log.end(cq)
		r.err, r.lat = err, time.Since(start)
		return answer{}
	}
	s = c.log.begin("engine.drain", cq)
	values := func() ([]any, error) {
		row := rows.Row()
		out := make([]any, len(row))
		for i, v := range row {
			out[i] = v
		}
		return out, nil
	}
	got, rowsOut, err := collect(o, rows, values)
	drain := c.log.end(s)
	c.log.end(cq)
	r.err, r.lat = err, time.Since(start)
	t := r.tr
	if t == nil {
		return got
	}
	t.open, t.drain, t.rowsOut = open, drain, rowsOut
	if _, elapsed, st, ok := rows.Trailer(); ok {
		t.server = elapsed
		if st != nil {
			t.hasStats = true
			t.stats = sma.QueryStats{
				QualifyingBuckets: st.QualifyingBuckets, DisqualifyingBuckets: st.DisqualifyingBuckets,
				AmbivalentBuckets: st.AmbivalentBuckets, PagesRead: st.PagesRead, Batches: st.Batches,
				PagesPrefetched: st.PagesPrefetched, PrefetchHits: st.PrefetchHits,
			}
		}
	}
	t.dop = rows.Parallelism()
	c.log.reported("server.statement", cq, t.server)
	return got
}

// wireExec runs a write through client.Exec against the server.
func (c *runner) wireExec(ctx context.Context, o *op, r *record, root int) {
	start := time.Now()
	ce := c.log.begin("client.exec", root)
	res, err := c.cl.Exec(ctx, o.sql)
	c.log.end(ce)
	r.lat = time.Since(start)
	if err != nil {
		r.err = err
		return
	}
	r.affected = res.RowsAffected
	if t := r.tr; t != nil {
		t.server = time.Duration(res.ElapsedMicros) * time.Microsecond
		t.walBytes = res.WALBytes
		c.log.reported("server.statement", ce, t.server)
	}
}

// cursor is what sma.Rows and client.Rows share.
type cursor interface {
	Next() bool
	Err() error
	Close() error
}

// collect drains and closes a result, returning it in comparable form
// and its row count. values returns the current row: typed (embedded) or
// display strings (wire). Key columns compare as trimmed strings, the
// rest as numbers.
func collect(o *op, rows cursor, values func() ([]any, error)) (answer, int64, error) {
	var a answer
	var n int64
	var sums []float64
	for rows.Next() {
		vals, err := values()
		if err != nil {
			rows.Close()
			return a, n, err
		}
		n++
		nums := make([]float64, 0, len(vals))
		var key []string
		for i, v := range vals {
			if i < o.keyCols {
				key = append(key, strings.TrimSpace(fmt.Sprint(v)))
				continue
			}
			f, err := toFloat(v)
			if err != nil {
				rows.Close()
				return a, n, err
			}
			nums = append(nums, f)
		}
		if o.summarize {
			if sums == nil {
				sums = make([]float64, len(nums)+1)
			}
			sums[0]++
			for i, f := range nums {
				sums[i+1] += f
			}
			continue
		}
		a.addRow(strings.Join(key, "|"), nums...)
	}
	if err := rows.Err(); err != nil {
		rows.Close()
		return a, n, err
	}
	if err := rows.Close(); err != nil {
		return a, n, err
	}
	if o.summarize {
		if sums == nil {
			sums = make([]float64, len(o.want.vals[0]))
		}
		a.addRow("", sums...)
	}
	return a, n, nil
}

func toFloat(v any) (float64, error) {
	switch x := v.(type) {
	case float64:
		return x, nil
	case int64:
		return float64(x), nil
	case sma.Date:
		return float64(x), nil
	case string:
		return strconv.ParseFloat(strings.TrimSpace(x), 64)
	default:
		return 0, fmt.Errorf("unexpected value %T", v)
	}
}

// phase is one closed-loop timed phase.
type phase struct {
	records   [][]record // per client
	logs      []*spanLog
	elapsed   time.Duration
	pool      sma.PoolStats // deltas over the phase
	wal       sma.WALStats
	peakHeapB uint64
	gcCycles  uint64 // GCs during the phase: the peak heap's samples
}

// recordsPerSecond sizes each client's record slice up front, above the
// statement rate of every workload (at most ~350/s a client on 2 vCPU),
// so the phase's own bookkeeping does not grow the heap it measures.
const recordsPerSecond = 512

// runPhase runs every client in a closed loop — each issues its next
// statement once the previous one returned — for the given duration.
func runPhase(e *env, gens []generator, d time.Duration, traced bool, rngBase int64) *phase {
	ph := &phase{records: make([][]record, len(gens))}
	for i := range ph.records {
		ph.records[i] = make([]record, 0, int(d.Seconds()*recordsPerSecond))
	}
	ctx, cancel := context.WithTimeout(context.Background(), d+time.Minute)
	defer cancel()
	clients := make([]*runner, len(gens))
	var transports []*http.Transport
	t0 := time.Now()
	for i := range gens {
		clients[i] = &runner{db: e.db}
		if traced {
			clients[i].log = newSpanLog(t0, i)
			ph.logs = append(ph.logs, clients[i].log)
		}
		if e.cfg.Wire {
			tr := &http.Transport{MaxIdleConnsPerHost: 1}
			transports = append(transports, tr)
			clients[i].cl = client.New(e.url, client.WithRetries(1), client.WithHTTPClient(&http.Client{Transport: tr}))
		}
	}
	pool0, wal0 := e.db.PoolStats(), e.db.WALStats()
	gc := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(gc)
	gc0 := gc[0].Value.Uint64()
	stopHeap := sampleHeap(&ph.peakHeapB)
	deadline := t0.Add(d)
	var wg sync.WaitGroup
	for i := range clients {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(rngBase*7919 + int64(i)))
			for time.Now().Before(deadline) {
				o := gens[i](rng)
				ph.records[i] = append(ph.records[i], clients[i].run(ctx, &o))
			}
		}(i)
	}
	wg.Wait()
	ph.elapsed = time.Since(t0)
	stopHeap()
	metrics.Read(gc)
	ph.gcCycles = gc[0].Value.Uint64() - gc0
	pool1, wal1 := e.db.PoolStats(), e.db.WALStats()
	ph.pool = sma.PoolStats{
		Hits: pool1.Hits - pool0.Hits, Misses: pool1.Misses - pool0.Misses,
		Evictions: pool1.Evictions - pool0.Evictions, Prefetched: pool1.Prefetched - pool0.Prefetched,
		PrefetchHits: pool1.PrefetchHits - pool0.PrefetchHits,
	}
	ph.wal = sma.WALStats{
		Commits: wal1.Commits - wal0.Commits, Syncs: wal1.Syncs - wal0.Syncs,
		Checkpoints: wal1.Checkpoints - wal0.Checkpoints, Bytes: wal1.Bytes - wal0.Bytes,
	}
	for _, tr := range transports {
		tr.CloseIdleConnections()
	}
	return ph
}

// all flattens the per-client records.
func (ph *phase) all() []record {
	var out []record
	for _, rs := range ph.records {
		out = append(out, rs...)
	}
	return out
}

// sampleHeap records the peak live heap — the bytes the last GC found
// reachable, so garbage not yet swept is not counted — every 5 ms until
// the returned stop function is called; stop waits for the sampler to
// exit.
func sampleHeap(peak *uint64) (stop func()) {
	sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	read := func() {
		metrics.Read(sample)
		if v := sample[0].Value.Uint64(); v > *peak {
			*peak = v
		}
	}
	done, exited := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(exited)
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			read()
			select {
			case <-done:
				return
			case <-t.C:
			}
		}
	}()
	return func() {
		close(done)
		<-exited
		read()
	}
}
