package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"os"
	"slices"
	"strings"
	"testing"

	"sma/client"
)

// The metrics a run prints must be the ones BENCHMARK.json names.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(buf, &b); err != nil {
		t.Fatal(err)
	}
	// The per-layer names are those the traced phase measures, here
	// derived from an empty one.
	layers, _ := (&result{plain: &phase{}, traced: &phase{}}).layerMetrics()
	var perLayer []string
	for _, m := range layers {
		perLayer = append(perLayer, m.name)
	}
	names := func(xs []struct{ Name string }) []string {
		var out []string
		for _, x := range xs {
			out = append(out, x.Name)
		}
		return out
	}
	for _, c := range []struct {
		what      string
		json, run []string
	}{
		{"workloads", names(b.Workloads), workloadNames},
		{"end_to_end", names(b.EndToEnd), endToEnd},
		{"per_layer", names(b.PerLayer), perLayer},
	} {
		if !slices.Equal(c.json, c.run) {
			t.Errorf("%s: BENCHMARK.json has %v, the benchmark reports %v", c.what, c.json, c.run)
		}
	}
}

// A deliberately wrong reference must be counted as a failure, on the
// embedded path, over the wire and for a write's predicted row count, and
// must turn the result line's "correct" false. So must a statement that
// errors, and a gated metric no statement fed must fail the run.
func TestWrongReferenceCountsAsFailure(t *testing.T) {
	cfg, err := newConfig("ingest_wire", 1, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	cfg.SF, cfg.SetupRepeats = 0.001, 1
	e, _, err := setup(cfg, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	ref := newReference(e.items)
	tr := &http.Transport{}
	defer tr.CloseIdleConnections()
	embedded := &runner{db: e.db}
	wire := &runner{db: e.db, cl: client.New(e.url, client.WithRetries(1), client.WithHTTPClient(&http.Client{Transport: tr}))}

	good, badCount, badWire := q1Op(ref, 90, 1e-6), q1Op(ref, 90, 1e-6), q1Op(ref, 90, 1e-3)
	badCount.want.vals[0][7]++ // one row too many in the first group's COUNT_ORDER
	badWire.want.vals[1][0] += 0.5
	w := newWriter(0, ref)
	insert := w.insert(rand.New(rand.NewSource(1)))
	insert.wantRows++
	badSQL := op{name: "bad_sql", class: readOp, sql: "select nothing from NOWHERE"}

	ctx := context.Background()
	recs := []record{
		embedded.run(ctx, &good),
		embedded.run(ctx, &badCount),
		wire.run(ctx, &badWire),
		wire.run(ctx, &insert),
	}
	for i, r := range recs {
		if r.err != nil {
			t.Fatalf("statement %d (%s): %v", i, r.name, r.err)
		}
	}
	if recs[0].wrong != nil {
		t.Fatalf("correct reference reported wrong: %v", recs[0].wrong)
	}
	for _, r := range recs[1:] {
		if r.wrong == nil {
			t.Errorf("%s: wrong reference not detected", r.name)
		}
	}
	if len(w.rows) != 0 {
		t.Errorf("a write whose row count disagrees was applied to the model")
	}
	errored := []record{embedded.run(ctx, &badSQL), wire.run(ctx, &badSQL)}
	for _, r := range errored {
		if r.err == nil {
			t.Fatalf("%s (wire=%v) did not error", r.name, r.wire)
		}
	}

	type line struct {
		Correct   bool `json:"correct"`
		Attempted int  `json:"attempted"`
		Failed    int  `json:"failed"`
	}
	run := func(recs ...record) (line, error) {
		res := &result{cfg: cfg, setups: []float64{1}, plain: &phase{records: [][]record{recs}, elapsed: 1}}
		var out bytes.Buffer
		if err := res.report(&out, t.TempDir()); err != nil {
			return line{}, err
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var l line
		err := json.Unmarshal([]byte(lines[len(lines)-1]), &l)
		return l, err
	}

	l, err := run(recs...)
	if err != nil {
		t.Fatal(err)
	}
	if l != (line{false, 4, 3}) {
		t.Errorf("wrong answers: result line %+v, want correct=false attempted=4 failed=3", l)
	}

	// Errors alone, with every answer right, still make the run incorrect.
	if l, err = run(append([]record{recs[0]}, errored...)...); err != nil {
		t.Fatal(err)
	}
	if l != (line{false, 3, 2}) {
		t.Errorf("errors: result line %+v, want correct=false attempted=3 failed=2", l)
	}

	// With every read failed, query_p50_ms has no samples: no result line.
	if _, err = run(errored...); err == nil || !strings.Contains(err.Error(), "no samples") {
		t.Errorf("every read failed: report error %v, want a metric with no samples", err)
	}
}

// A span's self time is its duration minus the union of its children's
// intervals, so overlapping children are not subtracted twice.
func TestSelfTimes(t *testing.T) {
	l := &spanLog{spans: []span{
		{Name: "op", Parent: -1, Start: 0, End: 100},
		{Name: "client.query", Parent: 0, Start: 10, End: 90},
		{Name: "engine.query_open", Parent: 1, Start: 10, End: 50},
		{Name: "engine.drain", Parent: 1, Start: 50, End: 80},
		{Name: "server.statement", Parent: 1, Start: 40, End: 85},
	}}
	want := map[string]float64{"op": 0.02, "client.query": 0.005, "engine.query_open": 0.04,
		"engine.drain": 0.03, "server.statement": 0.045}
	for _, st := range selfTimes([]*spanLog{l}) {
		if st.SelfUS != want[st.Name] {
			t.Errorf("%s self = %v us, want %v", st.Name, st.SelfUS, want[st.Name])
		}
	}
}
