package main

import (
	"sort"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans of one
// operation share Op; Parent indexes the causing span in the same
// client's log (-1 for the operation's root).
type span struct {
	Name   string `json:"name"`
	Client int    `json:"client"`
	Op     int64  `json:"op"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"` // since the phase began
	End    int64  `json:"end_ns"`
}

// spanLog records one client's spans in memory; they are written out
// when the run ends. A nil *spanLog records nothing, which is how the
// untraced phase pays only a nil check per boundary.
type spanLog struct {
	t0     time.Time
	client int
	op     int64
	spans  []span
}

func newSpanLog(t0 time.Time, client int) *spanLog {
	return &spanLog{t0: t0, client: client}
}

// beginOp opens the root span of a new operation.
func (l *spanLog) beginOp() int {
	if l == nil {
		return -1
	}
	l.op++
	return l.begin("op", -1)
}

func (l *spanLog) begin(name string, parent int) int {
	if l == nil {
		return -1
	}
	l.spans = append(l.spans, span{Name: name, Client: l.client, Op: l.op, Parent: parent,
		Start: int64(time.Since(l.t0))})
	return len(l.spans) - 1
}

// end closes span i and returns its duration.
func (l *spanLog) end(i int) time.Duration {
	if l == nil || i < 0 {
		return 0
	}
	s := &l.spans[i]
	s.End = int64(time.Since(l.t0))
	return time.Duration(s.End - s.Start)
}

// reported adds a child span of parent whose duration a lower layer
// reported (the server's elapsed_us) rather than one the benchmark
// timed. Only its length is known, so it is centred in the parent.
func (l *spanLog) reported(name string, parent int, d time.Duration) {
	if l == nil || parent < 0 {
		return
	}
	p := l.spans[parent]
	start := p.Start + (p.End-p.Start-int64(d))/2
	l.spans = append(l.spans, span{Name: name, Client: l.client, Op: l.op, Parent: parent,
		Start: start, End: start + int64(d)})
}

// selfTime is one span name's total time net of its children.
type selfTime struct {
	Name    string  `json:"name"`
	Spans   int     `json:"spans"`
	TotalUS float64 `json:"total_us"`
	SelfUS  float64 `json:"self_us"`
	MeanUS  float64 `json:"mean_self_us"`
}

// selfTimes computes each layer's self time: a span's duration minus the
// part of its interval that its child spans cover.
func selfTimes(logs []*spanLog) []selfTime {
	by := map[string]*selfTime{}
	for _, l := range logs {
		children := make(map[int][]int)
		for i, s := range l.spans {
			if s.Parent >= 0 {
				children[s.Parent] = append(children[s.Parent], i)
			}
		}
		for i, s := range l.spans {
			dur := s.End - s.Start
			self := dur - covered(l.spans, children[i], s.Start, s.End)
			st := by[s.Name]
			if st == nil {
				st = &selfTime{Name: s.Name}
				by[s.Name] = st
			}
			st.Spans++
			st.TotalUS += float64(dur) / 1e3
			st.SelfUS += float64(self) / 1e3
		}
	}
	out := make([]selfTime, 0, len(by))
	for _, st := range by {
		st.MeanUS = st.SelfUS / float64(st.Spans)
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// covered returns the length of the union of the child intervals,
// clipped to [lo, hi].
func covered(spans []span, kids []int, lo, hi int64) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(spans[k].Start, lo), min(spans[k].End, hi)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end int64
	for i, v := range ivs {
		if i == 0 || v.a > end {
			total += v.b - v.a
			end = v.b
		} else if v.b > end {
			total += v.b - end
			end = v.b
		}
	}
	return total
}
