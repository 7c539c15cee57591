package main

import (
	"fmt"
	"io"
	"sort"
	"time"
)

// span is one call at a layer boundary, timed from the benchmark's side
// of the call. Spans of one op share its index; parent is the index of
// the span that caused this one, or -1 (op spans, set-up spans and the
// side-stream probes that run outside any op span).
type span struct {
	name       string
	op, parent int
	start, end time.Duration // since the tracer's origin
}

// opSpan names the span around one whole op.
const opSpan = "op"

// tracer keeps every span of a traced re-drive in memory; the per-layer
// metrics and the summary written at the end are computed from them.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its index.
func (t *tracer) begin(name string, op, parent int) int {
	t.spans = append(t.spans, span{name: name, op: op, parent: parent, start: time.Since(t.t0)})
	return len(t.spans) - 1
}

// end closes span i.
func (t *tracer) end(i int) { t.spans[i].end = time.Since(t.t0) }

// endAs closes span i under a name known only once the call returned
// (an accepting or rejecting filter walk).
func (t *tracer) endAs(i int, name string) {
	t.end(i)
	t.spans[i].name = name
}

// add records a span from instants the caller read, such as a handler
// span read on the server's goroutine.
func (t *tracer) add(name string, op, parent int, start, end time.Time) int {
	t.spans = append(t.spans, span{name: name, op: op, parent: parent,
		start: start.Sub(t.t0), end: end.Sub(t.t0)})
	return len(t.spans) - 1
}

// durations returns the duration of every span called name.
func (t *tracer) durations(name string) []time.Duration {
	var out []time.Duration
	for _, s := range t.spans {
		if s.name == name {
			out = append(out, s.end-s.start)
		}
	}
	return out
}

// perOp sums the spans called name within each of ops [0, n); an op
// without one sums to 0.
func (t *tracer) perOp(name string, n int) []time.Duration {
	out := make([]time.Duration, n)
	for _, s := range t.spans {
		if s.name == name && s.op >= 0 && s.op < n {
			out[s.op] += s.end - s.start
		}
	}
	return out
}

// opDurations returns the duration of every op span.
func (t *tracer) opDurations() []time.Duration { return t.durations(opSpan) }

// coverage is the share of op-span time covered by the op spans' direct
// children (the layer calls); the rest is the caller's own glue.
func (t *tracer) coverage() float64 {
	var ops, children time.Duration
	for _, s := range t.spans {
		switch {
		case s.name == opSpan:
			ops += s.end - s.start
		case s.parent >= 0 && t.spans[s.parent].name == opSpan:
			children += s.end - s.start
		}
	}
	if ops == 0 {
		return 0
	}
	return float64(children) / float64(ops)
}

// writeSummary writes each span name's count, total and self time (the
// span minus its children) to w.
func (t *tracer) writeSummary(w io.Writer) {
	type agg struct {
		n           int
		total, self time.Duration
	}
	by := map[string]*agg{}
	for _, s := range t.spans {
		a := by[s.name]
		if a == nil {
			a = &agg{}
			by[s.name] = a
		}
		a.n++
		a.total += s.end - s.start
		a.self += s.end - s.start
	}
	for _, s := range t.spans {
		if s.parent >= 0 {
			by[t.spans[s.parent].name].self -= s.end - s.start
		}
	}
	names := make([]string, 0, len(by))
	for n := range by {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-24s %9s %12s %12s\n", "span", "count", "total_ms", "self_ms")
	for _, n := range names {
		a := by[n]
		fmt.Fprintf(w, "%-24s %9d %12.3f %12.3f\n", n, a.n,
			a.total.Seconds()*1e3, a.self.Seconds()*1e3)
	}
}
