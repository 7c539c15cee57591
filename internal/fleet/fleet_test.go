package fleet

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro"
	"repro/internal/serve"
	"repro/internal/serve/wire"
	"repro/internal/store"
	"repro/internal/workload"
)

// testSpec is the small sweep the failure-mode tests distribute: three
// intervals, cheap enough to run many times per test binary.
func testSpec() wire.SweepRequest {
	return wire.SweepRequest{
		Seed: 7, SetsPerInterval: 2, MaxCandidates: 40,
		Lo: 0.3, Hi: 0.6, Approaches: []string{"st", "dp"},
	}
}

// mustSweep settles a sweep request as mkfleet does.
func mustSweep(t *testing.T, req wire.SweepRequest) serve.Sweep {
	t.Helper()
	sw, err := serve.NormalizeSweep(req)
	if err != nil {
		t.Fatal(err)
	}
	return sw
}

// referenceRows computes the batch-run row lines the distributed sweep
// must reproduce byte for byte.
func referenceRows(t *testing.T, spec wire.SweepRequest) [][]byte {
	t.Helper()
	sw := mustSweep(t, spec)
	rep, err := repro.NewRunner(repro.RunnerConfig{}).Sweep(context.Background(), sw.Config(sw.Intervals(), 0))
	if err != nil {
		t.Fatal(err)
	}
	var rows [][]byte
	for _, row := range rep.Rows {
		rows = append(rows, serve.RowLine(rep.Approaches, row))
	}
	return rows
}

// chaos wraps a worker's handler with fault injection: killStreams
// aborts that many sweep responses mid-stream (after the start line, the
// way a killed process looks to the client), and stallNS delays sweep
// work until the request context dies.
type chaos struct {
	inner       http.Handler
	killStreams atomic.Int64
	stallNS     atomic.Int64
}

func (c *chaos) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/v1/sweep" {
		// Consume the body the way a real worker does: with it unread
		// the server never starts the background read that detects a
		// client disconnect, and r.Context() would not fire.
		body, err := io.ReadAll(r.Body)
		if err != nil {
			panic(http.ErrAbortHandler)
		}
		r.Body = io.NopCloser(bytes.NewReader(body))
		if c.killStreams.Add(-1) >= 0 {
			w.Header().Set("Content-Type", "application/x-ndjson")
			w.WriteHeader(http.StatusOK)
			if _, err := w.Write([]byte(`{"type":"start","schema":"mkss-sweep/v1"}` + "\n")); err == nil {
				if f, ok := w.(http.Flusher); ok {
					f.Flush()
				}
			}
			panic(http.ErrAbortHandler) // worker "dies" mid-unit
		}
		if d := c.stallNS.Load(); d > 0 {
			select {
			case <-r.Context().Done():
				panic(http.ErrAbortHandler)
			case <-time.After(time.Duration(d)):
			}
		}
	}
	c.inner.ServeHTTP(w, r)
}

// newWorker boots one real mkservd worker behind an optional chaos
// wrapper and returns its address (host:port).
func newWorker(t *testing.T) (string, *chaos) {
	t.Helper()
	s := serve.NewServer(serve.Config{})
	c := &chaos{inner: s.Handler()}
	ts := httptest.NewServer(c)
	t.Cleanup(ts.Close)
	return strings.TrimPrefix(ts.URL, "http://"), c
}

// fastConfig returns a Config tuned for test latencies.
func fastConfig(t *testing.T, workers []string, spec wire.SweepRequest) Config {
	return Config{
		Workers:      workers,
		Sweep:        mustSweep(t, spec),
		Tick:         10 * time.Millisecond,
		ProbeBackoff: 10 * time.Millisecond,
		ProbeMax:     50 * time.Millisecond,
		AllDownGrace: 2 * time.Second,
	}
}

// runFleet runs a coordinator to completion, returning the emitted
// lines, the summary and the error.
func runFleet(t *testing.T, cfg Config) ([][]byte, *Summary, error) {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var lines [][]byte
	sum, err := c.Run(context.Background(), func(line []byte) error {
		lines = append(lines, append([]byte(nil), line...))
		return nil
	})
	return lines, sum, err
}

// checkStream asserts the emitted stream is start + the reference rows
// in interval order + done, byte for byte.
func checkStream(t *testing.T, lines [][]byte, want [][]byte) {
	t.Helper()
	if len(lines) != len(want)+2 {
		t.Fatalf("got %d lines, want %d (start + %d rows + done)", len(lines), len(want)+2, len(want))
	}
	if !strings.Contains(string(lines[0]), `"type":"start"`) {
		t.Fatalf("first line %s is not a start line", lines[0])
	}
	if !strings.Contains(string(lines[len(lines)-1]), `"type":"done"`) {
		t.Fatalf("last line %s is not a done line", lines[len(lines)-1])
	}
	for i, w := range want {
		if got := string(lines[1+i]); got != string(w) {
			t.Errorf("row %d differs from batch run:\n got  %s\n want %s", i, got, w)
		}
	}
}

// TestFleetMatchesBatch pins the headline property: a sweep distributed
// over two workers merges to the exact bytes of a single-process batch
// run.
func TestFleetMatchesBatch(t *testing.T) {
	a, _ := newWorker(t)
	b, _ := newWorker(t)
	spec := testSpec()
	lines, sum, err := runFleet(t, fastConfig(t, []string{a, b}, spec))
	if err != nil {
		t.Fatal(err)
	}
	checkStream(t, lines, referenceRows(t, spec))
	if sum.Units != 3 || sum.Dispatched != 3 || sum.Failed != 0 {
		t.Errorf("summary = %+v, want 3 units, 3 dispatched, 0 failed", sum)
	}
}

// TestFleetWorkerKilledMidUnit pins the retry path: a worker dying
// mid-stream costs a retry on another worker, never a wrong or missing
// row.
func TestFleetWorkerKilledMidUnit(t *testing.T) {
	a, ca := newWorker(t)
	b, _ := newWorker(t)
	ca.killStreams.Store(1) // first sweep unit sent to a dies mid-stream
	spec := testSpec()
	lines, sum, err := runFleet(t, fastConfig(t, []string{a, b}, spec))
	if err != nil {
		t.Fatal(err)
	}
	checkStream(t, lines, referenceRows(t, spec))
	if sum.Failed != 1 || sum.Retried != 1 {
		t.Errorf("summary = %+v, want exactly 1 failed and 1 retried", sum)
	}
	if sum.Workers[0].Markdowns != 1 {
		t.Errorf("worker %s markdowns = %d, want 1 (truncated stream marks it down)", a, sum.Workers[0].Markdowns)
	}
}

// TestFleetAllWorkersDown pins the clean-failure path: with every worker
// unreachable the sweep fails after the grace window with a loud error,
// and the store reopens with nothing to recover.
func TestFleetAllWorkersDown(t *testing.T) {
	// Real listeners, immediately closed: dispatches fail fast with
	// connection-refused, the way a dead machine looks.
	dead := func() string {
		ts := httptest.NewServer(http.NotFoundHandler())
		addr := strings.TrimPrefix(ts.URL, "http://")
		ts.Close()
		return addr
	}
	spec := testSpec()
	dir := filepath.Join(t.TempDir(), "store")
	cfg := fastConfig(t, []string{dead(), dead()}, spec)
	cfg.AllDownGrace = 100 * time.Millisecond
	cfg.MaxUnitFailures = 1000 // the grace window, not the budget, must fire
	cfg.Store = openStore(t, dir)
	_, sum, err := runFleet(t, cfg)
	if err == nil || !strings.Contains(err.Error(), "all 2 workers down") {
		t.Fatalf("err = %v, want all-workers-down failure", err)
	}
	if sum == nil || sum.Failed == 0 {
		t.Errorf("summary = %+v, want recorded failures", sum)
	}
	checkReopens(t, cfg.Store, dir)
}

// checkReopens closes st and reopens its directory: a sweep that failed
// before any unit completed must leave a store with no torn tail to
// recover and no key.
func checkReopens(t *testing.T, st *store.Store, dir string) {
	t.Helper()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	re := openStore(t, dir)
	defer re.Close() //mklint:allow errdrop — test cleanup
	if s := re.Stats(); s.CorruptRecovered != 0 || s.Keys != 0 {
		t.Errorf("reopened store = %+v, want no recovery and no keys (nothing completed)", s)
	}
}

// TestFleetResume pins resuming through the store: a store holding two
// of the three units makes the run dispatch exactly the missing one,
// with the merged stream still byte-identical to the batch run, and
// leaves all three stored.
func TestFleetResume(t *testing.T) {
	a, _ := newWorker(t)
	spec := testSpec()
	want := referenceRows(t, spec)
	sw := mustSweep(t, spec)
	ivs := sw.Intervals()

	cfg := fastConfig(t, []string{a}, spec)
	cfg.Store = openStore(t, filepath.Join(t.TempDir(), "store"))
	defer cfg.Store.Close() //mklint:allow errdrop — test cleanup
	for _, u := range []int{0, 2} {
		if err := cfg.Store.Put(sw.UnitKey(ivs[u], u), want[u]); err != nil {
			t.Fatal(err)
		}
	}
	lines, sum, err := runFleet(t, cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkStream(t, lines, want)
	if sum.FromStore != 2 || sum.Dispatched != 1 {
		t.Errorf("summary = %+v, want 2 from store and exactly 1 dispatched", sum)
	}
	for u := range want {
		if got, ok := cfg.Store.Get(sw.UnitKey(ivs[u], u)); !ok || string(got) != string(want[u]) {
			t.Errorf("stored row %d = %q (hit %v), want the batch run's", u, got, ok)
		}
	}
}

// TestFleetResumeIgnoresForeignRows pins the sweep identity of a unit
// key: a store filled by a different sweep (seed 999) satisfies no unit,
// so its rows are never merged into this sweep's stream.
func TestFleetResumeIgnoresForeignRows(t *testing.T) {
	a, _ := newWorker(t)
	spec := testSpec()
	other := spec
	other.Seed = 999
	st := openStore(t, filepath.Join(t.TempDir(), "store"))
	defer st.Close() //mklint:allow errdrop — test cleanup

	cfg := fastConfig(t, []string{a}, other)
	cfg.Store = st
	if _, sum, err := runFleet(t, cfg); err != nil || sum.Dispatched != 3 {
		t.Fatalf("seed-999 run: err=%v summary=%+v, want 3 dispatched", err, sum)
	}
	cfg = fastConfig(t, []string{a}, spec)
	cfg.Store = st
	lines, sum, err := runFleet(t, cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkStream(t, lines, referenceRows(t, spec))
	if sum.FromStore != 0 || sum.Dispatched != 3 {
		t.Errorf("summary = %+v, want 0 from store and 3 dispatched", sum)
	}
}

// TestFleetHedgedStraggler pins tail-latency hedging: a stalled worker's
// unit is duplicated onto a second worker, the fast copy wins, the
// straggler is cancelled, and the output is still the batch run's.
func TestFleetHedgedStraggler(t *testing.T) {
	a, ca := newWorker(t)
	b, _ := newWorker(t)
	ca.stallNS.Store(int64(10 * time.Second)) // far beyond the test's life
	spec := testSpec()
	spec.Hi = 0.4 // one unit: deterministic dispatch to worker a
	cfg := fastConfig(t, []string{a, b}, spec)
	cfg.Hedge = 50 * time.Millisecond
	lines, sum, err := runFleet(t, cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkStream(t, lines, referenceRows(t, spec))
	if sum.Hedged != 1 || sum.Cancelled != 1 {
		t.Errorf("summary = %+v, want exactly 1 hedged and 1 cancelled", sum)
	}
	if sum.Workers[1].Won != 1 {
		t.Errorf("worker %s won = %d, want 1 (hedge copy finished first)", b, sum.Workers[1].Won)
	}
}

// TestFleetInterrupted pins cancellation: aborting the run context fails
// the sweep with an "interrupted" error, and the store reopens with
// nothing to recover.
func TestFleetInterrupted(t *testing.T) {
	a, ca := newWorker(t)
	ca.stallNS.Store(int64(10 * time.Second))
	spec := testSpec()
	dir := filepath.Join(t.TempDir(), "store")
	cfg := fastConfig(t, []string{a}, spec)
	cfg.Store = openStore(t, dir)
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(100 * time.Millisecond)
		cancel()
	}()
	_, err = c.Run(ctx, func([]byte) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "interrupted") {
		t.Fatalf("err = %v, want interrupted failure", err)
	}
	checkReopens(t, cfg.Store, dir)
}

// TestSweepSpecNormalize pins how the coordinator's sweep is settled:
// serve.NormalizeSweep's defaults, refusals and canonical names, New's
// refusal of an interval offset, and the default unit timeout.
func TestSweepSpecNormalize(t *testing.T) {
	sw := mustSweep(t, wire.SweepRequest{})
	if r := sw.Req; r.Seed != 2020 || r.SetsPerInterval != 3 || r.MaxCandidates != 500 ||
		r.Lo != 0.1 || r.Hi != 1.0 {
		t.Errorf("defaults = %+v", r)
	}
	if len(sw.Req.Approaches) != 3 || sw.Req.Approaches[0] != "MKSS-ST" {
		t.Errorf("approaches = %v, want canonical names", sw.Req.Approaches)
	}
	if _, err := serve.NormalizeSweep(wire.SweepRequest{Lo: 0.5, Hi: 0.4}); err == nil {
		t.Error("hi <= lo accepted")
	}
	if _, err := serve.NormalizeSweep(wire.SweepRequest{Lo: 2.5e15, Hi: 2500000000000000.5}); !errors.Is(err, workload.ErrHiAboveOne) {
		t.Errorf("hi past 1: err = %v, want %v", err, workload.ErrHiAboveOne)
	}
	if _, err := serve.NormalizeSweep(wire.SweepRequest{Approaches: []string{"bogus"}}); err == nil {
		t.Error("unknown approach accepted")
	}
	// Spelling variants land on the same unit key.
	s1 := mustSweep(t, wire.SweepRequest{Approaches: []string{"st"}})
	s2 := mustSweep(t, wire.SweepRequest{Approaches: []string{"MKSS-ST"}})
	if k1, k2 := s1.UnitKey(s1.Intervals()[0], 0), s2.UnitKey(s2.Intervals()[0], 0); k1 != k2 {
		t.Errorf("keys differ across spellings: %q vs %q", k1, k2)
	}

	c, err := New(Config{Workers: []string{"127.0.0.1:1"}, Sweep: sw})
	if err != nil {
		t.Fatal(err)
	}
	if c.unitTimeout != 2*time.Minute || c.sweep.Req.TimeoutMS != 120000 {
		t.Errorf("unit timeout = %v (timeout_ms %v), want the 2 min default", c.unitTimeout, c.sweep.Req.TimeoutMS)
	}
	sw.Req.IntervalOffset = 1
	if _, err := New(Config{Workers: []string{"127.0.0.1:1"}, Sweep: sw}); err == nil {
		t.Error("New accepted a non-zero interval_offset")
	}
}
