package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"
	"time"

	"repro"
	"repro/internal/workload"
)

// paperSpec is the §III demo set as the JSON the endpoints accept.
func paperSpec() repro.SetSpec {
	return repro.SetSpec{Tasks: []repro.TaskSpec{
		{PeriodMS: 5, DeadlineMS: 4, WCETMS: 3, M: 2, K: 4},
		{PeriodMS: 10, DeadlineMS: 10, WCETMS: 3, M: 1, K: 2},
	}}
}

func paperSet(t *testing.T) *repro.Set {
	t.Helper()
	set, err := paperSpec().Set()
	if err != nil {
		t.Fatal(err)
	}
	return set
}

// newTestServer builds a Server and an httptest front for it.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := NewServer(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// post is the goroutine-safe request helper (no testing.T calls).
func post(url string, body any) (*http.Response, error) {
	data, err := json.Marshal(body)
	if err != nil {
		return nil, err
	}
	return http.Post(url, "application/json", bytes.NewReader(data))
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	resp, err := post(url, body)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func readAll(t *testing.T, resp *http.Response) []byte {
	t.Helper()
	defer resp.Body.Close() //mklint:allow errdrop — test helper, read-only body
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// waitFlight waits until the server's coalescer holds exactly one open
// flight and returns it.
func waitFlight(t *testing.T, s *Server) *flight {
	t.Helper()
	for deadline := 0; ; deadline++ {
		var f *flight
		s.flights.mu.Lock()
		for _, open := range s.flights.open {
			f = open
		}
		n := len(s.flights.open)
		s.flights.mu.Unlock()
		if n == 1 {
			return f
		}
		if deadline > 5000 {
			t.Fatal("first request never opened a flight")
		}
		time.Sleep(time.Millisecond)
	}
}

// waitSubscribers waits until n requests are attached to flight f.
func waitSubscribers(t *testing.T, f *flight, n int) {
	t.Helper()
	for deadline := 0; ; deadline++ {
		f.mu.Lock()
		subs := f.subs
		f.mu.Unlock()
		if subs == n {
			return
		}
		if deadline > 5000 {
			t.Fatalf("%d of %d requests joined the flight", subs, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSimulateMatchesLibrary checks that POST /v1/simulate returns the
// identical numbers the library produces for the paper's Figure 2 run.
func TestSimulateMatchesLibrary(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp := postJSON(t, ts.URL+"/v1/simulate", SimulateRequest{
		Set: paperSpec(), Approach: "selective", HorizonMS: 20,
	})
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var doc RunDoc
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("decode: %v", err)
	}
	want, err := repro.Simulate(paperSet(t), repro.Selective, repro.RunConfig{HorizonMS: 20})
	if err != nil {
		t.Fatal(err)
	}
	if doc.Schema != RunSchema {
		t.Errorf("schema = %q, want %q", doc.Schema, RunSchema)
	}
	if doc.Fingerprint == "" {
		t.Error("empty fingerprint")
	}
	if doc.ActiveEnergy != want.ActiveEnergy() {
		t.Errorf("active energy = %v, want %v", doc.ActiveEnergy, want.ActiveEnergy())
	}
	if doc.TotalEnergy != want.TotalEnergy() {
		t.Errorf("total energy = %v, want %v", doc.TotalEnergy, want.TotalEnergy())
	}
	if doc.MKSatisfied != want.MKSatisfied() {
		t.Errorf("mk_satisfied = %v, want %v", doc.MKSatisfied, want.MKSatisfied())
	}
	if !doc.Schedulable {
		t.Error("the paper's set must be R-pattern schedulable")
	}
}

// TestSimulateBadRequests covers the 400 vocabulary: field-path
// validation errors, unknown approaches, unknown JSON fields.
func TestSimulateBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name string
		body string
		want string
	}{
		{"field path", `{"set":{"tasks":[{"period_ms":5,"deadline_ms":4,"wcet_ms":-3,"m":2,"k":4}]}}`, "tasks[0]"},
		{"unknown approach", `{"set":{"tasks":[{"period_ms":5,"deadline_ms":4,"wcet_ms":3,"m":2,"k":4}]},"approach":"nope"}`,
			`"error":"core: unknown approach \"nope\" (want one of MKSS-ST, MKSS-DP, MKSS-greedy, MKSS-selective, MKSS-DP-background, MKSS-DBP)"`},
		{"unknown field", `{"sett":{}}`, "sett"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+"/v1/simulate", "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			body := readAll(t, resp)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d, want 400: %s", resp.StatusCode, body)
			}
			if !strings.Contains(string(body), tc.want) {
				t.Fatalf("error %s does not mention %q", body, tc.want)
			}
		})
	}
}

// TestSimulateCoalescing holds the server's only execution slot so two
// identical concurrent requests must coalesce: one flight, one leader,
// one follower with the X-Mkss-Coalesced marker and identical bytes.
func TestSimulateCoalescing(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxInFlight: 1, QueueDepth: 8})
	release, err := s.adm.acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	req := SimulateRequest{Set: paperSpec(), Approach: "selective", HorizonMS: 20}
	type result struct {
		body      []byte
		coalesced bool
		status    int
		err       error
	}
	results := make(chan result, 2)
	do := func() {
		resp, err := post(ts.URL+"/v1/simulate", req)
		if err != nil {
			results <- result{err: err}
			return
		}
		body, rerr := io.ReadAll(resp.Body)
		if cerr := resp.Body.Close(); rerr == nil {
			rerr = cerr
		}
		results <- result{body, resp.Header.Get("X-Mkss-Coalesced") != "", resp.StatusCode, rerr}
	}
	go do()
	// Wait until the first request's flight is open (its leader is parked
	// on the occupied slot) before firing the second.
	f := waitFlight(t, s)
	go do()
	waitSubscribers(t, f, 2)
	release()
	a, b := <-results, <-results
	if a.err != nil || b.err != nil {
		t.Fatalf("request errors: %v / %v", a.err, b.err)
	}
	if a.status != http.StatusOK || b.status != http.StatusOK {
		t.Fatalf("statuses %d/%d: %s %s", a.status, b.status, a.body, b.body)
	}
	if !bytes.Equal(a.body, b.body) {
		t.Fatal("coalesced responses differ")
	}
	if a.coalesced == b.coalesced {
		t.Fatalf("want exactly one coalesced follower, got %v/%v", a.coalesced, b.coalesced)
	}
	if got := s.coalesced.Load(); got != 1 {
		t.Fatalf("coalesced counter = %d, want 1", got)
	}
}

// TestSimulateAndRefineShareOneLeader fires /v1/simulate and
// /v1/estimate?refine=true for one run while the only slot is held:
// both attach to one flight, so the server runs one simulation, marks
// one response coalesced, and both bodies are byte-identical.
func TestSimulateAndRefineShareOneLeader(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxInFlight: 1, QueueDepth: 8})
	release, err := s.adm.acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	type result struct {
		body      []byte
		coalesced bool
		status    int
		err       error
	}
	results := make(chan result, 2)
	do := func(path string, body any) {
		resp, err := post(ts.URL+path, body)
		if err != nil {
			results <- result{err: err}
			return
		}
		data, rerr := io.ReadAll(resp.Body)
		if cerr := resp.Body.Close(); rerr == nil {
			rerr = cerr
		}
		results <- result{data, resp.Header.Get("X-Mkss-Coalesced") != "", resp.StatusCode, rerr}
	}
	go do("/v1/simulate", SimulateRequest{Set: paperSpec(), Approach: "dp", Seed: 9, HorizonMS: 40})
	f := waitFlight(t, s)
	go do("/v1/estimate", EstimateRequest{Set: paperSpec(), Approach: "dp", Seed: 9, HorizonMS: 40, Refine: true})
	waitSubscribers(t, f, 2)
	release()
	a, b := <-results, <-results
	if a.err != nil || b.err != nil {
		t.Fatalf("request errors: %v / %v", a.err, b.err)
	}
	if a.status != http.StatusOK || b.status != http.StatusOK {
		t.Fatalf("statuses %d/%d: %s %s", a.status, b.status, a.body, b.body)
	}
	if !bytes.Equal(a.body, b.body) {
		t.Fatalf("simulate and refine bodies differ:\n%s\n%s", a.body, b.body)
	}
	if a.coalesced == b.coalesced {
		t.Fatalf("want exactly one coalesced follower, got %v/%v", a.coalesced, b.coalesced)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if metrics := string(readAll(t, resp)); !strings.Contains(metrics, "\nmkss_runs_total 1\n") {
		t.Fatalf("want one executed run:\n%s", metrics)
	}
}

// TestAnalyze exercises GET /v1/analyze via both the query parameter and
// the request body, and checks the served products against the library.
func TestAnalyze(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	spec, err := json.Marshal(paperSpec())
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/v1/analyze?set=" + url.QueryEscape(string(spec)))
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var doc AnalyzeDoc
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Schema != AnalyzeSchema {
		t.Errorf("schema = %q, want %q", doc.Schema, AnalyzeSchema)
	}
	if len(doc.Tasks) != 2 {
		t.Fatalf("tasks = %d, want 2", len(doc.Tasks))
	}
	set := paperSet(t)
	if !doc.Schedulable || doc.Schedulable != repro.RPatternSchedulable(set) {
		t.Errorf("schedulable = %v, want %v", doc.Schedulable, repro.RPatternSchedulable(set))
	}
	theta, err := repro.PostponementIntervals(set)
	if err != nil {
		t.Fatal(err)
	}
	promo := repro.PromotionTimes(set)
	for i, at := range doc.Tasks {
		if at.ThetaUS == nil || *at.ThetaUS != int64(theta[i]) {
			t.Errorf("task %d theta = %v, want %d", i, at.ThetaUS, theta[i])
		}
		if at.PromotionUS != int64(promo[i]) {
			t.Errorf("task %d promotion = %d, want %d", i, at.PromotionUS, promo[i])
		}
		if !at.RTAConverged {
			t.Errorf("task %d RTA did not converge", i)
		}
	}
	// A second query for the same set must be a cache hit (body form).
	resp2, err := http.Post(ts.URL+"/v1/analyze", "application/json", bytes.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	body2 := readAll(t, resp2)
	var doc2 AnalyzeDoc
	if err := json.Unmarshal(body2, &doc2); err != nil {
		t.Fatal(err)
	}
	if doc2.Cache.Hits == 0 {
		t.Errorf("repeat analyze missed the cache: %+v", doc2.Cache)
	}
	if st := s.runner.CacheStats(); st.Entries != 1 {
		t.Errorf("cache entries = %d, want 1 (same fingerprint)", st.Entries)
	}
}

// TestAnalyzeOverflowSet: two tasks with P = 4.8e15 ms and C = 4.7e15 ms
// pass SetSpec.Set(), but C₁ + C₂ passes the largest Time, and wrapped
// sums would spin ResponseTime's fixed point forever. The request must
// answer 200 within the client's deadline: τ2 cannot finish by its
// deadline, so its RTA does not converge and the mandatory jobs are not
// schedulable.
func TestAnalyzeOverflowSet(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body := `{"tasks":[{"period_ms":4.8e15,"wcet_ms":4.7e15,"m":1,"k":2},{"period_ms":4.8e15,"wcet_ms":4.7e15,"m":1,"k":2}]}`
	client := &http.Client{Timeout: 20 * time.Second}
	resp, err := client.Post(ts.URL+"/v1/analyze", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	data := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var doc AnalyzeDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Schedulable {
		t.Error("r_pattern_schedulable = true, want false")
	}
	if len(doc.Tasks) != 2 || doc.Tasks[1].RTAConverged {
		t.Errorf("tasks %+v: want τ2 with rta_converged false", doc.Tasks)
	}
}

// TestHealthzAndDrainGate checks the liveness document and the drain
// gate: once draining, /healthz flips to 503/draining and the work
// endpoints refuse new submissions.
func TestHealthzAndDrainGate(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"ok"`) {
		t.Fatalf("healthz = %d %s", resp.StatusCode, body)
	}
	s.draining.Store(true)
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body = readAll(t, resp)
	if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(string(body), "draining") {
		t.Fatalf("draining healthz = %d %s", resp.StatusCode, body)
	}
	resp = postJSON(t, ts.URL+"/v1/simulate", SimulateRequest{Set: paperSpec()})
	readAll(t, resp)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining simulate = %d, want 503", resp.StatusCode)
	}
}

// TestMetricsEndpoint runs one simulation and checks the text dump
// carries the server gauges, the cache counters, and the aggregated run
// counters.
func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	readAll(t, postJSON(t, ts.URL+"/v1/simulate", SimulateRequest{Set: paperSpec(), HorizonMS: 20}))
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body := string(readAll(t, resp))
	for _, want := range []string{
		"mkservd_requests_total 2",
		"mkservd_coalesced_total 0",
		"mkservd_rejected_total 0",
		"mkservd_inflight 0",
		"mkservd_cache_entries 1",
		"mkss_runs_total 1",
		"mkss_dispatches",
		"mkss_proc_0_busy_us",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q:\n%s", want, body)
		}
	}
}

// TestRateLimit verifies the token bucket at the HTTP boundary with an
// injected clock: the burst passes, the next request is 429 with a
// Retry-After, and time restores admission.
func TestRateLimit(t *testing.T) {
	clk := &fakeClock{}
	_, ts := newTestServer(t, Config{RatePerSec: 1, Burst: 1, Now: clk.now})
	get := func() *http.Response {
		resp := postJSON(t, ts.URL+"/v1/simulate", SimulateRequest{Set: paperSpec(), HorizonMS: 20})
		readAll(t, resp)
		return resp
	}
	if resp := get(); resp.StatusCode != http.StatusOK {
		t.Fatalf("burst request = %d, want 200", resp.StatusCode)
	}
	resp := get()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-rate request = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	clk.advance(2 * time.Second)
	if resp := get(); resp.StatusCode != http.StatusOK {
		t.Fatalf("post-refill request = %d, want 200", resp.StatusCode)
	}
}

// TestQueueFull fills the single slot and the zero-depth queue so a new
// request is rejected with 429 + Retry-After backpressure.
func TestQueueFull(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxInFlight: 1, QueueDepth: -1})
	release, err := s.adm.acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	resp := postJSON(t, ts.URL+"/v1/simulate", SimulateRequest{Set: paperSpec(), HorizonMS: 20})
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	if !strings.Contains(string(body), "queue full") {
		t.Fatalf("body %s does not mention the queue", body)
	}
	if s.rejected.Load() == 0 {
		t.Fatal("rejected counter not incremented")
	}
}

// TestSimulateDeadline gives a request a 1ms budget on a multi-hour
// simulation: the engine must abort at event-loop granularity and the
// handler must answer 504.
func TestSimulateDeadline(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp := postJSON(t, ts.URL+"/v1/simulate", SimulateRequest{
		Set: paperSpec(), HorizonMS: 1e8, TimeoutMS: 1,
	})
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504: %s", resp.StatusCode, body)
	}
}

// TestNonPositiveTimeoutMeansDefault pins that a zero or negative
// timeout_ms runs under the server default rather than expiring at once.
func TestNonPositiveTimeoutMeansDefault(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, ms := range []float64{0, -1, -1e300} {
		resp := postJSON(t, ts.URL+"/v1/simulate", SimulateRequest{Set: paperSpec(), HorizonMS: 20, TimeoutMS: ms})
		if body := readAll(t, resp); resp.StatusCode != http.StatusOK {
			t.Errorf("timeout_ms %v: status %d, want 200: %s", ms, resp.StatusCode, body)
		}
	}
}

// TestSweepDeadlineFreesSlot gives a sweep that would draw candidates
// for hours a 100 ms budget on a one-slot server with no queue: the
// stream must end with an error line (a 504 if the deadline beat the
// start line), and the sweep must give its slot back so a simulate miss
// right after it is admitted.
func TestSweepDeadlineFreesSlot(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxInFlight: 1, QueueDepth: -1})
	resp := postJSON(t, ts.URL+"/v1/sweep", SweepRequest{
		Lo: 0.9, SetsPerInterval: 1e6, MaxCandidates: 1 << 40, TimeoutMS: 100,
	})
	if resp.StatusCode == http.StatusGatewayTimeout {
		readAll(t, resp)
	} else {
		lines, err := sweepLines(resp)
		if err != nil {
			t.Fatal(err)
		}
		if n := len(lines); n == 0 || lines[n-1].Type != "error" {
			t.Fatalf("sweep stream = %+v, want it to end with an error line", lines)
		}
	}
	for deadline := time.Now().Add(5 * time.Second); ; {
		resp := postJSON(t, ts.URL+"/v1/simulate", SimulateRequest{Set: paperSpec(), HorizonMS: 20})
		body := readAll(t, resp)
		if resp.StatusCode == http.StatusOK {
			return
		}
		if resp.StatusCode != http.StatusTooManyRequests || time.Now().After(deadline) {
			t.Fatalf("simulate after the canceled sweep: status %d: %s", resp.StatusCode, body)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// sweepLines collects the JSONL lines of one /v1/sweep response
// (goroutine-safe).
func sweepLines(resp *http.Response) ([]SweepLine, error) {
	defer resp.Body.Close() //mklint:allow errdrop — test helper, read-only body
	var lines []SweepLine
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var l SweepLine
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			return nil, fmt.Errorf("parse line %q: %v", sc.Text(), err)
		}
		lines = append(lines, l)
	}
	return lines, sc.Err()
}

// TestSweepStreamMatchesBatch asserts the tentpole's determinism
// property: the streamed per-interval rows carry exactly the numbers a
// batch Runner.Sweep over the same range produces.
func TestSweepStreamMatchesBatch(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := SweepRequest{
		Seed: 7, SetsPerInterval: 2, MaxCandidates: 100,
		Lo: 0.3, Hi: 0.5, Approaches: []string{"st", "dp"},
	}
	resp := postJSON(t, ts.URL+"/v1/sweep", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, readAll(t, resp))
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("content type %q", ct)
	}
	lines, err := sweepLines(resp)
	if err != nil {
		t.Fatal(err)
	}
	if len(lines) != 4 { // start + 2 rows + done
		t.Fatalf("got %d lines, want 4: %+v", len(lines), lines)
	}
	if lines[0].Type != "start" || lines[0].Schema != SweepSchema || lines[0].Intervals != 2 {
		t.Fatalf("start line = %+v", lines[0])
	}
	if lines[3].Type != "done" {
		t.Fatalf("terminal line = %+v", lines[3])
	}

	cfg := repro.DefaultSweepConfig(repro.NoFault)
	cfg.Seed = 7
	cfg.SetsPerInterval = 2
	cfg.MaxCandidates = 100
	cfg.Approaches = []repro.Approach{repro.ST, repro.DP}
	cfg.Intervals = workload.Intervals(0.3, 0.5, 0.1)
	rep, err := repro.NewRunner(repro.RunnerConfig{}).Sweep(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range rep.Rows {
		got := lines[1+i]
		if got.Type != "row" || got.UtilLo != row.Interval.Lo || got.UtilHi != row.Interval.Hi {
			t.Fatalf("row %d header = %+v, want interval %+v", i, got, row.Interval)
		}
		if got.Sets != len(row.Sets) || got.Candidates != row.Candidates {
			t.Errorf("row %d sets/candidates = %d/%d, want %d/%d",
				i, got.Sets, got.Candidates, len(row.Sets), row.Candidates)
		}
		for _, a := range rep.Approaches {
			if got.NormMean[a.String()] != row.NormMean[a] {
				t.Errorf("row %d %s norm mean = %v, want %v (streamed rows must match batch bit for bit)",
					i, a, got.NormMean[a.String()], row.NormMean[a])
			}
			if got.Violations[a.String()] != row.Violations[a] {
				t.Errorf("row %d %s violations = %d, want %d",
					i, a, got.Violations[a.String()], row.Violations[a])
			}
		}
	}
}

// TestSweepCoalescing runs two identical sweeps where the second
// attaches while the first's leader still holds the only slot: both
// streams must carry identical rows and one must be marked coalesced.
func TestSweepCoalescing(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxInFlight: 1, QueueDepth: 8})
	release, err := s.adm.acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	req := SweepRequest{Seed: 7, SetsPerInterval: 1, MaxCandidates: 50, Lo: 0.3, Hi: 0.4, Approaches: []string{"st"}}
	type result struct {
		lines     []SweepLine
		coalesced bool
		err       error
	}
	results := make(chan result, 2)
	do := func() {
		resp, err := post(ts.URL+"/v1/sweep", req)
		if err != nil {
			results <- result{err: err}
			return
		}
		lines, err := sweepLines(resp)
		results <- result{lines, resp.Header.Get("X-Mkss-Coalesced") != "", err}
	}
	go do()
	f := waitFlight(t, s)
	go do()
	waitSubscribers(t, f, 2)
	release()
	a, b := <-results, <-results
	if a.err != nil || b.err != nil {
		t.Fatalf("stream errors: %v / %v", a.err, b.err)
	}
	if a.coalesced == b.coalesced {
		t.Fatalf("want exactly one coalesced stream, got %v/%v", a.coalesced, b.coalesced)
	}
	if fmt.Sprintf("%+v", a.lines) != fmt.Sprintf("%+v", b.lines) {
		t.Fatalf("coalesced streams differ:\n%+v\n%+v", a.lines, b.lines)
	}
	if s.coalesced.Load() != 1 {
		t.Fatalf("coalesced counter = %d, want 1", s.coalesced.Load())
	}
}

// TestRunGracefulDrain starts the managed lifecycle, serves a request,
// then cancels the context: Run must drain cleanly with zero aborted
// in-flight requests.
func TestRunGracefulDrain(t *testing.T) {
	var logMu sync.Mutex
	var logBuf bytes.Buffer
	s := NewServer(Config{DrainWindow: 2 * time.Second, Log: &lockedWriter{w: &logBuf, mu: &logMu}})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.Run(ctx, l) }()
	base := "http://" + l.Addr().String()
	resp := postJSON(t, base+"/v1/simulate", SimulateRequest{Set: paperSpec(), HorizonMS: 20})
	readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("simulate before drain = %d", resp.StatusCode)
	}
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run never returned after cancellation")
	}
	if got := s.aborted.Load(); got != 0 {
		t.Fatalf("aborted = %d in-flight on an idle drain, want 0", got)
	}
	logMu.Lock()
	logs := logBuf.String()
	logMu.Unlock()
	if !strings.Contains(logs, "drained") {
		t.Fatalf("drain summary missing from log:\n%s", logs)
	}
}

// TestRunDrainAbortsStragglers verifies the hard stop: a simulation that
// cannot finish inside the drain window has its work context canceled
// and is counted as aborted.
func TestRunDrainAbortsStragglers(t *testing.T) {
	s := NewServer(Config{DrainWindow: 50 * time.Millisecond})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.Run(ctx, l) }()
	base := "http://" + l.Addr().String()
	type result struct {
		status int
		err    error
	}
	resps := make(chan result, 1)
	go func() {
		// A simulation far larger than the drain window.
		resp, err := post(base+"/v1/simulate", SimulateRequest{Set: paperSpec(), HorizonMS: 1e8})
		if err != nil {
			resps <- result{err: err}
			return
		}
		_, rerr := io.Copy(io.Discard, resp.Body)
		if cerr := resp.Body.Close(); rerr == nil {
			rerr = cerr
		}
		resps <- result{resp.StatusCode, rerr}
	}()
	// Wait until the request is in flight before starting the drain.
	for deadline := 0; ; deadline++ {
		if s.inflight.Load() >= 1 {
			break
		}
		if deadline > 5000 {
			t.Fatal("long request never became in-flight")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("Run never returned; the straggler was not aborted")
	}
	if got := s.aborted.Load(); got == 0 {
		t.Fatal("aborted counter = 0, want the straggler counted")
	}
	select {
	case r := <-resps:
		if r.err == nil && r.status != http.StatusServiceUnavailable && r.status != http.StatusGatewayTimeout {
			t.Fatalf("aborted request status = %d, want 503/504", r.status)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("aborted request never completed")
	}
}

// lockedWriter serializes concurrent log writes in tests.
type lockedWriter struct {
	w  io.Writer
	mu *sync.Mutex
}

func (lw *lockedWriter) Write(p []byte) (int, error) {
	lw.mu.Lock()
	defer lw.mu.Unlock()
	return lw.w.Write(p)
}
