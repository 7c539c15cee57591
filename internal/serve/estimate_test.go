package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/url"
	"strings"
	"testing"
	"time"

	"repro"
	"repro/internal/serve/wire"
)

// estimateURL builds the GET form of an estimate query.
func estimateURL(base string, params map[string]string) string {
	q := url.Values{}
	spec, _ := json.Marshal(paperSpec())
	q.Set("set", string(spec))
	for k, v := range params {
		q.Set(k, v)
	}
	return base + "/v1/estimate?" + q.Encode()
}

func decodeEstimate(t *testing.T, resp *http.Response) wire.EstimateDoc {
	t.Helper()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, readAll(t, resp))
	}
	var doc wire.EstimateDoc
	dec := json.NewDecoder(resp.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close() //mklint:allow errdrop — test helper, read-only body
	return doc
}

// GET /v1/estimate answers from the analytical twin: exact verdicts,
// sub-millisecond service time once the per-set products are memoized.
func TestEstimateGET(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	get := func() wire.EstimateDoc {
		resp, err := http.Get(estimateURL(ts.URL, map[string]string{
			"approach": "dp", "horizon_ms": "100", "seed": "7",
		}))
		if err != nil {
			t.Fatal(err)
		}
		return decodeEstimate(t, resp)
	}
	doc := get()
	if doc.Schema != wire.EstimateSchema {
		t.Errorf("schema %q, want %q", doc.Schema, wire.EstimateSchema)
	}
	if doc.Backend != "twin" || doc.Exact {
		t.Errorf("backend %q exact %v, want default twin/inexact", doc.Backend, doc.Exact)
	}
	if doc.Policy != "MKSS-DP" || doc.Scenario != "no-fault" || doc.Seed != 7 {
		t.Errorf("echoed run identity wrong: %+v", doc)
	}
	if !doc.Schedulable || !doc.MKPredicted {
		t.Error("paper set must be schedulable and (m,k)-satisfying")
	}
	if doc.Fingerprint == "" || doc.HorizonUS != 100_000 {
		t.Errorf("fingerprint %q horizon %d", doc.Fingerprint, doc.HorizonUS)
	}
	if doc.ActiveEnergy != 75 {
		t.Errorf("DP twin active energy %v, want the hand-derived 75", doc.ActiveEnergy)
	}
	// Warm answers must be sub-millisecond (the <1ms serving target): take
	// the fastest of a few to keep scheduler jitter out of the assertion.
	best := get().ElapsedUS
	for i := 0; i < 3; i++ {
		if e := get().ElapsedUS; e < best {
			best = e
		}
	}
	if best >= 1000 {
		t.Errorf("warm estimate took %dµs, want <1000µs", best)
	}
}

// POST with the same parameters answers identically (modulo timing).
func TestEstimatePOSTMatchesGET(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(estimateURL(ts.URL, map[string]string{"approach": "st", "horizon_ms": "100"}))
	if err != nil {
		t.Fatal(err)
	}
	got := decodeEstimate(t, resp)
	want := decodeEstimate(t, postJSON(t, ts.URL+"/v1/estimate", wire.EstimateRequest{
		Set: paperSpec(), Approach: "st", HorizonMS: 100,
	}))
	got.ElapsedUS, want.ElapsedUS = 0, 0
	if got != want {
		t.Errorf("GET %+v != POST %+v", got, want)
	}
}

// refine=true must return the byte-identical mkss-run/v1 document that
// POST /v1/simulate produces for the same parameters.
func TestEstimateRefineByteIdentical(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, scenario := range []string{"none", "permanent"} {
		refined := readAll(t, postJSON(t, ts.URL+"/v1/estimate", wire.EstimateRequest{
			Set: paperSpec(), Approach: "selective", Scenario: scenario,
			Seed: 42, HorizonMS: 100, Refine: true,
		}))
		direct := readAll(t, postJSON(t, ts.URL+"/v1/simulate", wire.SimulateRequest{
			Set: paperSpec(), Approach: "selective", Scenario: scenario,
			Seed: 42, HorizonMS: 100,
		}))
		if string(refined) != string(direct) {
			t.Errorf("%s: refine=true diverged from /v1/simulate:\n%s\nvs\n%s",
				scenario, refined, direct)
		}
		var doc wire.RunDoc
		if err := json.Unmarshal(refined, &doc); err != nil {
			t.Fatal(err)
		}
		if doc.Schema != wire.RunSchema {
			t.Errorf("refined schema %q, want %q", doc.Schema, wire.RunSchema)
		}
	}
}

// The twin path must not consume an execution slot: with every slot held
// and the queue full, estimates still answer while simulations 429.
func TestEstimateNeedsNoExecutionSlot(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxInFlight: 1, QueueDepth: -1})
	release, err := s.adm.acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer release()

	resp := postJSON(t, ts.URL+"/v1/simulate", wire.SimulateRequest{Set: paperSpec(), Approach: "st", HorizonMS: 100})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated simulate status %d, want 429", resp.StatusCode)
	}
	readAll(t, resp)

	get, err := http.Get(estimateURL(ts.URL, map[string]string{"approach": "st", "horizon_ms": "100"}))
	if err != nil {
		t.Fatal(err)
	}
	if doc := decodeEstimate(t, get); !doc.Schedulable {
		t.Error("estimate under saturation returned wrong answer")
	}
}

// The twin has no model for dynamically promoted policies: asking it
// about MKSS-DBP must be a structured 501 (never a silently wrong
// zero-activity estimate), while refine=true falls through to the
// simulator, which runs DBP like any other registered policy.
func TestEstimateTwinUnsupportedDBP(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, backend := range []string{"", "twin"} {
		resp := postJSON(t, ts.URL+"/v1/estimate", wire.EstimateRequest{
			Set: paperSpec(), Approach: "dbp", HorizonMS: 100, Backend: backend,
		})
		body := readAll(t, resp)
		if resp.StatusCode != http.StatusNotImplemented {
			t.Fatalf("backend %q: status %d, want 501 (%s)", backend, resp.StatusCode, body)
		}
		var doc wire.ErrorDoc
		if err := json.Unmarshal(body, &doc); err != nil {
			t.Fatalf("backend %q: body %q not an wire.ErrorDoc: %v", backend, body, err)
		}
		if doc.Code != wire.CodeUnsupportedBackend || doc.Error == "" {
			t.Errorf("backend %q: error doc %+v, want code %q", backend, doc, wire.CodeUnsupportedBackend)
		}
	}

	// refine=true short-circuits to the simulation core before the twin
	// is asked: a full mkss-run/v1 document, byte-identical to
	// /v1/simulate.
	refined := readAll(t, postJSON(t, ts.URL+"/v1/estimate", wire.EstimateRequest{
		Set: paperSpec(), Approach: "dbp", HorizonMS: 100, Refine: true,
	}))
	direct := readAll(t, postJSON(t, ts.URL+"/v1/simulate", wire.SimulateRequest{
		Set: paperSpec(), Approach: "dbp", HorizonMS: 100,
	}))
	if string(refined) != string(direct) {
		t.Errorf("refine=true for dbp diverged from /v1/simulate:\n%s\nvs\n%s", refined, direct)
	}
	var run wire.RunDoc
	if err := json.Unmarshal(refined, &run); err != nil {
		t.Fatal(err)
	}
	if run.Schema != wire.RunSchema || run.Policy != "MKSS-DBP" {
		t.Errorf("refined doc schema %q policy %q, want %q/MKSS-DBP", run.Schema, run.Policy, wire.RunSchema)
	}
}

// A set whose mandatory jobs backlog is refused with a structured 422
// before the twin's profile walk, which would copy the growing backlog
// on every job it queues (hours for this body at the default cap). The
// client deadline turns a regression into a failure, not a silent
// stall; refine=true still simulates the set.
func TestEstimateUnschedulableRefusedPromptly(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	backlog := repro.SetSpec{Tasks: []repro.TaskSpec{
		{PeriodMS: 0.002, WCETMS: 0.002, M: 1, K: 1},
		{PeriodMS: 0.003, WCETMS: 0.001, M: 1, K: 1},
		{PeriodMS: 999.983, WCETMS: 0.001, M: 1, K: 2},
	}}
	body, err := json.Marshal(wire.EstimateRequest{Set: backlog, Approach: "selective", TimeoutMS: 2000})
	if err != nil {
		t.Fatal(err)
	}
	cl := &http.Client{Timeout: 10 * time.Second}
	resp, err := cl.Post(ts.URL+"/v1/estimate", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("twin estimate of a backlogging set: %v", err)
	}
	got := readAll(t, resp)
	var doc wire.ErrorDoc
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status %d, want 422 (%s)", resp.StatusCode, got)
	}
	if err := json.Unmarshal(got, &doc); err != nil || doc.Code != wire.CodeUnprocessable || doc.Error == "" {
		t.Errorf("error doc %s (err %v), want code %q", got, err, wire.CodeUnprocessable)
	}

	refined := postJSON(t, ts.URL+"/v1/estimate", wire.EstimateRequest{
		Set: backlog, Approach: "st", HorizonMS: 10, Refine: true,
	})
	var run wire.RunDoc
	if err := json.Unmarshal(readAll(t, refined), &run); err != nil || refined.StatusCode != http.StatusOK {
		t.Fatalf("refine=true: status %d, err %v", refined.StatusCode, err)
	}
	if run.Schema != wire.RunSchema || run.Schedulable {
		t.Errorf("refined doc schema %q schedulable %v, want %q and false", run.Schema, run.Schedulable, wire.RunSchema)
	}

	// selective runs the θ analysis in its Init, outside any context: on
	// this set each window of τ3 holds about 830,000 higher-priority
	// backup jobs, which a quadratic Eq. (4) took about an hour over. The
	// client bound leaves room for the race detector, not for that.
	body, err = json.Marshal(wire.EstimateRequest{Set: backlog, Approach: "selective", HorizonMS: 10, Refine: true})
	if err != nil {
		t.Fatal(err)
	}
	slow := &http.Client{Timeout: 30 * time.Second}
	resp, err = slow.Post(ts.URL+"/v1/estimate", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("selective refine=true on a backlogging set: %v", err)
	}
	got = readAll(t, resp)
	run = wire.RunDoc{}
	if err := json.Unmarshal(got, &run); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("selective refine=true: status %d, err %v (%s)", resp.StatusCode, err, got)
	}
	if run.Schema != wire.RunSchema || run.Schedulable {
		t.Errorf("selective refined doc schema %q schedulable %v, want %q and false", run.Schema, run.Schedulable, wire.RunSchema)
	}
}

func TestEstimateBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name string
		do   func() (*http.Response, error)
	}{
		{"unknown backend", func() (*http.Response, error) {
			return post(ts.URL+"/v1/estimate", wire.EstimateRequest{Set: paperSpec(), Approach: "st", Backend: "oracle"})
		}},
		{"sim backend", func() (*http.Response, error) {
			return post(ts.URL+"/v1/estimate", wire.EstimateRequest{Set: paperSpec(), Approach: "st", Backend: "sim"})
		}},
		{"bad set query", func() (*http.Response, error) {
			return http.Get(ts.URL + "/v1/estimate?set=notjson")
		}},
		{"bad refine flag", func() (*http.Response, error) {
			return http.Get(estimateURL(ts.URL, map[string]string{"refine": "perhaps"}))
		}},
		{"bad approach", func() (*http.Response, error) {
			return post(ts.URL+"/v1/estimate", wire.EstimateRequest{Set: paperSpec(), Approach: "edf"})
		}},
	}
	for _, c := range cases {
		resp, err := c.do()
		if err != nil {
			t.Fatal(err)
		}
		var doc wire.ErrorDoc
		body := readAll(t, resp)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", c.name, resp.StatusCode, body)
			continue
		}
		if err := json.Unmarshal(body, &doc); err != nil || doc.Code != wire.CodeBadRequest || doc.Error == "" {
			t.Errorf("%s: error doc %s (err %v)", c.name, body, err)
		}
	}
}

// Every route answers a wrong-method request with a structured 405 JSON
// error, not a bare status or an empty body.
func TestWrongMethodAllRoutes(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	routes := []struct {
		path   string
		method string // a method the route does not serve
	}{
		{"/v1/simulate", http.MethodGet},
		{"/v1/sweep", http.MethodGet},
		{"/v1/estimate", http.MethodDelete},
		{"/v1/analyze", http.MethodDelete},
		{"/healthz", http.MethodPost},
		{"/metrics", http.MethodPost},
	}
	for _, rt := range routes {
		req, err := http.NewRequest(rt.method, ts.URL+rt.path, strings.NewReader("{}"))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body := readAll(t, resp)
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("%s %s: status %d, want 405", rt.method, rt.path, resp.StatusCode)
			continue
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s %s: Content-Type %q, want application/json", rt.method, rt.path, ct)
		}
		var doc wire.ErrorDoc
		if err := json.Unmarshal(body, &doc); err != nil {
			t.Errorf("%s %s: body %q not an wire.ErrorDoc: %v", rt.method, rt.path, body, err)
			continue
		}
		if doc.Code != wire.CodeMethodNotAllowed || doc.Error == "" {
			t.Errorf("%s %s: error doc %+v", rt.method, rt.path, doc)
		}
	}
}
