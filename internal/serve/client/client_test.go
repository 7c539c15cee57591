package client

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"repro"
	"repro/internal/serve"
	"repro/internal/serve/wire"
)

func paperSpec() repro.SetSpec {
	return repro.SetSpec{Tasks: []repro.TaskSpec{
		{PeriodMS: 5, DeadlineMS: 4, WCETMS: 3, M: 2, K: 4},
		{PeriodMS: 10, DeadlineMS: 10, WCETMS: 3, M: 1, K: 2},
	}}
}

// newServer boots a real serving stack and a client against it.
func newServer(t *testing.T, cfg serve.Config) *Client {
	t.Helper()
	ts := httptest.NewServer(serve.NewServer(cfg).Handler())
	t.Cleanup(ts.Close)
	return New(Config{Addr: strings.TrimPrefix(ts.URL, "http://")})
}

func TestSimulate(t *testing.T) {
	cl := newServer(t, serve.Config{})
	doc, info, err := cl.Simulate(context.Background(), wire.SimulateRequest{
		Set: paperSpec(), Approach: "selective", HorizonMS: 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	if doc.Schema != wire.RunSchema || !doc.MKSatisfied {
		t.Errorf("doc = %+v", doc)
	}
	if info.Status != http.StatusOK {
		t.Errorf("info = %+v", info)
	}
}

func TestAnalyze(t *testing.T) {
	cl := newServer(t, serve.Config{})
	doc, _, err := cl.Analyze(context.Background(), paperSpec())
	if err != nil {
		t.Fatal(err)
	}
	if doc.Schema != wire.AnalyzeSchema || len(doc.Tasks) != 2 {
		t.Errorf("doc = %+v", doc)
	}
}

func TestHTTPErrorCarriesServerCode(t *testing.T) {
	cl := newServer(t, serve.Config{})
	// An empty task set is a content error: rejected up front with the
	// machine-readable code, and not worth retrying anywhere.
	_, _, err := cl.Simulate(context.Background(), wire.SimulateRequest{Approach: "selective"})
	var herr *HTTPError
	if !errors.As(err, &herr) {
		t.Fatalf("err = %v, want *HTTPError", err)
	}
	if herr.Status != http.StatusBadRequest || herr.Code != wire.CodeBadRequest {
		t.Errorf("herr = %+v, want 400/%s", herr, wire.CodeBadRequest)
	}
	if herr.Retryable() {
		t.Error("content error marked retryable")
	}
}

func TestHealthz(t *testing.T) {
	cl := newServer(t, serve.Config{})
	doc, err := cl.Healthz(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if doc.Status != "ok" {
		t.Errorf("status = %q", doc.Status)
	}
}

func TestHealthzDraining(t *testing.T) {
	// A draining server answers 503 with a decodable body: the caller
	// gets both the doc and the *HTTPError, distinguishing "draining"
	// from "dead".
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		if _, err := w.Write([]byte(`{"status":"draining","inflight":2,"queued":0}`)); err != nil {
			t.Error(err)
		}
	}))
	t.Cleanup(ts.Close)
	cl := New(Config{Addr: ts.URL})
	doc, err := cl.Healthz(context.Background())
	var herr *HTTPError
	if !errors.As(err, &herr) || herr.Status != http.StatusServiceUnavailable {
		t.Fatalf("err = %v, want 503 *HTTPError", err)
	}
	if doc == nil || doc.Status != "draining" || doc.InFlight != 2 {
		t.Errorf("doc = %+v, want the draining body decoded", doc)
	}
}

func TestNoRetryOnContentError(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusBadRequest)
		if _, err := w.Write([]byte(`{"error":"bad","code":"bad_request"}`)); err != nil {
			t.Error(err)
		}
	}))
	t.Cleanup(ts.Close)
	cl := New(Config{Addr: ts.URL})
	_, _, err := cl.Simulate(context.Background(), wire.SimulateRequest{})
	var herr *HTTPError
	if !errors.As(err, &herr) || herr.Code != "bad_request" {
		t.Fatalf("err = %v, want bad_request *HTTPError", err)
	}
	if calls.Load() != 1 {
		t.Errorf("calls = %d, want 1", calls.Load())
	}
}

func TestSweepStream(t *testing.T) {
	cl := newServer(t, serve.Config{})
	var types []string
	info, err := cl.SweepStream(context.Background(), wire.SweepRequest{
		Seed: 7, SetsPerInterval: 1, MaxCandidates: 30, Lo: 0.3, Hi: 0.5,
		Approaches: []string{"st"},
	}, func(raw []byte, line wire.SweepLine) error {
		types = append(types, line.Type)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"start", "row", "row", "done"}
	if strings.Join(types, ",") != strings.Join(want, ",") {
		t.Errorf("line types = %v, want %v", types, want)
	}
	if info.Status != http.StatusOK {
		t.Errorf("info = %+v", info)
	}
}

func TestSweepStreamTruncated(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		if _, err := w.Write([]byte(`{"type":"start","schema":"mkss-sweep/v1"}` + "\n")); err != nil {
			t.Error(err)
		}
		if f, ok := w.(http.Flusher); ok {
			f.Flush()
		}
		panic(http.ErrAbortHandler) // die mid-stream, no terminal line
	}))
	t.Cleanup(ts.Close)
	cl := New(Config{Addr: ts.URL})
	_, err := cl.SweepStream(context.Background(), wire.SweepRequest{Lo: 0.3, Hi: 0.4}, nil)
	if !errors.Is(err, ErrTruncated) {
		t.Fatalf("err = %v, want ErrTruncated", err)
	}
}

func TestSweepStreamServerError(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		lines := `{"type":"start","schema":"mkss-sweep/v1"}` + "\n" +
			`{"type":"error","error":"engine exploded"}` + "\n"
		if _, err := w.Write([]byte(lines)); err != nil {
			t.Error(err)
		}
	}))
	t.Cleanup(ts.Close)
	cl := New(Config{Addr: ts.URL})
	_, err := cl.SweepStream(context.Background(), wire.SweepRequest{Lo: 0.3, Hi: 0.4}, nil)
	if err == nil || !strings.Contains(err.Error(), "engine exploded") {
		t.Fatalf("err = %v, want the server's error message", err)
	}
}

func TestAddrNormalization(t *testing.T) {
	for in, want := range map[string]string{
		"127.0.0.1:8080":          "http://127.0.0.1:8080",
		"http://localhost:1/":     "http://localhost:1",
		"https://mkss.example.io": "https://mkss.example.io",
	} {
		if got := New(Config{Addr: in}).Addr(); got != want {
			t.Errorf("Addr(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestEstimate(t *testing.T) {
	cl := newServer(t, serve.Config{})
	doc, run, info, err := cl.Estimate(context.Background(), wire.EstimateRequest{
		Set: paperSpec(), Approach: "dp", HorizonMS: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	if run != nil {
		t.Errorf("unrefined estimate returned a run doc: %+v", run)
	}
	if doc == nil || doc.Schema != wire.EstimateSchema || doc.Backend != "twin" || doc.Exact {
		t.Errorf("doc = %+v", doc)
	}
	if info.Status != http.StatusOK {
		t.Errorf("info = %+v", info)
	}

	// A 400 surfaces as a typed *HTTPError.
	_, _, _, err = cl.Estimate(context.Background(), wire.EstimateRequest{
		Set: paperSpec(), Approach: "st", Backend: "oracle",
	})
	var herr *HTTPError
	if !errors.As(err, &herr) || herr.Status != http.StatusBadRequest || herr.Code != wire.CodeBadRequest {
		t.Fatalf("err = %v, want bad_request *HTTPError", err)
	}
}

// refine=true comes back as the run document; the schema tag in the
// body, not the request flag, decides which pointer is populated.
func TestEstimateRefine(t *testing.T) {
	cl := newServer(t, serve.Config{})
	doc, run, _, err := cl.Estimate(context.Background(), wire.EstimateRequest{
		Set: paperSpec(), Approach: "dp", HorizonMS: 100, Refine: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if doc != nil {
		t.Errorf("refined estimate returned an estimate doc: %+v", doc)
	}
	if run == nil || run.Schema != wire.RunSchema || !run.MKSatisfied {
		t.Errorf("run = %+v", run)
	}
}

// TestUnavailableSurfacesAfterOneRequest pins that a 503 reaches the
// caller as a typed *HTTPError after exactly one request: the client
// sends once, and retry policy belongs to its callers.
func TestUnavailableSurfacesAfterOneRequest(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		if _, err := w.Write([]byte(`{"error":"starting up","code":"unavailable"}`)); err != nil {
			t.Error(err)
		}
	}))
	t.Cleanup(ts.Close)
	cl := New(Config{Addr: ts.URL})
	_, _, err := cl.Simulate(context.Background(), wire.SimulateRequest{
		Set: paperSpec(), Approach: "selective", HorizonMS: 20,
	})
	var herr *HTTPError
	if !errors.As(err, &herr) || herr.Status != http.StatusServiceUnavailable || herr.Code != "unavailable" {
		t.Fatalf("err = %v, want 503/unavailable *HTTPError", err)
	}
	if n := calls.Load(); n != 1 {
		t.Errorf("server saw %d requests, want 1", n)
	}
}
