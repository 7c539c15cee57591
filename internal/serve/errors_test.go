package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"repro/internal/serve/wire"
	"repro/internal/workload"
)

// decodeError reads a structured error body off a response.
func decodeError(t *testing.T, resp *http.Response) wire.ErrorDoc {
	t.Helper()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("error Content-Type = %q, want application/json", ct)
	}
	var doc wire.ErrorDoc
	if err := json.Unmarshal(readAll(t, resp), &doc); err != nil {
		t.Fatalf("error body is not JSON: %v", err)
	}
	if doc.Error == "" {
		t.Error("error body has empty message")
	}
	return doc
}

// TestErrorBodiesAreStructured pins the error contract on every 4xx/5xx
// path a client can hit without load: JSON body, application/json
// Content-Type, machine-readable code.
func TestErrorBodiesAreStructured(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	t.Run("method not allowed", func(t *testing.T) {
		resp, err := http.Get(ts.URL + "/v1/simulate")
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("status = %d", resp.StatusCode)
		}
		if doc := decodeError(t, resp); doc.Code != wire.CodeMethodNotAllowed {
			t.Errorf("code = %q, want %q", doc.Code, wire.CodeMethodNotAllowed)
		}
	})

	t.Run("malformed body", func(t *testing.T) {
		resp, err := http.Post(ts.URL+"/v1/simulate", "application/json", strings.NewReader("{not json"))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status = %d", resp.StatusCode)
		}
		if doc := decodeError(t, resp); doc.Code != wire.CodeBadRequest {
			t.Errorf("code = %q, want %q", doc.Code, wire.CodeBadRequest)
		}
	})

	t.Run("unknown field", func(t *testing.T) {
		resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", strings.NewReader(`{"bogus_field":1}`))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status = %d", resp.StatusCode)
		}
		decodeError(t, resp)
	})

	t.Run("negative interval offset", func(t *testing.T) {
		resp := postJSON(t, ts.URL+"/v1/sweep", wire.SweepRequest{Lo: 0.3, Hi: 0.4, IntervalOffset: -1})
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status = %d", resp.StatusCode)
		}
		if doc := decodeError(t, resp); !strings.Contains(doc.Error, "interval_offset") {
			t.Errorf("message %q does not name the offending field", doc.Error)
		}
	})

	// hi past the (m,k)-utilization axis must be refused before the
	// handler builds its buckets: 1e9 asks for 10¹⁰ of them, and from 2⁵¹
	// upward x += 0.1 no longer moves x, so the second never ends.
	for _, tc := range []struct {
		name string
		req  wire.SweepRequest
	}{
		{"hi far above 1", wire.SweepRequest{Hi: 1e9}},
		{"hi where x+0.1 stalls", wire.SweepRequest{Lo: 2.5e15, Hi: 2500000000000000.5}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			resp := postJSON(t, ts.URL+"/v1/sweep", tc.req)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status = %d", resp.StatusCode)
			}
			doc := decodeError(t, resp)
			if doc.Code != wire.CodeBadRequest || !strings.HasPrefix(doc.Error, "hi ") {
				t.Errorf("error %+v does not name the offending field with code %q", doc, wire.CodeBadRequest)
			}
		})
	}

	// A timeout_ms past what a time.Duration holds used to wrap to a
	// negative, already expired deadline and answer 504 at once. A
	// horizon_ms whose µs count does not fit in an int64 converted to a
	// CPU-dependent horizon, and a NaN, infinite or negative
	// transient_rate was run as given.
	for _, tc := range []struct {
		name   string
		method string
		path   string
		body   any
		field  string
	}{
		{"simulate timeout_ms 1e13", http.MethodPost, "/v1/simulate",
			wire.SimulateRequest{Set: paperSpec(), HorizonMS: 20, TimeoutMS: 1e13}, "timeout_ms"},
		{"simulate timeout_ms 1e300", http.MethodPost, "/v1/simulate",
			wire.SimulateRequest{Set: paperSpec(), HorizonMS: 20, TimeoutMS: 1e300}, "timeout_ms"},
		{"refine timeout_ms 1e13", http.MethodPost, "/v1/estimate",
			wire.EstimateRequest{Set: paperSpec(), HorizonMS: 20, Refine: true, TimeoutMS: 1e13}, "timeout_ms"},
		{"estimate timeout_ms Inf", http.MethodGet,
			estimateURL("", map[string]string{"timeout_ms": "Inf", "refine": "true"}), nil, "timeout_ms"},
		{"sweep timeout_ms 1e13", http.MethodPost, "/v1/sweep",
			wire.SweepRequest{Lo: 0.3, Hi: 0.4, TimeoutMS: 1e13}, "timeout_ms"},
		{"simulate horizon_ms 1e300", http.MethodPost, "/v1/simulate",
			wire.SimulateRequest{Set: paperSpec(), HorizonMS: 1e300}, "horizon_ms"},
		{"simulate horizon_ms -1e300", http.MethodPost, "/v1/simulate",
			wire.SimulateRequest{Set: paperSpec(), HorizonMS: -1e300}, "horizon_ms"},
		{"simulate horizon_ms 2^63 µs", http.MethodPost, "/v1/simulate",
			wire.SimulateRequest{Set: paperSpec(), HorizonMS: 9223372036854775.808}, "horizon_ms"},
		{"estimate horizon_ms NaN", http.MethodGet,
			estimateURL("", map[string]string{"horizon_ms": "NaN"}), nil, "horizon_ms"},
		{"estimate horizon_ms Inf", http.MethodGet,
			estimateURL("", map[string]string{"horizon_ms": "Inf"}), nil, "horizon_ms"},
		{"refine horizon_ms 1e300", http.MethodGet,
			estimateURL("", map[string]string{"horizon_ms": "1e300", "refine": "true"}), nil, "horizon_ms"},
		{"simulate transient_rate -1", http.MethodPost, "/v1/simulate",
			wire.SimulateRequest{Set: paperSpec(), HorizonMS: 20, TransientRate: -1}, "transient_rate"},
		{"estimate transient_rate NaN", http.MethodGet,
			estimateURL("", map[string]string{"horizon_ms": "20", "transient_rate": "NaN"}), nil, "transient_rate"},
		{"refine transient_rate Inf", http.MethodGet,
			estimateURL("", map[string]string{"horizon_ms": "20", "transient_rate": "Inf", "refine": "true"}), nil, "transient_rate"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var resp *http.Response
			if tc.method == http.MethodGet {
				var err error
				if resp, err = http.Get(ts.URL + tc.path); err != nil {
					t.Fatal(err)
				}
			} else {
				resp = postJSON(t, ts.URL+tc.path, tc.body)
			}
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status = %d, want 400: %s", resp.StatusCode, readAll(t, resp))
			}
			doc := decodeError(t, resp)
			if doc.Code != wire.CodeBadRequest || !strings.HasPrefix(doc.Error, tc.field+" ") {
				t.Errorf("error %+v does not name %s with code %q", doc, tc.field, wire.CodeBadRequest)
			}
		})
	}

	// Zero and negative horizons still mean the set's default, at the
	// edge of the range too.
	for _, ms := range []string{"0", "-5", "-9223372036854775.808"} {
		resp, err := http.Get(ts.URL + estimateURL("", map[string]string{"horizon_ms": ms}))
		if err != nil {
			t.Fatal(err)
		}
		if doc := decodeEstimate(t, resp); doc.HorizonUS != 20000 {
			t.Errorf("horizon_ms %s: horizon_us = %d, want the default 20000", ms, doc.HorizonUS)
		}
	}

	t.Run("bad approach", func(t *testing.T) {
		resp := postJSON(t, ts.URL+"/v1/simulate", wire.SimulateRequest{Set: paperSpec(), Approach: "bogus"})
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status = %d", resp.StatusCode)
		}
		decodeError(t, resp)
	})
}

// TestRateLimitErrorCode pins the rate-limit flavor of 429: structured
// body with code "rate_limited" and a Retry-After header.
func TestRateLimitErrorCode(t *testing.T) {
	_, ts := newTestServer(t, Config{RatePerSec: 0.001, Burst: 1})
	// Burn the single token, then the next request must be limited.
	resp := postJSON(t, ts.URL+"/v1/simulate", wire.SimulateRequest{Set: paperSpec(), Approach: "selective", HorizonMS: 20})
	readAll(t, resp)
	resp = postJSON(t, ts.URL+"/v1/simulate", wire.SimulateRequest{Set: paperSpec(), Approach: "selective", HorizonMS: 20})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	if doc := decodeError(t, resp); doc.Code != wire.CodeRateLimited {
		t.Errorf("code = %q, want %q", doc.Code, wire.CodeRateLimited)
	}
}

// TestSweepShardsMatchBatch pins the fleet sharding contract server
// side: N single-interval requests carrying interval_offset i and the
// batch intervals' exact bounds stream row bytes identical to one batch
// request over the full range.
func TestSweepShardsMatchBatch(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := wire.SweepRequest{
		Seed: 7, SetsPerInterval: 2, MaxCandidates: 60,
		Lo: 0.3, Hi: 0.6, Approaches: []string{"st", "dp"},
	}

	rowLines := func(body []byte) [][]byte {
		var rows [][]byte
		sc := bufio.NewScanner(bytes.NewReader(body))
		for sc.Scan() {
			if bytes.Contains(sc.Bytes(), []byte(`"type":"row"`)) {
				rows = append(rows, append([]byte(nil), sc.Bytes()...))
			}
		}
		return rows
	}

	resp := postJSON(t, ts.URL+"/v1/sweep", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d: %s", resp.StatusCode, readAll(t, resp))
	}
	batch := rowLines(readAll(t, resp))
	intervals := workload.Intervals(req.Lo, req.Hi, 0.1)
	if len(batch) != len(intervals) {
		t.Fatalf("batch rows = %d, want %d", len(batch), len(intervals))
	}

	for i, iv := range intervals {
		shard := req
		shard.Lo, shard.Hi = iv.Lo, iv.Hi
		shard.IntervalOffset = i
		resp := postJSON(t, ts.URL+"/v1/sweep", shard)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("shard %d status %d: %s", i, resp.StatusCode, readAll(t, resp))
		}
		rows := rowLines(readAll(t, resp))
		if len(rows) != 1 {
			t.Fatalf("shard %d produced %d rows, want 1", i, len(rows))
		}
		if !bytes.Equal(rows[0], batch[i]) {
			t.Errorf("shard %d differs from batch row:\n got  %s\n want %s", i, rows[0], batch[i])
		}
	}
}
