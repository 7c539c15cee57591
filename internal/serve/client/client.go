// Package client is the stdlib HTTP client for the mkss serving API
// (internal/serve): one typed wrapper per endpoint, context deadlines on
// every call, and incremental JSONL decoding of the streaming /v1/sweep
// endpoint. Every call sends its request once; retrying is the caller's
// policy (the fleet coordinator owns one, mkload measures raw
// behaviour).
//
// It exists so every consumer of the API — the mkload load generator,
// the mkfleet coordinator, scripts — shares one request/decode path and
// one error vocabulary: a non-2xx response surfaces as *HTTPError
// carrying the server's machine-readable error code (wire.ErrorDoc), a
// stream that ends without a terminal "done"/"error" line surfaces as
// ErrTruncated, and everything else is a transport error.
package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"

	"repro"
	"repro/internal/serve/wire"
)

// Config tunes a Client; the zero value of every field picks a sensible
// default (see New).
type Config struct {
	// Addr is the server address: "host:port" or a full "http://..."
	// base URL.
	Addr string
	// HTTPClient is the underlying transport; nil builds one without a
	// client-level timeout (deadlines come from the per-call context).
	HTTPClient *http.Client
	// Tenant, when non-empty, is sent as the X-MK-Tenant header on every
	// request — the identity the server's per-tenant quotas account
	// against. Empty means the server's default tenant.
	Tenant string
}

// Client calls one mkss server. It is safe for concurrent use.
type Client struct {
	base string
	hc   *http.Client
	cfg  Config
}

// New builds a Client for cfg.Addr, applying the documented defaults.
func New(cfg Config) *Client {
	base := cfg.Addr
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	base = strings.TrimSuffix(base, "/")
	hc := cfg.HTTPClient
	if hc == nil {
		hc = &http.Client{}
	}
	return &Client{base: base, hc: hc, cfg: cfg}
}

// Addr returns the normalized base URL the client talks to.
func (c *Client) Addr() string { return c.base }

// HTTPError is a non-2xx response, carrying the server's structured
// error body (wire.ErrorDoc) when one was present.
type HTTPError struct {
	Status int
	Code   string
	Msg    string
}

func (e *HTTPError) Error() string {
	if e.Code != "" {
		return fmt.Sprintf("server %d (%s): %s", e.Status, e.Code, e.Msg)
	}
	return fmt.Sprintf("server %d: %s", e.Status, e.Msg)
}

// Retryable reports whether the failure is worth retrying — the request
// was rejected by load shedding or a transient server condition, not by
// its own content.
func (e *HTTPError) Retryable() bool {
	switch e.Status {
	case http.StatusTooManyRequests, http.StatusBadGateway,
		http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return true
	}
	return e.Status >= 500
}

// ErrTruncated marks a JSONL stream that ended without a terminal
// "done" or "error" line — the producer died mid-stream.
var ErrTruncated = errors.New("sweep stream truncated before its terminal line")

// Info is per-request metadata alongside a decoded response.
type Info struct {
	// Status is the HTTP status code of the response.
	Status int
	// Coalesced reports the X-Mkss-Coalesced marker: the response was
	// shared with a concurrent identical request.
	Coalesced bool
	// StoreHit reports the X-Mkss-Store marker: the response came from
	// the server's persistent result store, not a live run.
	StoreHit bool
}

// Simulate runs POST /v1/simulate.
func (c *Client) Simulate(ctx context.Context, req wire.SimulateRequest) (*wire.RunDoc, Info, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, Info{}, err
	}
	var doc wire.RunDoc
	info, err := c.doJSON(ctx, http.MethodPost, "/v1/simulate", body, &doc)
	if err != nil {
		return nil, info, err
	}
	return &doc, info, nil
}

// Estimate runs POST /v1/estimate. With req.Refine false the server
// answers from the analytical twin (no execution slot) and the decoded
// EstimateDoc is returned; with req.Refine true the server falls through
// to the real simulation and the RunDoc — byte-identical to what
// /v1/simulate returns for the same parameters — is returned instead.
// Exactly one of the two documents is non-nil on success.
func (c *Client) Estimate(ctx context.Context, req wire.EstimateRequest) (*wire.EstimateDoc, *wire.RunDoc, Info, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, nil, Info{}, err
	}
	var info Info
	resp, err := c.do(ctx, &info, http.MethodPost, "/v1/estimate", body)
	if err != nil {
		return nil, nil, info, err
	}
	defer resp.Body.Close() //mklint:allow errdrop — read-only response body
	data, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return nil, nil, info, fmt.Errorf("read /v1/estimate response: %w", err)
	}
	// The schema tag in the body, not the request's Refine flag, decides
	// the decode: the server is the authority on what it answered with.
	var probe struct {
		Schema string `json:"schema"`
	}
	if err := json.Unmarshal(data, &probe); err != nil {
		return nil, nil, info, fmt.Errorf("decode /v1/estimate response: %w", err)
	}
	switch probe.Schema {
	case wire.RunSchema:
		var doc wire.RunDoc
		if err := json.Unmarshal(data, &doc); err != nil {
			return nil, nil, info, fmt.Errorf("decode %s response: %w", probe.Schema, err)
		}
		return nil, &doc, info, nil
	case wire.EstimateSchema:
		var doc wire.EstimateDoc
		if err := json.Unmarshal(data, &doc); err != nil {
			return nil, nil, info, fmt.Errorf("decode %s response: %w", probe.Schema, err)
		}
		return &doc, nil, info, nil
	}
	return nil, nil, info, fmt.Errorf("unexpected /v1/estimate schema %q", probe.Schema)
}

// Analyze runs GET /v1/analyze with the set spec as the request body.
func (c *Client) Analyze(ctx context.Context, spec repro.SetSpec) (*wire.AnalyzeDoc, Info, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return nil, Info{}, err
	}
	var doc wire.AnalyzeDoc
	info, err := c.doJSON(ctx, http.MethodGet, "/v1/analyze", body, &doc)
	if err != nil {
		return nil, info, err
	}
	return &doc, info, nil
}

// Healthz runs GET /healthz. A draining server answers 503 with a valid
// body; Healthz returns the decoded body in that case too, alongside
// the *HTTPError, so callers can distinguish "draining" from "dead".
func (c *Client) Healthz(ctx context.Context) (*wire.HealthDoc, error) {
	resp, err := c.send(ctx, http.MethodGet, "/healthz", nil, "")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close() //mklint:allow errdrop — read-only response body
	data, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return nil, err
	}
	var doc wire.HealthDoc
	if derr := json.Unmarshal(data, &doc); derr == nil && doc.Status != "" {
		if resp.StatusCode == http.StatusOK {
			return &doc, nil
		}
		return &doc, &HTTPError{Status: resp.StatusCode, Msg: doc.Status}
	}
	return nil, httpError(resp.StatusCode, data)
}

// Metrics snapshots the numeric lines of GET /metrics.
func (c *Client) Metrics(ctx context.Context) (map[string]float64, error) {
	resp, err := c.send(ctx, http.MethodGet, "/metrics", nil, "")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close() //mklint:allow errdrop — read-only response body
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20)) // status carries the failure
		return nil, httpError(resp.StatusCode, data)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if f, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = f
		}
	}
	return out, sc.Err()
}

// SweepStream runs POST /v1/sweep and feeds every decoded JSONL line —
// with its raw bytes, exactly as the server wrote them — to fn as it
// arrives. It returns after the terminal line: nil on "done", the
// server's message on "error", ErrTruncated if the stream ends without
// either, or fn's error if fn aborts the stream.
func (c *Client) SweepStream(ctx context.Context, req wire.SweepRequest, fn func(raw []byte, line wire.SweepLine) error) (Info, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return Info{}, err
	}
	var info Info
	resp, err := c.do(ctx, &info, http.MethodPost, "/v1/sweep", body)
	if err != nil {
		return info, err
	}
	defer resp.Body.Close() //mklint:allow errdrop — read-only response body
	terminal := false
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		raw := sc.Bytes()
		var line wire.SweepLine
		if err := json.Unmarshal(raw, &line); err != nil {
			return info, fmt.Errorf("parse sweep line %q: %w", raw, err)
		}
		switch line.Type {
		case "done":
			terminal = true
		case "error":
			return info, fmt.Errorf("sweep failed server-side: %s", line.Error)
		}
		if fn != nil {
			if err := fn(raw, line); err != nil {
				return info, err
			}
		}
		if terminal {
			return info, nil
		}
	}
	if err := sc.Err(); err != nil {
		return info, fmt.Errorf("%w: %v", ErrTruncated, err)
	}
	return info, ErrTruncated
}

// doJSON sends one request and decodes the 2xx body into v.
func (c *Client) doJSON(ctx context.Context, method, path string, body []byte, v any) (Info, error) {
	var info Info
	resp, err := c.do(ctx, &info, method, path, body)
	if err != nil {
		return info, err
	}
	defer resp.Body.Close() //mklint:allow errdrop — read-only response body
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		return info, fmt.Errorf("decode %s response: %w", path, err)
	}
	return info, nil
}

// do sends the JSON request once and records its metadata in info. A
// non-2xx status comes back as an *HTTPError; on success the caller owns
// the response body.
func (c *Client) do(ctx context.Context, info *Info, method, path string, body []byte) (*http.Response, error) {
	resp, err := c.send(ctx, method, path, body, "application/json")
	if err != nil {
		return nil, err
	}
	info.Status = resp.StatusCode
	info.Coalesced = resp.Header.Get("X-Mkss-Coalesced") != ""
	info.StoreHit = resp.Header.Get("X-Mkss-Store") == "hit"
	if resp.StatusCode >= 200 && resp.StatusCode < 300 {
		return resp, nil
	}
	data, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20)) // status carries the failure; body is best-effort detail
	_ = resp.Body.Close()                                   // read-only body; the status is the error
	return nil, httpError(resp.StatusCode, data)
}

// send issues one request.
func (c *Client) send(ctx context.Context, method, path string, body []byte, contentType string) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return nil, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	if c.cfg.Tenant != "" {
		req.Header.Set("X-MK-Tenant", c.cfg.Tenant)
	}
	return c.hc.Do(req)
}

// httpError decodes a non-2xx body into an *HTTPError, falling back to
// the raw text when the body is not a wire.ErrorDoc.
func httpError(status int, body []byte) *HTTPError {
	var doc wire.ErrorDoc
	if err := json.Unmarshal(body, &doc); err == nil && doc.Error != "" {
		return &HTTPError{Status: status, Code: doc.Code, Msg: doc.Error}
	}
	msg := strings.TrimSpace(string(body))
	if msg == "" {
		msg = http.StatusText(status)
	}
	return &HTTPError{Status: status, Msg: msg}
}
