package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/serve/wire"
	"repro/internal/store"
)

// openStore opens (or reopens) a test store at dir.
func openStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// postTenant is post with an X-MK-Tenant header.
func postTenant(t *testing.T, url string, body any, tenant string) *http.Response {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if tenant != "" {
		req.Header.Set(TenantHeader, tenant)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// healthDoc fetches and decodes /healthz.
func healthDoc(t *testing.T, baseURL string) wire.HealthDoc {
	t.Helper()
	resp, err := http.Get(baseURL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var doc wire.HealthDoc
	if err := json.Unmarshal(readAll(t, resp), &doc); err != nil {
		t.Fatal(err)
	}
	return doc
}

// TestSimulateStoreCrossRestart pins the tentpole property: a result
// computed in one server process is served byte-identically by the next
// process over the same store directory, without consuming an execution
// slot.
func TestSimulateStoreCrossRestart(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	req := wire.SimulateRequest{Set: paperSpec(), Approach: "selective", Scenario: "permanent", HorizonMS: 50, Seed: 11}

	st1 := openStore(t, dir)
	_, ts1 := newTestServer(t, Config{Store: st1})
	resp := postJSON(t, ts1.URL+"/v1/simulate", req)
	cold := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cold status %d: %s", resp.StatusCode, cold)
	}
	if got := resp.Header.Get("X-Mkss-Store"); got != "" {
		t.Fatalf("cold run marked X-Mkss-Store=%q, want no marker", got)
	}
	// Same process, second ask: already a hit.
	resp = postJSON(t, ts1.URL+"/v1/simulate", req)
	if got := resp.Header.Get("X-Mkss-Store"); got != "hit" {
		t.Fatalf("second ask X-Mkss-Store=%q, want hit", got)
	}
	if warm := readAll(t, resp); !bytes.Equal(cold, warm) {
		t.Fatalf("in-process store hit differs from live run:\n cold %s\n warm %s", cold, warm)
	}
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}

	// "Restart": a fresh server over the same directory, with its only
	// execution slot held and no queue — live work is impossible, so a
	// 200 proves the store path skipped admission entirely.
	st2 := openStore(t, dir)
	s2, ts2 := newTestServer(t, Config{Store: st2, MaxInFlight: 1, QueueDepth: -1})
	release, err := s2.adm.acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	resp = postTenant(t, ts2.URL+"/v1/simulate", req, "team-a")
	warm := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm status %d: %s", resp.StatusCode, warm)
	}
	if got := resp.Header.Get("X-Mkss-Store"); got != "hit" {
		t.Fatalf("restart X-Mkss-Store=%q, want hit", got)
	}
	if !bytes.Equal(cold, warm) {
		t.Fatalf("cross-restart bytes differ:\n cold %s\n warm %s", cold, warm)
	}
	doc := healthDoc(t, ts2.URL)
	if doc.Store == nil {
		t.Fatal("healthz carries no store stats with a store configured")
	}
	if doc.Store.Hits != 1 || doc.Store.Misses != 0 {
		t.Errorf("warm server store stats = %+v, want 1 hit, 0 misses", doc.Store)
	}
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSweepWarmStoreNeedsNoSlot pins the sweep analogue: a sweep whose
// every interval is stored streams entirely from disk — same row bytes,
// zero execution slots.
func TestSweepWarmStoreNeedsNoSlot(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	req := wire.SweepRequest{
		Seed: 7, SetsPerInterval: 2, MaxCandidates: 40,
		Lo: 0.3, Hi: 0.5, Approaches: []string{"st"},
	}
	rowsOf := func(body []byte) []string {
		var rows []string
		for _, line := range strings.Split(strings.TrimSpace(string(body)), "\n") {
			if strings.Contains(line, `"type":"row"`) {
				rows = append(rows, line)
			}
		}
		return rows
	}

	st1 := openStore(t, dir)
	_, ts1 := newTestServer(t, Config{Store: st1})
	resp := postJSON(t, ts1.URL+"/v1/sweep", req)
	cold := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cold sweep status %d: %s", resp.StatusCode, cold)
	}
	coldRows := rowsOf(cold)
	if len(coldRows) != 2 {
		t.Fatalf("cold sweep produced %d rows, want 2: %s", len(coldRows), cold)
	}
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}

	st2 := openStore(t, dir)
	s2, ts2 := newTestServer(t, Config{Store: st2, MaxInFlight: 1, QueueDepth: -1})
	release, err := s2.adm.acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	resp = postJSON(t, ts2.URL+"/v1/sweep", req)
	warm := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm sweep status %d with the only slot held: %s — the all-hit path must not need a slot", resp.StatusCode, warm)
	}
	warmRows := rowsOf(warm)
	if len(warmRows) != len(coldRows) {
		t.Fatalf("warm sweep produced %d rows, want %d", len(warmRows), len(coldRows))
	}
	for i := range coldRows {
		if coldRows[i] != warmRows[i] {
			t.Errorf("row %d differs across restart:\n cold %s\n warm %s", i, coldRows[i], warmRows[i])
		}
	}
	if doc := healthDoc(t, ts2.URL); doc.Store == nil || doc.Store.Misses != 0 || doc.Store.Hits != 2 {
		t.Errorf("warm server store stats = %+v, want 2 hits, 0 misses", doc.Store)
	}
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestTenantQuotaIsolation pins the fairness property: a tenant burning
// through its quota gets structured 429s while other tenants (and the
// default) stay unaffected.
func TestTenantQuotaIsolation(t *testing.T) {
	// A refill rate of ~0 makes the test deterministic: each tenant has
	// exactly its burst of 2 requests.
	_, ts := newTestServer(t, Config{TenantRatePerSec: 0.001, TenantBurst: 2})
	req := wire.SimulateRequest{Set: paperSpec(), Approach: "st", HorizonMS: 20}

	for i := 0; i < 2; i++ {
		resp := postTenant(t, ts.URL+"/v1/simulate", req, "hot")
		if readAll(t, resp); resp.StatusCode != http.StatusOK {
			t.Fatalf("hot tenant request %d status %d, want 200 within burst", i, resp.StatusCode)
		}
	}
	resp := postTenant(t, ts.URL+"/v1/simulate", req, "hot")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("exhausted tenant status %d, want 429", resp.StatusCode)
	}
	retry := resp.Header.Get("Retry-After")
	if sec, err := strconv.Atoi(retry); err != nil || sec < 1 {
		t.Errorf("Retry-After = %q, want a whole second count >= 1", retry)
	}
	if doc := decodeError(t, resp); doc.Code != wire.CodeQuotaExceeded || !strings.Contains(doc.Error, `"hot"`) {
		t.Errorf("error doc = %+v, want code %q naming the tenant", doc, wire.CodeQuotaExceeded)
	}

	// The default tenant has its own untouched bucket.
	resp = postTenant(t, ts.URL+"/v1/simulate", req, "")
	if readAll(t, resp); resp.StatusCode != http.StatusOK {
		t.Fatalf("default tenant status %d after another tenant's exhaustion, want 200", resp.StatusCode)
	}

	doc := healthDoc(t, ts.URL)
	if doc.QuotaRejected["hot"] != 1 {
		t.Errorf("healthz quota_rejected = %v, want hot:1", doc.QuotaRejected)
	}
	if _, ok := doc.QuotaRejected[DefaultTenant]; ok {
		t.Errorf("default tenant appears in quota_rejected %v without any rejection", doc.QuotaRejected)
	}
}

// TestQuotaRetryAfterFromRefill pins the Retry-After arithmetic: the
// hint is the rejecting bucket's own refill time, rounded up to whole
// seconds — not a hardcoded constant.
func TestQuotaRetryAfterFromRefill(t *testing.T) {
	// 0.5 tokens/s, burst 1: after one request the next token is ~2s out.
	_, ts := newTestServer(t, Config{TenantRatePerSec: 0.5, TenantBurst: 1})
	req := wire.SimulateRequest{Set: paperSpec(), Approach: "st", HorizonMS: 20}
	resp := postTenant(t, ts.URL+"/v1/simulate", req, "x")
	if readAll(t, resp); resp.StatusCode != http.StatusOK {
		t.Fatalf("first request status %d", resp.StatusCode)
	}
	resp = postTenant(t, ts.URL+"/v1/simulate", req, "x")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second request status %d, want 429", resp.StatusCode)
	}
	readAll(t, resp)
	if got := resp.Header.Get("Retry-After"); got != "2" {
		t.Errorf("Retry-After = %q, want %q (one token at 0.5/s, rounded up)", got, "2")
	}
}

// TestServeEventStream pins the JSONL observability satellite: store
// misses, write-backs, hits and quota rejections each emit one schema'd
// line.
func TestServeEventStream(t *testing.T) {
	var events bytes.Buffer
	st := openStore(t, filepath.Join(t.TempDir(), "store"))
	defer st.Close() //mklint:allow errdrop — test cleanup
	_, ts := newTestServer(t, Config{
		Store: st, Events: &events,
		TenantRatePerSec: 0.001, TenantBurst: 2,
	})
	req := wire.SimulateRequest{Set: paperSpec(), Approach: "st", HorizonMS: 20}
	for _, tenant := range []string{"", "", "greedy", "greedy", "greedy"} {
		resp := postTenant(t, ts.URL+"/v1/simulate", req, tenant)
		readAll(t, resp)
	}

	var kinds []string
	for _, line := range strings.Split(strings.TrimSpace(events.String()), "\n") {
		var ev struct {
			Schema string `json:"schema"`
			TUS    int64  `json:"t_us"`
			Kind   string `json:"kind"`
			Tenant string `json:"tenant"`
		}
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("unparseable event line %q: %v", line, err)
		}
		if ev.Schema != EventSchema || ev.TUS == 0 {
			t.Errorf("event %q: schema %q t_us %d, want %q and a timestamp", line, ev.Schema, ev.TUS, EventSchema)
		}
		if ev.Kind == "quota-reject" && ev.Tenant != "greedy" {
			t.Errorf("quota-reject attributed to %q, want greedy", ev.Tenant)
		}
		kinds = append(kinds, ev.Kind)
	}
	// default tenant: miss+write, then hit; greedy: two hits, then its
	// burst of 2 is gone and the third request is rejected.
	want := []string{"store-miss", "store-write", "store-hit", "store-hit", "store-hit", "quota-reject"}
	if strings.Join(kinds, ",") != strings.Join(want, ",") {
		t.Errorf("event kinds = %v, want %v", kinds, want)
	}
}
