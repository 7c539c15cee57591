package serve

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"testing"
	"time"
)

// -update-served-golden rewrites testdata/served_golden.txt from the
// exchanges below. Every reply is deterministic under the fixed clock,
// so the committed file reproduces byte for byte; a change that moves
// any served byte fails this test until the file is deliberately
// rewritten and the change reviewed.
var updateServedGolden = flag.Bool("update-served-golden", false,
	"rewrite testdata/served_golden.txt from the current server")

const servedGoldenPath = "testdata/served_golden.txt"

// goldenSet is the paper's §III set as raw request JSON.
const goldenSet = `{"tasks":[{"period_ms":5,"deadline_ms":4,"wcet_ms":3,"m":2,"k":4},{"period_ms":10,"deadline_ms":10,"wcet_ms":3,"m":1,"k":2}]}`

// servedExchanges are sent in order to one server. The requests are raw
// JSON, so they pin the wire format independently of the Go types that
// decode it.
var servedExchanges = []struct{ method, path, body string }{
	{"POST", "/v1/simulate", `{"set":` + goldenSet + `,"approach":"selective","scenario":"none","seed":1}`},
	{"POST", "/v1/simulate", `{"set":` + goldenSet + `,"approach":"dp","scenario":"permanent","seed":7}`},
	{"POST", "/v1/simulate", `{"set":` + goldenSet + `,"approach":"st","scenario":"permanent+transient","seed":3,"horizon_ms":40}`},
	{"POST", "/v1/simulate", `{"set":` + goldenSet + `,"approach":"dbp","scenario":"permanent+transient","seed":5,"transient_rate":0.01}`},
	{"POST", "/v1/estimate", `{"set":` + goldenSet + `,"approach":"dp","scenario":"permanent","seed":7}`},
	{"POST", "/v1/estimate", `{"set":` + goldenSet + `,"approach":"st","seed":2,"backend":"sim"}`},
	{"POST", "/v1/estimate", `{"set":` + goldenSet + `,"approach":"selective","scenario":"permanent","seed":4,"refine":true}`},
	{"POST", "/v1/estimate", `{"set":` + goldenSet + `,"approach":"dbp"}`},
	{"POST", "/v1/analyze", goldenSet},
	{"POST", "/v1/sweep", `{"scenario":"permanent","seed":11,"sets_per_interval":2,"max_candidates":200,"lo":0.2,"hi":0.4}`},
	{"GET", "/healthz", ""},
	{"POST", "/v1/simulate", `{"set":` + goldenSet + `,"approach":"nope"}`},
	{"POST", "/v1/estimate", `{"set":` + goldenSet + `,"approach":"st","backend":"oracle"}`},
	{"POST", "/v1/sweep", `{"hi":2}`},
	{"POST", "/v1/simulate", `{"set":` + goldenSet + `,"approach":"st","timeout_ms":1e300}`},
}

// TestServedBytesMatchGolden sends every exchange to a server with a
// fixed clock and compares status and body with the committed file.
func TestServedBytesMatchGolden(t *testing.T) {
	fixed := time.Unix(1_600_000_000, 0)
	_, ts := newTestServer(t, Config{Now: func() time.Time { return fixed }})
	var out bytes.Buffer
	for _, ex := range servedExchanges {
		req, err := http.NewRequest(ex.method, ts.URL+ex.path, strings.NewReader(ex.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		if cerr := resp.Body.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&out, "== %s %s %s\n%d\n%s", ex.method, ex.path, ex.body, resp.StatusCode, body)
	}

	if *updateServedGolden {
		if err := os.WriteFile(servedGoldenPath, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(servedGoldenPath)
	if err != nil {
		t.Fatalf("%v (regenerate with: go test ./internal/serve -run TestServedBytesMatchGolden -update-served-golden)", err)
	}
	if got := out.Bytes(); !bytes.Equal(got, want) {
		gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Fatalf("%s line %d:\n got  %s\n want %s", servedGoldenPath, i+1, g, w)
			}
		}
	}
}
