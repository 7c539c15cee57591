package serve

import (
	"math"
	"math/big"
	"net/http"
	"net/url"
	"testing"

	"repro"
	"repro/internal/serve/wire"
	"repro/internal/timeu"
)

// FuzzParseRun decodes arbitrary bytes as the query string of GET
// /v1/estimate and parses the run it mirrors, as the handler does. The
// query is the one path that reaches parseRun with NaN and infinite
// numbers; /v1/simulate's JSON body reaches it with a subset of the
// same values. It must never panic, and an accepted request must have a
// horizon_ms whose rounded µs count timeu.FromMillis represents exactly
// (checked against math/big), a finite transient_rate of at least 0, a
// finite timeout_ms, an approach and scenario that parse back to
// themselves, and a key. The seed corpus is in
// testdata/fuzz/FuzzParseRun.
func FuzzParseRun(f *testing.F) {
	f.Fuzz(func(t *testing.T, query string) {
		var req wire.EstimateRequest
		if decodeEstimateQuery(&http.Request{URL: &url.URL{RawQuery: query}}, &req) != nil {
			return
		}
		run, err := parseEstimate(req)
		if err != nil {
			return
		}
		ms := run.HorizonMS
		us := math.Round(ms * float64(timeu.Millisecond))
		if math.IsNaN(us) {
			t.Fatalf("accepted horizon_ms %v from %q", ms, query)
		}
		exact, _ := big.NewFloat(us).Int(nil)
		if exact == nil || !exact.IsInt64() || exact.Int64() != int64(timeu.FromMillis(ms)) {
			t.Fatalf("accepted horizon_ms %v (µs %v) that timeu.FromMillis gives as %d, from %q", ms, us, timeu.FromMillis(ms), query)
		}
		if r := run.TransientRate; math.IsNaN(r) || math.IsInf(r, 0) || r < 0 {
			t.Fatalf("accepted transient_rate %v from %q", r, query)
		}
		if d := run.TimeoutMS; math.IsNaN(d) || math.IsInf(d, 0) {
			t.Fatalf("accepted timeout_ms %v from %q", d, query)
		}
		if a, err := repro.ParseApproach(run.a.String()); err != nil || a != run.a {
			t.Fatalf("approach %v does not parse back to itself (%v, %v) from %q", run.a, a, err, query)
		}
		if sc, err := repro.ParseScenario(run.sc.String()); err != nil || sc != run.sc {
			t.Fatalf("scenario %v does not parse back to itself (%v, %v) from %q", run.sc, sc, err, query)
		}
		if run.key() == "" {
			t.Fatalf("empty key from %q", query)
		}
	})
}
