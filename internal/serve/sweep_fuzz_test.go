package serve

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro"
	"repro/internal/serve/wire"
)

// FuzzNormalizeSweep decodes arbitrary bytes as the /v1/sweep handler
// does and normalizes them. It must never panic, and an accepted request
// must mean bounded work under canonical names: 0 < lo < hi ≤ 1 with at
// most ten intervals, a scenario and approaches that parse back to
// themselves, positive sets and candidates, and a non-zero seed. The
// seed corpus is in testdata/fuzz/FuzzNormalizeSweep.
func FuzzNormalizeSweep(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var req wire.SweepRequest
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		if dec.Decode(&req) != nil {
			return
		}
		sw, err := NormalizeSweep(req)
		if err != nil {
			return
		}
		r := sw.Req
		if !(0 < r.Lo && r.Lo < r.Hi && r.Hi <= 1) {
			t.Fatalf("accepted bounds [%v, %v) from %q", r.Lo, r.Hi, data)
		}
		if n := len(sw.Intervals()); n == 0 || n > 10 {
			t.Fatalf("accepted [%v, %v) with %d intervals from %q", r.Lo, r.Hi, n, data)
		}
		if r.SetsPerInterval <= 0 || r.MaxCandidates <= 0 || r.Seed == 0 {
			t.Fatalf("accepted sets %d, candidates %d, seed %d from %q", r.SetsPerInterval, r.MaxCandidates, r.Seed, data)
		}
		if sc, err := repro.ParseScenario(r.Scenario); err != nil || sc != sw.Scenario || sc.String() != r.Scenario {
			t.Fatalf("scenario %q does not parse back to itself (%v, %v) from %q", r.Scenario, sc, err, data)
		}
		if len(r.Approaches) == 0 || len(r.Approaches) != len(sw.Approaches) {
			t.Fatalf("approaches %q vs %v from %q", r.Approaches, sw.Approaches, data)
		}
		for i, name := range r.Approaches {
			if a, err := repro.ParseApproach(name); err != nil || a != sw.Approaches[i] || a.String() != name {
				t.Fatalf("approach %q does not parse back to itself (%v, %v) from %q", name, a, err, data)
			}
		}
	})
}
