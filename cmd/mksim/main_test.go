package main

import (
	"context"
	"math"
	"strings"
	"testing"
)

// TestRunRefusesHorizon pins that a -horizon no run can honor is an
// error, which main reports on stderr with exit status 1, both for a
// simulation and for -estimate: NaN, ±Inf and values whose µs count
// overflows int64 used to run the 20 ms default silently.
func TestRunRefusesHorizon(t *testing.T) {
	for _, h := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 1e300, 9223372036854775.808} {
		for _, est := range []bool{false, true} {
			o := options{demo: true, approach: "selective", scenario: "none", seed: 1, horizonMS: h, jsonOut: true, estimate: est}
			if err := run(context.Background(), o); err == nil || !strings.Contains(err.Error(), "horizon_ms") {
				t.Errorf("-horizon %v (estimate %v): error %v, want one naming horizon_ms", h, est, err)
			}
		}
	}
}
