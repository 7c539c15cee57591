package main

import (
	"bytes"
	"context"
	"math"
	"strings"
	"testing"

	"repro"
)

// TestRunRefusesHorizon pins that a -horizon no run can honor is an
// error, which main reports on stderr with exit status 1, both for a
// simulation and for -estimate, in text and in -json: NaN, ±Inf and
// values whose µs count overflows int64 used to run the 20 ms default
// silently. A refused run prints nothing on stdout — the task-set header
// used to come out before the run failed.
func TestRunRefusesHorizon(t *testing.T) {
	for _, h := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 1e300, 9223372036854775.808} {
		for _, est := range []bool{false, true} {
			for _, js := range []bool{false, true} {
				o := options{demo: true, approach: "selective", scenario: "none", seed: 1, horizonMS: h, jsonOut: js, estimate: est}
				var stdout bytes.Buffer
				if err := run(context.Background(), o, &stdout); err == nil || !strings.Contains(err.Error(), "horizon_ms") {
					t.Errorf("-horizon %v (estimate %v, json %v): error %v, want one naming horizon_ms", h, est, js, err)
				}
				if stdout.Len() > 0 {
					t.Errorf("-horizon %v (estimate %v, json %v): stdout %q, want nothing", h, est, js, stdout.String())
				}
			}
		}
	}
}

// TestUsageNamesParse pins that every name the -approach and -scenario
// usage strings list is one their parsers accept, and that each approach
// parses without its MKSS- prefix, as the usage says.
func TestUsageNamesParse(t *testing.T) {
	approaches := usageNames(t, approachUsage)
	if len(approaches) != len(repro.ApproachNames()) {
		t.Errorf("-approach usage lists %q, want all of %q", approaches, repro.ApproachNames())
	}
	for _, name := range approaches {
		for _, spelling := range []string{name, strings.ToLower(strings.TrimPrefix(name, "MKSS-"))} {
			if _, err := repro.ParseApproach(spelling); err != nil {
				t.Errorf("-approach usage lists %q: %v", spelling, err)
			}
		}
	}
	for _, name := range usageNames(t, scenarioUsage) {
		if _, err := repro.ParseScenario(name); err != nil {
			t.Errorf("-scenario usage lists %q: %v", name, err)
		}
	}
}

// usageNames returns the names a usage string lists after its colon.
func usageNames(t *testing.T, usage string) []string {
	t.Helper()
	_, list, ok := strings.Cut(usage, ": ")
	if !ok {
		t.Fatalf("usage %q lists no names", usage)
	}
	return strings.Split(list, " | ")
}
