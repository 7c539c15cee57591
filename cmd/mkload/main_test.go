package main

import (
	"context"
	"math"
	"strings"
	"testing"
)

// TestParseMix pins the mix grammar: weights normalize to 1 over the
// known endpoints, and a mix that would leave no endpoint to draw (a NaN
// or infinite weight, or weights summing past the float range) is an
// error, not a panic in the draw.
func TestParseMix(t *testing.T) {
	mix, err := parseMix("simulate=3, estimate=1,simulate=0")
	if err != nil {
		t.Fatal(err)
	}
	if mix["simulate"] != 0.75 || mix["estimate"] != 0.25 || len(mix) != 2 {
		t.Errorf("parseMix = %v, want simulate 0.75, estimate 0.25", mix)
	}
	for _, bad := range []string{
		"simulate=NaN,estimate=1",
		"simulate=Inf",
		"simulate=+Inf,estimate=1",
		"simulate=-Inf,estimate=1",
		"simulate=-1,estimate=1",
		"simulate=1e308,estimate=1e308",
		"simulate=0",
		"simulate",
		"nope=1",
	} {
		if mix, err := parseMix(bad); err == nil {
			t.Errorf("parseMix(%q) = %v, want an error", bad, mix)
		}
	}
}

// TestCheckRate pins the -rate bounds: the pacing interval 1s/rate must
// be at least one nanosecond, or time.NewTicker panics.
func TestCheckRate(t *testing.T) {
	for _, ok := range []float64{0, 1, 500, 1e9} {
		if err := checkRate(ok); err != nil {
			t.Errorf("checkRate(%v) = %v, want nil", ok, err)
		}
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1, 3e9, math.Nextafter(1e9, 2e9)} {
		if err := checkRate(bad); err == nil {
			t.Errorf("checkRate(%v) = nil, want an error", bad)
		}
	}
}

// TestRunRefusesWorkers pins that -c below 1 and an empty -addr are
// refused before anything starts: -c -1 panicked in make (with -rate
// set, in the permit buffer's), -c 0 started no worker, and an empty
// -addr sent every request to a host named "v1".
func TestRunRefusesWorkers(t *testing.T) {
	for _, tc := range []struct {
		o    options
		flag string
	}{
		{options{addr: "127.0.0.1:8080", workers: 0, mix: "simulate=1"}, "-c "},
		{options{addr: "127.0.0.1:8080", workers: -1, mix: "simulate=1"}, "-c "},
		{options{addr: "127.0.0.1:8080", workers: -1, rate: 10, mix: "simulate=1"}, "-c "},
		{options{addr: "", workers: 1, mix: "simulate=1"}, "-addr "},
	} {
		if err := run(context.Background(), tc.o); err == nil || !strings.Contains(err.Error(), tc.flag) {
			t.Errorf("run with -addr %q -c %d -rate %v: error %v, want one naming %s",
				tc.o.addr, tc.o.workers, tc.o.rate, err, tc.flag)
		}
	}
}
