package experiment

import (
	"encoding/json"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/sim/policy"
	"repro/internal/workload"
)

// benchConfig is a reduced sweep (the CI bench-smoke shape) that still
// exercises every approach and, for fault scenarios, the takeover path.
func benchConfig(sc fault.Scenario) Config {
	cfg := DefaultConfig(sc)
	cfg.SetsPerInterval = 3
	cfg.MaxCandidates = 800
	cfg.Intervals = workload.Intervals(0.2, 0.5, 0.1)
	cfg.Approaches = []policy.Approach{policy.ST, policy.DP, policy.Greedy, policy.Selective}
	return cfg
}

// TestBenchJSONCountersInvariants is the acceptance gate for the
// observability layer: the versioned BENCH document must round-trip
// through JSON and its aggregated counters must satisfy the simulator's
// structural identities (e.g. backup cancellations ≤ mandatory releases,
// busy+idle+sleep+dead = horizon × processors) in every scenario.
func TestBenchJSONCountersInvariants(t *testing.T) {
	for _, sc := range []fault.Scenario{fault.NoFault, fault.PermanentOnly, fault.PermanentAndTransient} {
		sc := sc
		t.Run(sc.String(), func(t *testing.T) {
			t.Parallel()
			cfg := benchConfig(sc)
			rep, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			data, err := rep.BenchJSON("6x", cfg, 1500*time.Millisecond)
			if err != nil {
				t.Fatal(err)
			}

			var doc BenchDoc
			if err := json.Unmarshal(data, &doc); err != nil {
				t.Fatalf("BENCH document is not valid JSON: %v", err)
			}
			if doc.Schema != BenchSchema {
				t.Errorf("schema = %q, want %q", doc.Schema, BenchSchema)
			}
			if doc.Figure != "6x" || doc.Scenario != sc.String() {
				t.Errorf("figure/scenario = %q/%q", doc.Figure, doc.Scenario)
			}
			if doc.WallClockMS != 1500 {
				t.Errorf("wall_clock_ms = %v, want 1500", doc.WallClockMS)
			}
			if len(doc.Rows) != len(cfg.Intervals) {
				t.Fatalf("rows = %d, want %d", len(doc.Rows), len(cfg.Intervals))
			}

			// The invariants must hold on the parsed document (i.e. after a
			// JSON round-trip, proving no counter is lost in serialization).
			if problems := doc.CheckInvariants(); len(problems) > 0 {
				t.Errorf("counter invariants violated:\n%s", problems)
			}

			// Spot-check the fault accounting against the scenario.
			perm := 0
			for _, row := range doc.Rows {
				for _, a := range doc.Approaches {
					perm += row.Counters[a].PermanentFaults
				}
			}
			if sc == fault.NoFault && perm != 0 {
				t.Errorf("no-fault sweep recorded %d permanent faults", perm)
			}
			if sc != fault.NoFault && perm == 0 {
				t.Errorf("fault sweep recorded no permanent faults")
			}
		})
	}
}

// TestBenchJSONNormalizedEnergyConsistency cross-checks the series
// against the counters: the reference approach normalizes to 1, and the
// busy time in the counters is what the energy figure is made of.
func TestBenchJSONNormalizedEnergyConsistency(t *testing.T) {
	cfg := benchConfig(fault.NoFault)
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	doc := rep.BenchDoc("6a", cfg, 0)
	for _, row := range doc.Rows {
		if row.Sets == 0 {
			continue
		}
		if got := row.NormMean[policy.ST.String()]; got != 1 {
			t.Errorf("interval [%g,%g): ST norm mean = %v, want 1", row.UtilLo, row.UtilHi, got)
		}
		// The selective scheme saves energy by executing less: its busy
		// time must not exceed the reference's.
		st := row.Counters[policy.ST.String()]
		sel := row.Counters[policy.Selective.String()]
		stBusy := st.Proc[0].Busy + st.Proc[1].Busy
		selBusy := sel.Proc[0].Busy + sel.Proc[1].Busy
		if selBusy > stBusy {
			t.Errorf("interval [%g,%g): selective busy %v > ST busy %v", row.UtilLo, row.UtilHi, selBusy, stBusy)
		}
	}
}
