// Package estimate answers the paper's two production questions — "is
// this task set (m,k)-schedulable under R-pattern enforcement, and
// roughly what energy does each approach spend?" — with the analytical
// twin (NewTwin): closed-form answers composed from the memoized offline
// products (Theorem-1 schedulability, the mandatory-schedule profile,
// promotion/θ intervals) in microseconds, with no discrete-event run.
// The schedulability verdict is exact; the energy figures are estimates
// whose per-scenario error against the simulator is measured over the
// Fig-6 corpus and committed in results/twin_error_bounds.json. The
// exact answer is the simulation itself (repro.Runner.Simulate, which
// /v1/estimate serves under refine=true).
//
// The twin is built around a shared *repro.Runner, so its per-set
// products live in the same fingerprint-keyed analysis LRU the
// simulations use: an estimate warms the cache for a later refining
// simulation and vice versa.
package estimate

import (
	"fmt"

	"repro"
	"repro/internal/timeu"
)

// Request is one estimation query. The fields mirror repro.RunConfig's
// simulation-relevant subset, so any Request can be refined into the
// simulation it approximates without translation.
type Request struct {
	Set      *repro.Set
	Approach repro.Approach
	// Scenario, Seed select the fault realization. The twin draws the
	// same fault plan the simulator would (identical RNG stream), so a
	// permanent fault's instant and processor match the refining run
	// exactly.
	Scenario repro.Scenario
	Seed     uint64
	// HorizonMS is the estimated duration in ms, resolved by
	// repro.Horizon as for a simulation: zero and negative values mean
	// the set's (m,k)-hyperperiod capped at 2000 ms, and a value it
	// refuses is an error.
	HorizonMS float64
}

// Answer is the twin's verdict.
type Answer struct {
	// Policy is the canonical approach name ("MKSS-selective", ...).
	Policy string
	// Horizon is the effective estimated window.
	Horizon timeu.Time
	// Schedulable is the Theorem-1 R-pattern verdict — exact: the twin
	// computes the same memoized test the simulation reports, and
	// answers only sets that pass it.
	Schedulable bool
	// ActiveEnergy and TotalEnergy estimate the run's energy figures.
	ActiveEnergy float64
	TotalEnergy  float64
	// MKPredicted predicts whether the run satisfies every (m,k)
	// constraint.
	MKPredicted bool
}

// UnsupportedError reports that the twin has no model for the requested
// policy. The twin refuses honestly rather than answer from a model that
// does not describe the policy at all: its closed forms are built on the
// static-pattern premise and cannot speak for a dynamically promoted
// schedule like MKSS-DBP. Serving maps it to a structured 501 so clients
// can branch to refine=true (the simulator handles every registered
// policy).
type UnsupportedError struct {
	Policy string
}

func (e *UnsupportedError) Error() string {
	return fmt.Sprintf("estimate: backend \"twin\" has no model for policy %q; refine with the simulator", e.Policy)
}
