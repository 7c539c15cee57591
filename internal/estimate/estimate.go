// Package estimate answers the paper's two production questions — "is
// this task set (m,k)-schedulable under R-pattern enforcement, and
// roughly what energy does each approach spend?" — behind one Estimator
// interface with two backends, chosen by name in New:
//
//   - "twin": the analytical twin. Closed-form answers composed from the
//     memoized offline products (Theorem-1 schedulability, the
//     mandatory-schedule profile, promotion/θ intervals) in microseconds,
//     with no discrete-event run. The schedulability verdict is exact;
//     the energy figures are estimates whose per-scenario error against
//     the simulator is measured over the Fig-6 corpus and committed in
//     results/twin_error_bounds.json.
//   - "sim": the empirical backend — an adapter over repro.Runner that
//     runs the real simulation and repackages its result. Same answer
//     vocabulary, exact by construction.
//
// Both backends are constructed around a shared *repro.Runner, so the
// twin's per-set products live in the same fingerprint-keyed analysis
// LRU the simulations use: an estimate warms the cache for a later
// refining simulation and vice versa.
package estimate

import (
	"context"
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
	// TransientRate overrides the transient fault rate when non-zero.
	TransientRate float64
}

// Answer is one backend's verdict.
type Answer struct {
	// Backend names the estimator that produced the answer.
	Backend string
	// Policy is the canonical approach name ("MKSS-selective", ...).
	Policy string
	// Horizon is the effective estimated window.
	Horizon timeu.Time
	// Schedulable is the Theorem-1 R-pattern verdict — exact for both
	// backends (the twin computes the same memoized test the simulation
	// reports, and answers only sets that pass it).
	Schedulable bool
	// ActiveEnergy and TotalEnergy estimate the run's energy figures.
	ActiveEnergy float64
	TotalEnergy  float64
	// MKPredicted predicts whether the run satisfies every (m,k)
	// constraint.
	MKPredicted bool
	// Exact reports whether the answer came from a real simulation.
	Exact bool
}

// UnsupportedError reports that a backend has no model for the requested
// policy. It exists so an approximate backend can refuse honestly rather
// than answer from a model that does not describe the policy at all: the
// twin's closed forms are built on the static-pattern premise and cannot
// speak for a dynamically promoted schedule like MKSS-DBP. Serving maps
// it to a structured 501 so clients can branch to refine=true (the
// simulator handles every registered policy).
type UnsupportedError struct {
	Backend string
	Policy  string
}

func (e *UnsupportedError) Error() string {
	return fmt.Sprintf("estimate: backend %q has no model for policy %q; refine with the simulator", e.Backend, e.Policy)
}

// Estimator is one backend. Implementations must be safe for concurrent
// use; serving fans estimate traffic out over one shared instance.
type Estimator interface {
	// Name is the backend name New accepts.
	Name() string
	// Exact reports whether Estimate's answers are simulation-exact.
	Exact() bool
	// Estimate answers one query.
	Estimate(ctx context.Context, req Request) (*Answer, error)
}

// DefaultBackend is the backend used when a request names none.
const DefaultBackend = "twin"

// New constructs the named backend ("" means DefaultBackend) around the
// given session. The runner's analysis LRU memoizes the twin's per-set
// products and the simulation's offline analyses alike.
func New(name string, r *repro.Runner) (Estimator, error) {
	switch name {
	case "", DefaultBackend:
		return &Twin{runner: r}, nil
	case "sim":
		return &SimBackend{runner: r}, nil
	}
	return nil, fmt.Errorf("estimate: unknown backend %q (want one of sim, twin)", name)
}
