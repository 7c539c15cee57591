// Package core is a benchmark shim: it exists only because
// _perfbench/fig6trace.go builds its engine runs through core.New and
// core.Options, and _perfbench/ changes only together with the benchmark.
// Approaches are named and built in internal/sim/policy, and every run in
// this module is put together by experiment.Simulate; no package here
// imports core. The shim goes once ROADMAP item 2(b), a benchmark change,
// points the benchmark's runSet at experiment.Simulate.
package core

import (
	"repro/internal/sim"
	"repro/internal/sim/policy"

	// The implementation packages register all six approaches, so New
	// can build any of them whoever imports the shim.
	_ "repro/internal/sim/policy/dbp"
	_ "repro/internal/sim/policy/dynamic"
	_ "repro/internal/sim/policy/static"
)

// Options is policy.Options.
type Options = policy.Options

// New is policy.New.
func New(a policy.Approach, opts Options) (sim.Policy, error) { return policy.New(a, opts) }
