// Package fault models the paper's fault hypotheses (§II-B, §V):
//
//   - Permanent faults: hardware failure of one processor. The
//     standby-sparing architecture tolerates at most one; the evaluation's
//     second and third scenarios inject a single permanent fault at a
//     uniformly random instant on a uniformly random processor.
//   - Transient faults: soft errors striking during job execution,
//     detected by a sanity/consistency check at the end of the job (whose
//     overhead is folded into the WCET). The evaluation assumes Poisson
//     arrivals with average rate 10⁻⁶ per millisecond.
//
// A Plan is drawn once per simulation run from its own RNG stream so the
// schedule and the faults are independently reproducible.
package fault

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/stats"
	"repro/internal/timeu"
)

// DefaultTransientRate is the paper's average transient fault rate of
// 10⁻⁶, interpreted per millisecond of execution.
const DefaultTransientRate = 1e-6

// Scenario names the three evaluation settings of Figure 6.
type Scenario int

const (
	// NoFault (Fig. 6a): fault-free operation.
	NoFault Scenario = iota
	// PermanentOnly (Fig. 6b): at most one permanent fault.
	PermanentOnly
	// PermanentAndTransient (Fig. 6c): one permanent fault plus Poisson
	// transient faults.
	PermanentAndTransient
)

func (s Scenario) String() string {
	switch s {
	case NoFault:
		return "no-fault"
	case PermanentOnly:
		return "permanent"
	case PermanentAndTransient:
		return "permanent+transient"
	default:
		return fmt.Sprintf("Scenario(%d)", int(s))
	}
}

// ParseScenario maps a scenario name, case-insensitively, to its value:
// "none", "no-fault" or "" → NoFault; "permanent" → PermanentOnly;
// "permanent+transient" or "both" → PermanentAndTransient. It is the one
// table every command-line flag parser shares.
func ParseScenario(s string) (Scenario, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "none", "no-fault", "nofault":
		return NoFault, nil
	case "permanent":
		return PermanentOnly, nil
	case "permanent+transient", "both":
		return PermanentAndTransient, nil
	default:
		return 0, fmt.Errorf("fault: unknown scenario %q (want none, permanent, or permanent+transient)", s)
	}
}

// Permanent describes one injected permanent fault.
type Permanent struct {
	// At is the failure instant.
	At timeu.Time
	// Proc is the failing processor (0 = primary, 1 = spare).
	Proc int
}

// Plan is the drawn fault realization for one simulation run.
type Plan struct {
	// Permanent is nil when no permanent fault occurs in this run.
	Permanent *Permanent
	// TransientRate is the Poisson rate per millisecond of execution;
	// zero disables transient faults.
	TransientRate float64

	rng *stats.Rand
}

// NewPlan draws a fault plan for the given scenario over [0, horizon).
// rng must be a dedicated stream; the plan keeps it for per-job transient
// draws during simulation.
func NewPlan(sc Scenario, horizon timeu.Time, rng *stats.Rand) *Plan {
	p := &Plan{rng: rng}
	switch sc {
	case NoFault:
	case PermanentOnly, PermanentAndTransient:
		p.Permanent = &Permanent{
			At:   timeu.Time(rng.Int64n(int64(horizon))),
			Proc: rng.Intn(2),
		}
		if sc == PermanentAndTransient {
			p.TransientRate = DefaultTransientRate
		}
	}
	return p
}

// NoFaults returns an inert plan (useful for tests and the Fig. 6a runs).
func NoFaults() *Plan { return &Plan{rng: stats.NewRand(0)} }

// WithTransientRate overrides the transient rate (for sensitivity
// ablations) and returns the plan for chaining.
func (p *Plan) WithTransientRate(rate float64) *Plan {
	p.TransientRate = rate
	return p
}

// TransientDuring reports whether a transient fault strikes an execution
// of the given *cumulative* duration. With Poisson arrivals at rate λ per
// ms, the probability of at least one arrival in d ms is 1 − e^(−λd);
// because detection happens only at the end of the job (§II-B), sampling
// a single Bernoulli at completion is distributionally equivalent to
// sampling arrival instants.
func (p *Plan) TransientDuring(d timeu.Time) bool {
	if p.TransientRate <= 0 || d <= 0 {
		return false
	}
	return p.rng.Float64() < p.transientProb(d)
}

// transientProb is the probability 1 − e^(−λd) that a transient fault
// strikes an execution of d.
func (p *Plan) transientProb(d timeu.Time) float64 {
	return 1 - math.Exp(-p.TransientRate*d.Millis())
}

// TransientFree reports whether none of the plan's next n TransientDuring
// calls can report a fault when each is given one of durations. It draws
// n uniforms and compares each with the largest probability
// TransientDuring computes for any of durations — the largest computed
// value, so the comparison is exactly the one TransientDuring makes. A
// run that completes at most n jobs, each lasting one of durations, thus
// sees no transient fault. It consumes the draws it compares.
func (p *Plan) TransientFree(n int, durations []timeu.Time) bool {
	if p.TransientRate <= 0 {
		return true
	}
	threshold := 0.0
	for _, d := range durations {
		if d <= 0 {
			continue // TransientDuring draws nothing for it
		}
		if prob := p.transientProb(d); prob > threshold {
			threshold = prob
		}
	}
	for range n {
		if p.rng.Float64() < threshold {
			return false
		}
	}
	return true
}

func (p *Plan) String() string {
	s := "faults{"
	if p.Permanent != nil {
		s += fmt.Sprintf("permanent@%v proc%d", p.Permanent.At, p.Permanent.Proc)
	} else {
		s += "no-permanent"
	}
	if p.TransientRate > 0 {
		s += fmt.Sprintf(", transient λ=%g/ms", p.TransientRate)
	}
	return s + "}"
}
