// Package repro is the public API of this reproduction of
//
//	Linwei Niu, Dakai Zhu. "Reliable and Energy-Aware Fixed-Priority
//	(m,k)-Deadlines Enforcement with Standby-Sparing". DATE 2020.
//
// It simulates a two-processor standby-sparing real-time system running
// periodic task sets with (m,k)-firm deadlines under four fixed-priority
// scheduling approaches — the static reference MKSS-ST, the dual-priority
// baseline MKSS-DP, the greedy dynamic straw-man of §III, and the paper's
// selective scheme (Algorithm 1) — with per-processor energy accounting,
// dynamic power-down, and permanent/transient fault injection.
//
// Quick start:
//
//	set := repro.NewSet(
//	    repro.NewTask(5, 4, 3, 2, 4),   // (P, D, C, m, k) in ms
//	    repro.NewTask(10, 10, 3, 1, 2),
//	)
//	res, err := repro.Simulate(set, repro.Selective, repro.RunConfig{HorizonMS: 20})
//	fmt.Println(res.ActiveEnergy()) // 12 — Figure 2 of the paper
//
// The heavy lifting lives in the internal packages (task, pattern, rta,
// postpone, sim, sim/policy, fault, workload, experiment, trace); this package
// re-exports the surface a downstream user needs.
package repro

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"

	"repro/internal/experiment"
	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/pattern"
	"repro/internal/postpone"
	"repro/internal/rta"
	"repro/internal/sim"
	"repro/internal/sim/policy"
	"repro/internal/task"
	"repro/internal/timeu"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Re-exported core types. The aliases give external code full access to
// the underlying methods without importing internal packages.
type (
	// Task is one periodic task (Pi, Di, Ci, mi, ki).
	Task = task.Task
	// Set is a priority-ordered task set.
	Set = task.Set
	// Time is a simulation instant/duration in integer microseconds.
	Time = timeu.Time
	// Approach selects a scheduling scheme.
	Approach = policy.Approach
	// Result is one simulation run's outcome.
	Result = sim.Result
	// PowerModel is the energy model (P_act, P_idle, P_sleep, T_be).
	PowerModel = sim.PowerModel
	// Scenario is a fault setting (NoFault, PermanentOnly, ...).
	Scenario = fault.Scenario
	// Report is a Figure-6 sweep report.
	Report = experiment.Report
	// SweepConfig parameterizes a Figure-6 sweep.
	SweepConfig = experiment.Config
	// Counters is one run's observability counters (see internal/metrics
	// for field meanings and invariants).
	Counters = metrics.Counters
	// MetricsSink receives the engine's structured events; see
	// NewJSONLSink and NewEventCollector for the stock implementations.
	MetricsSink = metrics.Sink
	// MetricsEvent is one structured observation from the engine.
	MetricsEvent = metrics.Event
	// BenchDoc is the versioned machine-readable sweep document emitted
	// by mkbench -json (schema experiment.BenchSchema).
	BenchDoc = experiment.BenchDoc
)

// BenchSchema is the version tag of BENCH_*.json documents.
const BenchSchema = experiment.BenchSchema

// The four approaches of the paper, plus two extensions: DP-background
// (textbook dual-priority where backups also run before promotion) and
// DBP (distance-based priority — every job prioritized by its distance
// to (m,k) failure).
const (
	ST           = policy.ST
	DP           = policy.DP
	Greedy       = policy.Greedy
	Selective    = policy.Selective
	DPBackground = policy.DPBackground
	DBP          = policy.DBP
)

// The three fault scenarios of Figure 6.
const (
	NoFault               = fault.NoFault
	PermanentOnly         = fault.PermanentOnly
	PermanentAndTransient = fault.PermanentAndTransient
)

// Millisecond re-exports the tick count of one millisecond.
const Millisecond = timeu.Millisecond

// NewTask builds a task from millisecond-valued (P, D, C) and the (m,k)
// constraint. IDs are assigned by NewSet.
func NewTask(periodMS, deadlineMS, wcetMS float64, m, k int) Task {
	return task.New(0, periodMS, deadlineMS, wcetMS, m, k)
}

// NewSet builds a priority-ordered task set (first task = highest
// priority).
func NewSet(tasks ...Task) *Set { return task.NewSet(tasks...) }

// RunConfig parameterizes Simulate. The zero value of every field picks
// the paper's setting.
type RunConfig struct {
	// HorizonMS is the simulated duration in ms; zero and negative values
	// use the set's (m,k)-hyperperiod capped at 2000 ms, and a value
	// Horizon refuses is an error.
	HorizonMS float64
	// Scenario injects faults (default NoFault); Seed makes the fault
	// realization reproducible.
	Scenario Scenario
	Seed     uint64
	// TransientRate overrides the transient fault rate (per ms of
	// execution) when non-zero; the paper's value is 1e-6. Useful for
	// demos and sensitivity studies. A rate CheckTransientRate refuses
	// is an error.
	TransientRate float64
	// Power overrides the energy model (zero value = paper defaults:
	// P_act=1, T_be=1ms).
	Power PowerModel
	// RecordTrace keeps per-segment execution history for GanttChart.
	RecordTrace bool
	// Sink, when non-nil, receives a structured event for every engine
	// transition (dispatches, settlements, cancellations, power states);
	// see NewJSONLSink. Leaving it nil costs the simulation nothing.
	Sink MetricsSink
	// Options tunes the policies (ablations); zero value is the paper.
	Options policy.Options
}

// Simulate runs one task set under one approach through the process-wide
// default Runner (so repeated calls on the same set reuse its offline
// analyses). Use SimulateContext for cancellation, or a dedicated Runner
// for an isolated session.
func Simulate(s *Set, a Approach, cfg RunConfig) (*Result, error) {
	return defaultRunner.Simulate(context.Background(), s, a, cfg)
}

// SimulateContext is Simulate with cancellation: a canceled or expired
// context aborts the run at event-loop granularity with an error wrapping
// ctx.Err().
func SimulateContext(ctx context.Context, s *Set, a Approach, cfg RunConfig) (*Result, error) {
	return defaultRunner.Simulate(ctx, s, a, cfg)
}

// NewJSONLSink returns a buffered MetricsSink writing one JSON object
// per event line to w; call Flush when the run finishes. The schema is
// documented in EXPERIMENTS.md ("Observability").
func NewJSONLSink(w io.Writer) *metrics.JSONL { return metrics.NewJSONL(w) }

// NewEventCollector returns a MetricsSink that retains every event in
// memory (tests, small interactive runs).
func NewEventCollector() *metrics.Collector { return &metrics.Collector{} }

// CheckCounters verifies a finished run's counters against the
// simulator's structural identities (settlement and classification
// totals, backup bounds, busy+idle+sleep+dead = horizon per processor).
// It returns human-readable violations; nil means consistent.
func CheckCounters(r *Result) []string {
	return r.Counters.CheckInvariants(r.Horizon)
}

// GanttChart renders a traced run as an ASCII Gantt chart (one lane per
// processor, as in the paper's Figures 1–5). The run must have been
// simulated with RecordTrace.
func GanttChart(r *Result) string { return trace.Gantt{}.Render(r) }

// TraceSummary lists a traced run's execution segments, one per line.
func TraceSummary(r *Result) string { return trace.Summarize(r) }

// VerifyTrace checks structural invariants of a traced run (no
// overlapping segments, no execution outside [release, deadline], no
// WCET overrun) and returns human-readable violations (empty = clean).
func VerifyTrace(s *Set, r *Result) []string { return trace.Check(s, r) }

// Figure6 runs the paper's Figure 6 sweep for one scenario with the
// paper's parameters. Use Sweep for full control.
func Figure6(sc Scenario) (*Report, error) {
	return Sweep(experiment.DefaultConfig(sc))
}

// Sweep runs a fully customized utilization sweep through the default
// Runner. Use SweepContext for cancellation, or Runner.Sweep for an
// isolated session.
func Sweep(cfg SweepConfig) (*Report, error) {
	return defaultRunner.Sweep(context.Background(), cfg)
}

// SweepContext is Sweep with cancellation: on a canceled or expired
// context it returns the partial Report (the intervals completed so far,
// in order) and an error wrapping ctx.Err().
func SweepContext(ctx context.Context, cfg SweepConfig) (*Report, error) {
	return defaultRunner.Sweep(ctx, cfg)
}

// DefaultSweepConfig returns the paper's Figure 6 configuration for a
// scenario, ready for customization.
func DefaultSweepConfig(sc Scenario) SweepConfig { return experiment.DefaultConfig(sc) }

// PromotionTimes returns the dual-priority promotion intervals
// Yi = Di − Ri (Eq. 2), with Yi = 0 for tasks whose response time
// analysis diverges.
func PromotionTimes(s *Set) []Time { return rta.PromotionTimesSafe(s) }

// PostponementIntervals runs the offline analysis of Definitions 2–5 and
// returns the per-task backup release postponement intervals θi.
func PostponementIntervals(s *Set) ([]Time, error) {
	an, err := postpone.Compute(s, postpone.Options{Pattern: pattern.RPattern})
	if err != nil {
		return nil, err
	}
	return an.Theta, nil
}

// VerifyPostponement recomputes the θ analysis and checks, by exact
// simulation of the spare processor's backup schedule over horizonMS
// milliseconds, that every postponed backup job still meets its deadline
// (Theorem 1's backup half). It returns human-readable violations; nil
// means the postponement is safe over the horizon. A horizon that is not
// a finite positive time (NaN, ±Inf, zero, negative, or shorter than one
// tick) is an error: it would check no job and report a vacuous pass.
func VerifyPostponement(s *Set, horizonMS float64) ([]string, error) {
	if !(horizonMS > 0 && horizonMS < timeu.Infinity.Millis()) || timeu.FromMillis(horizonMS) == 0 {
		return nil, fmt.Errorf("repro: horizon %v ms is not a finite positive time", horizonMS)
	}
	an, err := postpone.Compute(s, postpone.Options{Pattern: pattern.RPattern})
	if err != nil {
		return nil, err
	}
	var out []string
	for _, v := range an.Verify(s, pattern.RPattern, timeu.FromMillis(horizonMS)) {
		out = append(out, v.String())
	}
	return out, nil
}

// RPatternSchedulable reports whether the set's mandatory jobs under the
// static R-pattern meet all deadlines (the premise of Theorem 1).
func RPatternSchedulable(s *Set) bool {
	return rta.SchedulableRPattern(s, pattern.RPattern, 10*timeu.Second)
}

// GenerateTaskSets draws schedulable task sets per the §V protocol with
// total (m,k)-utilization in [lo, hi).
func GenerateTaskSets(lo, hi float64, count int, seed uint64) []*Set {
	gen := workload.NewGenerator(workload.DefaultConfig(), seed)
	res := gen.GenerateInterval(workload.Interval{Lo: lo, Hi: hi}, count, 5000*count)
	return res.Sets
}

// TaskSpec / SetSpec are the JSON schema accepted by LoadSet (and the
// mksim command):
//
//	{"tasks": [{"period_ms":5, "deadline_ms":4, "wcet_ms":3, "m":2, "k":4}, ...]}
type TaskSpec struct {
	Name       string  `json:"name,omitempty"`
	PeriodMS   float64 `json:"period_ms"`
	DeadlineMS float64 `json:"deadline_ms,omitempty"` // default: period
	WCETMS     float64 `json:"wcet_ms"`
	M          int     `json:"m"`
	K          int     `json:"k"`
}

// SetSpec is the top-level JSON document.
type SetSpec struct {
	Tasks []TaskSpec `json:"tasks"`
}

// validate checks one task spec field by field, so errors point at the
// offending JSON path ("tasks[2].wcet_ms: ...") instead of surfacing as a
// post-hoc whole-set failure.
func (sp TaskSpec) validate(i int) error {
	fail := func(field, msg string) error {
		return fmt.Errorf("repro: tasks[%d].%s: %s", i, field, msg)
	}
	// checkMS admits exactly the values timeu.FromMillis converts
	// faithfully: a given value must round to at least 1 µs and stay
	// below timeu.Infinity, the engine's "never" (past int64 the
	// conversion is not even defined). A zero optional value is absent.
	checkMS := func(field string, v float64, optional bool) error {
		switch {
		case math.IsNaN(v):
			return fail(field, "is NaN")
		case math.IsInf(v, 0):
			return fail(field, "is infinite")
		case v < 0:
			return fail(field, fmt.Sprintf("is negative (%v)", v))
		case timeu.ApproxZero(v) && optional:
			return nil
		case timeu.ApproxZero(v):
			return fail(field, "is missing or zero")
		}
		switch us := math.Round(v * float64(timeu.Millisecond)); {
		case us < 1:
			return fail(field, fmt.Sprintf("rounds to zero microseconds (%v)", v))
		case us >= float64(timeu.Infinity):
			return fail(field, fmt.Sprintf("is too large (%v; the limit is %v)", v, timeu.Infinity.Millis()))
		}
		return nil
	}
	if err := checkMS("period_ms", sp.PeriodMS, false); err != nil {
		return err
	}
	if err := checkMS("deadline_ms", sp.DeadlineMS, true); err != nil {
		return err
	}
	if err := checkMS("wcet_ms", sp.WCETMS, false); err != nil {
		return err
	}
	if sp.K <= 0 {
		return fail("k", fmt.Sprintf("must be positive, got %d", sp.K))
	}
	if sp.M <= 0 {
		return fail("m", fmt.Sprintf("must be positive, got %d", sp.M))
	}
	if sp.M > sp.K {
		return fail("m", fmt.Sprintf("exceeds k (%d > %d)", sp.M, sp.K))
	}
	return nil
}

// Set materializes the spec into a validated task set. This is the one
// decode path shared by LoadSet, the CLIs and the mkservd request
// handlers, so every consumer gets the same field-path error messages
// ("tasks[2].wcet_ms: ...") for the same malformed input.
func (spec SetSpec) Set() (*Set, error) {
	if len(spec.Tasks) == 0 {
		return nil, fmt.Errorf("repro: set has no tasks")
	}
	ts := make([]Task, len(spec.Tasks))
	for i, sp := range spec.Tasks {
		if err := sp.validate(i); err != nil {
			return nil, err
		}
		d := sp.DeadlineMS
		if timeu.ApproxZero(d) {
			d = sp.PeriodMS
		}
		ts[i] = task.New(i, sp.PeriodMS, d, sp.WCETMS, sp.M, sp.K)
		ts[i].Name = sp.Name
	}
	s := NewSet(ts...)
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("repro: %w", err)
	}
	return s, nil
}

// LoadSet parses a JSON task-set spec, rejecting malformed fields with
// JSON-path error messages. Relational constraints spanning fields
// (deadline ≤ period, wcet ≤ deadline, priority ordering) are still
// enforced by Set.Validate as a backstop.
func LoadSet(r io.Reader) (*Set, error) {
	var spec SetSpec
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return nil, fmt.Errorf("repro: parse set: %w", err)
	}
	return spec.Set()
}

// LoadSetFile loads a task-set spec from a file path, with "-" meaning
// standard input — the shared entry point behind every command's -set
// flag, so file, pipe and heredoc usage all funnel through LoadSet's
// validated decode path.
func LoadSetFile(path string) (*Set, error) {
	if path == "-" {
		return LoadSet(os.Stdin)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close() //mklint:allow errdrop — read-only handle; a close failure cannot lose data
	return LoadSet(f)
}

// Approaches lists the paper's four approaches in presentation order;
// Extensions lists the rest.
func Approaches() []Approach { return policy.Approaches() }

// Extensions lists the registered beyond-paper policies (DPBackground,
// DBP, ...): selectable by name everywhere, excluded from the default
// Fig-6 comparison.
func Extensions() []Approach { return policy.Extensions() }

// ApproachNames lists the canonical approach names ("MKSS-ST", ...), for
// flag usage strings.
func ApproachNames() []string { return policy.ApproachNames() }

// ParseApproach maps a name — canonical ("MKSS-selective"), short alias
// ("st", "dp", "greedy", "selective", "dp-background"), or any case
// variant thereof — to an Approach. One canonical table (shared with
// Approach.String, MarshalText and UnmarshalText) backs every command's
// flag parsing.
func ParseApproach(name string) (Approach, error) { return policy.ParseApproach(name) }

// ParseScenario maps a fault-scenario name ("none", "permanent",
// "permanent+transient"/"both", case-insensitive) to a Scenario; it is
// the shared table behind every command's -scenario flag.
func ParseScenario(name string) (Scenario, error) { return fault.ParseScenario(name) }
