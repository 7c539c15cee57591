package core

import (
	"testing"

	"repro/internal/fault"
	"repro/internal/pattern"
	"repro/internal/rta"
	"repro/internal/sim"
	"repro/internal/sim/policy"
	"repro/internal/stats"
	"repro/internal/task"
	"repro/internal/timeu"
)

func TestApproachStrings(t *testing.T) {
	want := map[policy.Approach]string{
		policy.ST: "MKSS-ST", policy.DP: "MKSS-DP", policy.Greedy: "MKSS-greedy", policy.Selective: "MKSS-selective",
	}
	for a, s := range want {
		if a.String() != s {
			t.Errorf("%d.String() = %q, want %q", int(a), a.String(), s)
		}
	}
	if policy.Approach(99).String() == "" {
		t.Error("unknown approach must render")
	}
	if len(policy.Approaches()) != 4 {
		t.Error("Approaches() incomplete")
	}
}

func TestNewRejectsUnknown(t *testing.T) {
	if _, err := New(policy.Approach(99), Options{}); err == nil {
		t.Error("unknown approach accepted")
	}
}

// mustNew builds approach a's policy through the shim, as the benchmark
// does.
func mustNew(t *testing.T, a policy.Approach, opts Options) sim.Policy {
	t.Helper()
	p, err := New(a, opts)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestPolicyNames(t *testing.T) {
	for _, a := range policy.Approaches() {
		p := mustNew(t, a, Options{})
		if p.Name() != a.String() {
			t.Errorf("policy name %q != %q", p.Name(), a.String())
		}
	}
}

// The FP tie-break ordering test of the shared FPLess helper lives with
// the helper, in internal/sim/policy/registry_test.go.

func run(t *testing.T, s *task.Set, p sim.Policy, horizonMS float64, faults *fault.Plan) *sim.Result {
	t.Helper()
	eng, err := sim.New(s, p, sim.Config{
		Horizon:     timeu.FromMillis(horizonMS),
		Faults:      faults,
		RecordTrace: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	r, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestSTConcurrentCopies: under ST both copies of each mandatory job run
// to completion simultaneously, so active energy is exactly twice the
// mandatory demand.
func TestSTConcurrentCopies(t *testing.T) {
	s := task.NewSet(task.New(0, 10, 10, 3, 2, 3))
	r := run(t, s, mustNew(t, policy.ST, Options{}), 30, nil)
	// R-pattern (2,3): jobs 1,2 mandatory -> 2 jobs * 3ms * 2 copies.
	if got := r.ActiveEnergy(); got != 12 {
		t.Errorf("energy = %v, want 12", got)
	}
	if r.Counters.BackupsCreated != 2 {
		t.Errorf("backups = %d, want 2", r.Counters.BackupsCreated)
	}
	// Job 3 is optional and skipped: outcomes 1,1,0.
	want := []bool{true, true, false}
	for i, w := range want {
		if r.Outcomes[0][i] != w {
			t.Errorf("outcomes = %v, want %v", r.Outcomes[0], want)
			break
		}
	}
}

// TestDPCancelsBackups: with ample slack the DP backups never run at all
// (postponed past the main's completion and canceled cleanly).
func TestDPCancelsBackups(t *testing.T) {
	s := task.NewSet(task.New(0, 20, 20, 2, 1, 2))
	r := run(t, s, mustNew(t, policy.DP, Options{}), 40, nil)
	// Y = D - R = 18; main done at 2 << 18.
	if r.Counters.BackupsCanceledClean != r.Counters.BackupsCreated {
		t.Errorf("clean cancels %d of %d backups",
			r.Counters.BackupsCanceledClean, r.Counters.BackupsCreated)
	}
	if got := r.ActiveEnergy(); got != 2 {
		t.Errorf("energy = %v, want 2 (single job, no backup execution)", got)
	}
}

// TestDPAlternatesMains: Figure 1's preference-oriented assignment puts
// τ1 mains on the primary and τ2 mains on the spare.
func TestDPAlternatesMains(t *testing.T) {
	s := task.NewSet(task.New(0, 5, 4, 3, 2, 4), task.New(1, 10, 10, 3, 1, 2))
	r := run(t, s, mustNew(t, policy.DP, Options{}), 20, nil)
	for _, seg := range r.Trace {
		if seg.Copy != task.Main {
			continue
		}
		wantProc := seg.TaskID % 2
		if seg.Proc != wantProc {
			t.Errorf("main of task %d ran on proc %d, want %d", seg.TaskID+1, seg.Proc, wantProc)
		}
	}
}

// TestSelectiveSkipsHighFD: a (1,5) task has initial FD 4; the selective
// scheme skips jobs until FD reaches 1, then executes: pattern
// skip,skip,skip,exec repeating.
func TestSelectiveSkipsHighFD(t *testing.T) {
	s := task.NewSet(task.New(0, 10, 10, 2, 1, 5))
	r := run(t, s, mustNew(t, policy.Selective, Options{}), 200, nil)
	want := []bool{false, false, false, true} // repeating
	for i, got := range r.Outcomes[0] {
		if got != want[i%4] {
			t.Errorf("outcome[%d] = %v, want %v (seq %v)", i, got, want[i%4], r.Outcomes[0])
			break
		}
	}
	if !r.MKSatisfied() {
		t.Error("(m,k) violated")
	}
	if r.Counters.MandatoryJobs != 0 {
		t.Errorf("mandatory jobs = %d, want 0", r.Counters.MandatoryJobs)
	}
}

// TestSelectiveOneTwoTaskExecutesEverything: for (1,2) the FD never
// exceeds 1, so every job is an eligible optional — the paper's own
// Figure 2 behavior for τ2.
func TestSelectiveOneTwoTaskExecutesEverything(t *testing.T) {
	s := task.NewSet(task.New(0, 10, 10, 2, 1, 2))
	r := run(t, s, mustNew(t, policy.Selective, Options{}), 100, nil)
	for i, got := range r.Outcomes[0] {
		if !got {
			t.Errorf("outcome[%d] = miss; (1,2) under selective executes every job", i)
		}
	}
	if r.Counters.OptionalSelected != 10 {
		t.Errorf("selected = %d, want 10", r.Counters.OptionalSelected)
	}
}

// TestSelectiveFailedOptionalForcesMandatory: when an eligible optional
// cannot complete (deliberate overload on its processor), the task's next
// job must be released mandatory with a backup.
func TestSelectiveFailedOptionalForcesMandatory(t *testing.T) {
	// tau1 hogs the primary (mandatory every job: m=k would do, but keep
	// 0<m<k: use (3,4) with heavy C); tau2's optional (FD1, alternation
	// start: primary) gets starved.
	s := task.NewSet(task.New(0, 10, 10, 9, 3, 4), task.New(1, 20, 20, 8, 1, 2))
	r := run(t, s, mustNew(t, policy.Selective, Options{}), 200, nil)
	if r.Counters.MandatoryJobs == 0 {
		t.Skip("no mandatory jobs materialized; premise broken")
	}
	// tau2 must still satisfy (1,2) thanks to the mandatory fallback.
	if r.ViolationAt[1] >= 0 {
		t.Errorf("tau2 violated (1,2) at job %d; outcomes %v", r.ViolationAt[1]+1, r.Outcomes[1])
	}
}

// TestSelectiveAlternationDisabled: the NoAlternation ablation keeps all
// optional jobs on the primary.
func TestSelectiveAlternationDisabled(t *testing.T) {
	s := task.NewSet(task.New(0, 10, 10, 2, 1, 2))
	r := run(t, s, mustNew(t, policy.Selective, Options{NoAlternation: true}), 100, nil)
	for _, seg := range r.Trace {
		if seg.Proc != sim.Primary {
			t.Errorf("segment on spare despite NoAlternation: %+v", seg)
		}
	}
}

// TestSelectiveAlternationEnabled: with alternation the same workload
// spreads across both processors.
func TestSelectiveAlternationEnabled(t *testing.T) {
	s := task.NewSet(task.New(0, 10, 10, 2, 1, 2))
	r := run(t, s, mustNew(t, policy.Selective, Options{}), 100, nil)
	seen := map[int]bool{}
	for _, seg := range r.Trace {
		seen[seg.Proc] = true
	}
	if !seen[sim.Primary] || !seen[sim.Spare] {
		t.Error("alternation did not use both processors")
	}
}

// TestGreedyExecutesAllOptionals: greedy admits every optional; on an
// uncontended set every job of a (1,4) task runs.
func TestGreedyExecutesAllOptionals(t *testing.T) {
	s := task.NewSet(task.New(0, 10, 10, 2, 1, 4))
	r := run(t, s, mustNew(t, policy.Greedy, Options{}), 100, nil)
	for i, got := range r.Outcomes[0] {
		if !got {
			t.Errorf("outcome[%d] = miss; greedy executes everything when possible", i)
		}
	}
	// All on the primary.
	for _, seg := range r.Trace {
		if seg.Proc != sim.Primary {
			t.Errorf("greedy optional ran on the spare: %+v", seg)
		}
	}
}

// TestGreedyOrdersByFlexibility: footnote 1 — the less flexible optional
// job runs first even if released simultaneously by a lower-priority
// task.
func TestGreedyOrdersByFlexibility(t *testing.T) {
	// tau1 (2,4): FD 2 at start; tau2 (1,2): FD 1 at start. Both release
	// at 0; tau2's optional must run first despite lower FP priority.
	s := task.NewSet(task.New(0, 20, 20, 3, 2, 4), task.New(1, 20, 20, 3, 1, 2))
	r := run(t, s, mustNew(t, policy.Greedy, Options{}), 20, nil)
	var first sim.Segment
	for _, seg := range r.Trace {
		if seg.Start == 0 {
			first = seg
		}
	}
	if first.TaskID != 1 {
		t.Errorf("first executed task = %d, want tau2 (FD 1 beats FD 2)", first.TaskID+1)
	}
}

// TestPoliciesSurvivePermanentFaultAtZero: the degenerate case of a
// processor dead from the very first instant.
func TestPoliciesSurvivePermanentFaultAtZero(t *testing.T) {
	s := task.NewSet(task.New(0, 10, 10, 3, 2, 3), task.New(1, 15, 15, 4, 1, 2))
	for _, a := range policy.Approaches() {
		for proc := 0; proc < sim.NumProcs; proc++ {
			plan := &fault.Plan{Permanent: &fault.Permanent{At: 0, Proc: proc}}
			r := run(t, s, mustNew(t, a, Options{}), 120, plan)
			if !r.MKSatisfied() {
				t.Errorf("%v, proc %d dead at 0: (m,k) violated (outcomes %v)", a, proc, r.Outcomes)
			}
			// The dead processor must consume nothing.
			if r.PerProc[proc].ActiveTime != 0 {
				t.Errorf("%v: dead proc %d executed %v", a, proc, r.PerProc[proc].ActiveTime)
			}
		}
	}
}

// TestFDThresholdZeroDefaultsToOne: Options normalization.
func TestFDThresholdZeroDefaultsToOne(t *testing.T) {
	s := task.NewSet(task.New(0, 10, 10, 2, 1, 5))
	r0 := run(t, s, mustNew(t, policy.Selective, Options{}), 200, nil)
	r1 := run(t, s, mustNew(t, policy.Selective, Options{FDThreshold: 1}), 200, nil)
	if r0.ActiveEnergy() != r1.ActiveEnergy() {
		t.Error("zero FDThreshold must equal threshold 1")
	}
}

// TestFDThresholdTwoExecutesMore: raising the eligibility threshold makes
// the scheme execute more optional jobs (the ablation's point).
func TestFDThresholdTwoExecutesMore(t *testing.T) {
	s := task.NewSet(task.New(0, 10, 10, 2, 1, 5))
	r1 := run(t, s, mustNew(t, policy.Selective, Options{FDThreshold: 1}), 400, nil)
	r2 := run(t, s, mustNew(t, policy.Selective, Options{FDThreshold: 2}), 400, nil)
	if r2.Counters.OptionalSelected <= r1.Counters.OptionalSelected {
		t.Errorf("threshold 2 selected %d <= threshold 1 selected %d",
			r2.Counters.OptionalSelected, r1.Counters.OptionalSelected)
	}
}

// TestThetaVsYAblation: with UsePromotionForTheta the backups are
// postponed less (or equally), so backup overlap can only grow.
func TestThetaVsYAblation(t *testing.T) {
	// Use the Figure 5 set where theta2=4 > Y2=1.
	s := task.NewSet(task.New(0, 10, 10, 3, 2, 3), task.New(1, 15, 15, 8, 1, 2))
	rTheta := run(t, s, mustNew(t, policy.Selective, Options{}), 300, nil)
	rY := run(t, s, mustNew(t, policy.Selective, Options{UsePromotionForTheta: true}), 300, nil)
	if rY.ActiveEnergy() < rTheta.ActiveEnergy() {
		t.Errorf("Y-postponement (%v) beat theta-postponement (%v)",
			rY.ActiveEnergy(), rTheta.ActiveEnergy())
	}
}

// TestEPatternOption: the E-pattern ablation still satisfies (m,k) under
// the static approaches.
func TestEPatternOption(t *testing.T) {
	s := task.NewSet(task.New(0, 10, 10, 3, 2, 4), task.New(1, 15, 15, 4, 1, 3))
	for _, a := range []policy.Approach{policy.ST, policy.DP} {
		r := run(t, s, mustNew(t, a, Options{Pattern: pattern.EPattern}), 300, nil)
		if !r.MKSatisfied() {
			t.Errorf("%v with E-pattern violated (m,k)", a)
		}
	}
}

// TestTransientFaultOnOptionalRecordsMiss: a faulty optional job settles
// as a miss and pushes the next job toward mandatory.
func TestTransientFaultOnOptionalRecordsMiss(t *testing.T) {
	s := task.NewSet(task.New(0, 10, 10, 2, 1, 2))
	plan := fault.NoFaults().WithTransientRate(10) // every job faults
	r := run(t, s, mustNew(t, policy.Selective, Options{}), 100, plan)
	if r.Counters.TransientFaults == 0 {
		t.Fatal("no transient faults at huge rate")
	}
	// With every execution faulting, optional jobs miss, so mandatory
	// jobs (with backups) must appear.
	if r.Counters.MandatoryJobs == 0 {
		t.Error("no mandatory fallback despite persistent optional failures")
	}
}

func TestDeterministicPolicies(t *testing.T) {
	s := task.NewSet(task.New(0, 10, 10, 3, 2, 3), task.New(1, 15, 15, 4, 1, 2))
	for _, a := range policy.Approaches() {
		plan1 := fault.NewPlan(fault.PermanentAndTransient, timeu.FromMillis(300), stats.NewRand(5))
		plan2 := fault.NewPlan(fault.PermanentAndTransient, timeu.FromMillis(300), stats.NewRand(5))
		r1 := run(t, s, mustNew(t, a, Options{}), 300, plan1)
		r2 := run(t, s, mustNew(t, a, Options{}), 300, plan2)
		if r1.ActiveEnergy() != r2.ActiveEnergy() || r1.Counters != r2.Counters {
			t.Errorf("%v not deterministic", a)
		}
	}
}

// TestDPBackgroundRunsBackupsEarly: the extension's backups soak idle
// time before promotion, so its energy is at least the ALAP DP variant's
// and its schedule still keeps (m,k).
func TestDPBackgroundRunsBackupsEarly(t *testing.T) {
	s := task.NewSet(task.New(0, 10, 10, 3, 2, 3), task.New(1, 15, 15, 4, 1, 2))
	alap := run(t, s, mustNew(t, policy.DP, Options{}), 300, nil)
	bg := run(t, s, mustNew(t, policy.DPBackground, Options{}), 300, nil)
	if bg.ActiveEnergy() < alap.ActiveEnergy() {
		t.Errorf("background DP (%v) cheaper than ALAP DP (%v)", bg.ActiveEnergy(), alap.ActiveEnergy())
	}
	if !bg.MKSatisfied() {
		t.Error("background DP violated (m,k)")
	}
	// At least one backup segment must start before its promotion would
	// have allowed under ALAP (i.e. earlier than release + Y).
	ys := rta.PromotionTimesSafe(s)
	early := false
	for _, seg := range bg.Trace {
		if seg.Copy != task.Backup {
			continue
		}
		rel := s.Tasks[seg.TaskID].Release(seg.Index)
		if seg.Start < rel+ys[seg.TaskID] {
			early = true
		}
	}
	if !early {
		t.Error("no backup ran in the background band")
	}
}

// TestDPBackgroundPromotionPreempts: after promotion a backup outranks a
// lower-priority main on the same processor.
func TestDPBackgroundPromotionPreempts(t *testing.T) {
	// tau1 main on primary, backup on spare; tau2 main on spare. With a
	// long tau2 main and a short tau1 Y, the promoted backup J'1 must
	// preempt the running tau2 main on the spare.
	s := task.NewSet(task.New(0, 20, 8, 3, 1, 2), task.New(1, 20, 20, 10, 1, 2))
	r := run(t, s, mustNew(t, policy.DPBackground, Options{}), 20, nil)
	if !r.MKSatisfied() {
		t.Fatalf("(m,k) violated; outcomes %v", r.Outcomes)
	}
}

func TestExtensionsList(t *testing.T) {
	exts := policy.Extensions()
	if len(exts) != 2 || exts[0] != policy.DPBackground || exts[1] != policy.DBP {
		t.Errorf("Extensions() = %v", exts)
	}
	if policy.DPBackground.String() != "MKSS-DP-background" {
		t.Errorf("DPBackground string = %q", policy.DPBackground.String())
	}
	if policy.DBP.String() != "MKSS-DBP" {
		t.Errorf("DBP string = %q", policy.DBP.String())
	}
	for _, a := range exts {
		p := mustNew(t, a, Options{})
		if p.Name() != a.String() {
			t.Errorf("policy name = %q, want %q", p.Name(), a)
		}
	}
}

// TestGreedyUnderPermanentFault covers the dynamic policies' fault
// rerouting: after either processor dies mid-run, greedy routes all work
// to the survivor and the (m,k) guarantees hold on a light set.
func TestGreedyUnderPermanentFault(t *testing.T) {
	s := task.NewSet(task.New(0, 10, 10, 2, 2, 3), task.New(1, 15, 15, 3, 1, 2))
	for proc := 0; proc < sim.NumProcs; proc++ {
		plan := &fault.Plan{Permanent: &fault.Permanent{At: timeu.FromMillis(47), Proc: proc}}
		r := run(t, s, mustNew(t, policy.Greedy, Options{}), 300, plan)
		if !r.MKSatisfied() {
			t.Errorf("greedy, proc %d dead: (m,k) violated", proc)
		}
		for _, seg := range r.Trace {
			if seg.Proc == proc && seg.Start >= timeu.FromMillis(47) {
				t.Errorf("greedy executed on dead proc %d at %v", proc, seg.Start)
			}
		}
	}
}

// The MJQ/OJQ band-ordering tests of the selective and greedy Less
// methods live with the implementations, in
// internal/sim/policy/dynamic/bands_test.go.
