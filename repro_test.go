package repro

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/workload"
)

func TestQuickstartNumbers(t *testing.T) {
	// The package-doc example: selective on the motivation set = 12.
	set := motivationSet()
	res, err := Simulate(set, Selective, RunConfig{HorizonMS: 20})
	if err != nil {
		t.Fatal(err)
	}
	if res.ActiveEnergy() != 12 {
		t.Errorf("energy = %v, want 12", res.ActiveEnergy())
	}
}

func TestDefaultHorizonIsHyperperiod(t *testing.T) {
	set := motivationSet() // (m,k)-hyperperiod = 20ms
	res, err := Simulate(set, ST, RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Horizon != 20*Millisecond {
		t.Errorf("default horizon = %v, want 20ms", res.Horizon)
	}
}

func TestLoadSet(t *testing.T) {
	const doc = `{"tasks": [
	  {"name":"video", "period_ms":5, "deadline_ms":4, "wcet_ms":3, "m":2, "k":4},
	  {"period_ms":10, "wcet_ms":3, "m":1, "k":2}
	]}`
	s, err := LoadSet(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if s.N() != 2 {
		t.Fatalf("N = %d", s.N())
	}
	if s.Tasks[0].Name != "video" {
		t.Errorf("name = %q", s.Tasks[0].Name)
	}
	// Deadline defaults to period.
	if s.Tasks[1].Deadline != s.Tasks[1].Period {
		t.Error("default deadline wrong")
	}
	// Exactly the motivation set: selective must give 12 again.
	res, err := Simulate(s, Selective, RunConfig{HorizonMS: 20})
	if err != nil {
		t.Fatal(err)
	}
	if res.ActiveEnergy() != 12 {
		t.Errorf("energy = %v, want 12", res.ActiveEnergy())
	}
}

func TestLoadSetRejectsGarbage(t *testing.T) {
	cases := []string{
		``,
		`{}`,
		`{"tasks": []}`,
		`{"tasks": [{"period_ms":5, "wcet_ms":3, "m":0, "k":2}]}`,
		`{"tasks": [{"period_ms":5, "wcet_ms":3, "m":1, "k":2}], "bogus": 1}`,
	}
	for _, doc := range cases {
		if _, err := LoadSet(strings.NewReader(doc)); err == nil {
			t.Errorf("LoadSet(%q) accepted garbage", doc)
		}
	}
}

// TestParseApproach pins the approach surface every flag, report and
// wire body goes through: each canonical name and alias in any case and
// with underscores, the zero value, the listing order, the text
// round trip and the rendering of an out-of-range value.
func TestParseApproach(t *testing.T) {
	for name, want := range map[string]Approach{
		"st": ST, "dp": DP, "greedy": Greedy, "selective": Selective, "sel": Selective,
		"dp-background": DPBackground, "dpbg": DPBackground, "dbp": DBP, "distance": DBP,
		"MKSS-ST": ST, "MKSS-DP": DP, "MKSS-greedy": Greedy, "MKSS-selective": Selective,
		"MKSS-DP-background": DPBackground, "MKSS-DBP": DBP,
		"mkss-st": ST, "mkss-dp": DP, "mkss-greedy": Greedy, "mkss-selective": Selective,
		"mkss-dp-background": DPBackground, "mkss-dbp": DBP,
		"MKSS_ST": ST, "mkss_dp": DP, "MKSS_GREEDY": Greedy, "MKSS_selective": Selective,
		"MKSS_DP_BACKGROUND": DPBackground, "dp_background": DPBackground, "MKSS_DBP": DBP,
		"ST": ST, "Dp": DP, "GREEDY": Greedy, " Sel ": Selective, "DPBG": DPBackground,
		"Distance": DBP, "\tdbp\n": DBP,
	} {
		got, err := ParseApproach(name)
		if err != nil || got != want {
			t.Errorf("ParseApproach(%q) = %v, %v", name, got, err)
		}
	}
	for _, bad := range []string{"edf", "", "mkss", "mkss-", "dp background", "dp--background", "st2"} {
		if _, err := ParseApproach(bad); err == nil {
			t.Errorf("ParseApproach(%q) accepted", bad)
		}
	}
	_, err := ParseApproach("nope")
	const wantErr = `core: unknown approach "nope" (want one of MKSS-ST, MKSS-DP, MKSS-greedy, MKSS-selective, MKSS-DP-background, MKSS-DBP)`
	if err == nil || err.Error() != wantErr {
		t.Errorf("ParseApproach(\"nope\") error = %v, want %s", err, wantErr)
	}

	var zero Approach
	if zero != ST {
		t.Errorf("zero Approach = %v, want ST", zero)
	}
	want := []string{"MKSS-ST", "MKSS-DP", "MKSS-greedy", "MKSS-selective", "MKSS-DP-background", "MKSS-DBP"}
	if got := ApproachNames(); strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("ApproachNames() = %v, want %v", got, want)
	}

	all := append(Approaches(), Extensions()...)
	if len(all) != len(want) {
		t.Fatalf("Approaches()+Extensions() = %v, want %d approaches", all, len(want))
	}
	for i, a := range all {
		if a.String() != want[i] {
			t.Errorf("%d: String() = %q, want %q", i, a.String(), want[i])
		}
		text, err := a.MarshalText()
		if err != nil || string(text) != want[i] {
			t.Errorf("%v.MarshalText() = %q, %v", a, text, err)
		}
		var back Approach
		if err := back.UnmarshalText(text); err != nil || back != a {
			t.Errorf("UnmarshalText(%q) = %v, %v; want %v", text, back, err, a)
		}
	}

	out := Approach(99)
	if got := out.String(); got != "Approach(99)" {
		t.Errorf("Approach(99).String() = %q", got)
	}
	if text, err := out.MarshalText(); err == nil {
		t.Errorf("Approach(99).MarshalText() = %q, want an error", text)
	}
	var back Approach
	if err := back.UnmarshalText([]byte("nope")); err == nil {
		t.Error("UnmarshalText(nope) accepted")
	}
}

func TestGenerateTaskSets(t *testing.T) {
	sets := GenerateTaskSets(0.3, 0.4, 4, 11)
	if len(sets) != 4 {
		t.Fatalf("got %d sets", len(sets))
	}
	for _, s := range sets {
		u := s.MKUtilization()
		if u < 0.3 || u >= 0.4 {
			t.Errorf("utilization %v outside bucket", u)
		}
		if !RPatternSchedulable(s) {
			t.Error("unschedulable set returned")
		}
	}
}

// TestTheorem1Property is the repository's headline property test: for
// randomly generated schedulable sets (the premise of Theorem 1) and no
// faults, MKSS-selective satisfies every (m,k) constraint, and so do the
// static baselines.
func TestTheorem1Property(t *testing.T) {
	if testing.Short() {
		t.Skip("workload generation in -short mode")
	}
	for _, bucket := range [][2]float64{{0.2, 0.3}, {0.4, 0.5}, {0.6, 0.7}} {
		sets := GenerateTaskSets(bucket[0], bucket[1], 6, 17)
		for si, s := range sets {
			for _, a := range Approaches() {
				res, err := Simulate(s, a, RunConfig{HorizonMS: 400})
				if err != nil {
					t.Fatalf("bucket %v set %d %v: %v", bucket, si, a, err)
				}
				if !res.MKSatisfied() {
					t.Errorf("bucket %v set %d: %v violated (m,k); violations %v",
						bucket, si, a, res.ViolationAt)
				}
			}
		}
	}
}

// TestSelectiveNeverWorseThanST: on fault-free schedulable workloads the
// selective scheme never consumes more active energy than the concurrent
// static reference.
func TestSelectiveNeverWorseThanST(t *testing.T) {
	if testing.Short() {
		t.Skip("workload generation in -short mode")
	}
	sets := GenerateTaskSets(0.3, 0.6, 10, 23)
	for si, s := range sets {
		st, err := Simulate(s, ST, RunConfig{HorizonMS: 500})
		if err != nil {
			t.Fatal(err)
		}
		sel, err := Simulate(s, Selective, RunConfig{HorizonMS: 500})
		if err != nil {
			t.Fatal(err)
		}
		if sel.ActiveEnergy() > st.ActiveEnergy()+1e-9 {
			t.Errorf("set %d: selective %.2f > ST %.2f", si, sel.ActiveEnergy(), st.ActiveEnergy())
		}
	}
}

// TestEnergyConservation: active+idle+sleep+dead per processor must
// exactly tile the horizon on every approach and scenario.
func TestEnergyConservation(t *testing.T) {
	set := NewSet(NewTask(10, 10, 3, 2, 3), NewTask(15, 15, 4, 1, 2))
	for _, a := range Approaches() {
		for _, sc := range []Scenario{NoFault, PermanentOnly, PermanentAndTransient} {
			res, err := Simulate(set, a, RunConfig{HorizonMS: 300, Scenario: sc, Seed: 5})
			if err != nil {
				t.Fatal(err)
			}
			for p, en := range res.PerProc {
				if en.Span() != res.Horizon {
					t.Errorf("%v/%v proc %d: span %v != horizon %v", a, sc, p, en.Span(), res.Horizon)
				}
			}
		}
	}
}

// TestTraceVerificationAcrossApproaches: structural trace invariants hold
// for random seeds and all approaches.
func TestTraceVerificationAcrossApproaches(t *testing.T) {
	set := NewSet(NewTask(10, 10, 3, 2, 3), NewTask(15, 15, 4, 1, 2), NewTask(20, 20, 5, 2, 5))
	for _, a := range Approaches() {
		for seed := uint64(0); seed < 5; seed++ {
			res, err := Simulate(set, a, RunConfig{
				HorizonMS:   240,
				Scenario:    PermanentOnly,
				Seed:        seed,
				RecordTrace: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			if problems := VerifyTrace(set, res); len(problems) > 0 {
				t.Errorf("%v seed %d: %v", a, seed, problems)
			}
		}
	}
}

// TestSimulateDeterminism: identical configs give identical results.
func TestSimulateDeterminism(t *testing.T) {
	set := motivationSet()
	f := func(seed uint64) bool {
		a, err := Simulate(set, Selective, RunConfig{HorizonMS: 100, Scenario: PermanentAndTransient, Seed: seed, TransientRate: 0.01})
		if err != nil {
			return false
		}
		b, err := Simulate(set, Selective, RunConfig{HorizonMS: 100, Scenario: PermanentAndTransient, Seed: seed, TransientRate: 0.01})
		if err != nil {
			return false
		}
		return a.ActiveEnergy() == b.ActiveEnergy() && a.Counters == b.Counters
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestPermanentFaultSurvival: with only a permanent fault (no
// transients), every approach keeps all (m,k) constraints on schedulable
// sets — the reliability guarantee of the architecture.
func TestPermanentFaultSurvival(t *testing.T) {
	if testing.Short() {
		t.Skip("workload generation in -short mode")
	}
	sets := GenerateTaskSets(0.3, 0.5, 5, 31)
	for si, s := range sets {
		for _, a := range []Approach{ST, DP, Selective} {
			for seed := uint64(0); seed < 4; seed++ {
				res, err := Simulate(s, a, RunConfig{HorizonMS: 400, Scenario: PermanentOnly, Seed: seed})
				if err != nil {
					t.Fatal(err)
				}
				if !res.MKSatisfied() {
					t.Errorf("set %d %v seed %d: (m,k) violated after permanent fault", si, a, seed)
				}
			}
		}
	}
}

func TestPostponementAtLeastPromotion(t *testing.T) {
	sets := GenerateTaskSets(0.2, 0.5, 5, 41)
	for _, s := range sets {
		ys := PromotionTimes(s)
		thetas, err := PostponementIntervals(s)
		if err != nil {
			t.Fatal(err)
		}
		for i := range ys {
			if thetas[i] < ys[i] {
				t.Errorf("theta%d = %v < Y%d = %v", i+1, thetas[i], i+1, ys[i])
			}
		}
	}
}

func TestSweepSmoke(t *testing.T) {
	cfg := DefaultSweepConfig(NoFault)
	cfg.SetsPerInterval = 2
	cfg.MaxCandidates = 300
	cfg.Intervals = workload.Intervals(0.3, 0.5, 0.1)
	rep, err := Sweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 2 {
		t.Fatalf("rows = %d", len(rep.Rows))
	}
	for _, row := range rep.Rows {
		if len(row.Sets) == 0 {
			continue
		}
		if math.Abs(row.NormMean[ST]-1) > 1e-9 {
			t.Errorf("ST must normalize to 1, got %v", row.NormMean[ST])
		}
		if row.NormMean[Selective] > 1 {
			t.Errorf("selective normalized %v > 1", row.NormMean[Selective])
		}
	}
	if !strings.Contains(rep.Table(), "MKSS-selective") {
		t.Error("table missing selective column")
	}
	if !strings.HasPrefix(rep.CSV(), "util_mid,sets,") {
		t.Errorf("CSV header: %q", strings.Split(rep.CSV(), "\n")[0])
	}
}

func TestVerifyPostponement(t *testing.T) {
	s := NewSet(NewTask(10, 10, 3, 2, 3), NewTask(15, 15, 8, 1, 2))
	violations, err := VerifyPostponement(s, 3000)
	if err != nil {
		t.Fatal(err)
	}
	if len(violations) != 0 {
		t.Errorf("violations: %v", violations)
	}
	// Generated schedulable sets must also verify clean.
	for _, gs := range GenerateTaskSets(0.3, 0.5, 4, 51) {
		v, err := VerifyPostponement(gs, 2000)
		if err != nil {
			t.Fatal(err)
		}
		if len(v) != 0 {
			t.Errorf("generated set: %v", v)
		}
	}
}

// TestVerifyPostponementHorizon: a horizon the walk cannot check is an
// error, never a vacuous "no violations". τ1 = τ2 = (10,10,8,1,2) makes
// every backup job of τ2 miss, so a checked horizon reports them.
func TestVerifyPostponementHorizon(t *testing.T) {
	s := NewSet(NewTask(10, 10, 8, 1, 2), NewTask(10, 10, 8, 1, 2))
	tests := []struct {
		name       string
		horizonMS  float64
		wantMisses int
		wantErr    bool
	}{
		{"checked horizon", 300, 15, false},
		{"zero", 0, 0, true},
		{"negative", -5, 0, true},
		{"NaN", math.NaN(), 0, true},
		{"+Inf", math.Inf(1), 0, true},
		{"-Inf", math.Inf(-1), 0, true},
		{"below one tick", 1e-4, 0, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			v, err := VerifyPostponement(s, tt.horizonMS)
			if (err != nil) != tt.wantErr {
				t.Fatalf("VerifyPostponement(%v) error = %v, wantErr %v", tt.horizonMS, err, tt.wantErr)
			}
			if len(v) != tt.wantMisses {
				t.Errorf("VerifyPostponement(%v) = %d violations %v, want %d", tt.horizonMS, len(v), v, tt.wantMisses)
			}
		})
	}
}
