package repro

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/pattern"
	"repro/internal/sim/policy"
)

// -update-engine-golden regenerates results/golden/engine_runs.txt from
// the corpus run here. The corpus is deterministic, so the committed file
// reproduces byte for byte on every machine; an engine change that moves
// any stop, settlement, counter or trace segment of any run fails this
// test until the golden is deliberately regenerated and the change
// reviewed.
var updateEngineGolden = flag.Bool("update-engine-golden", false,
	"rewrite results/golden/engine_runs.txt from the measured corpus")

const engineGoldenPath = "results/golden/engine_runs.txt"

// engineCorpusSets draws the corpus: three sets per (m,k)-utilization
// interval of [0.1, 1.0), generator seed 7 + interval index. The two top
// intervals yield no schedulable set, so the corpus holds 21 sets.
func engineCorpusSets() [][]*Set {
	var out [][]*Set
	for i := 0; i < 9; i++ {
		lo := 0.1 + 0.1*float64(i)
		out = append(out, GenerateTaskSets(lo, lo+0.1, 3, uint64(7+i)))
	}
	return out
}

// engineCorpusRates are the two transient settings of the corpus: the
// scenario's own (the paper's 1e-6/ms under PermanentAndTransient, none
// otherwise) and a forced 1e-2/ms that makes faulty copies and backup
// recoveries common.
var engineCorpusRates = []struct {
	name string
	rate float64
}{{"paper", 0}, {"1e-2", 1e-2}}

// energyJSON is the shape a processor's time partition had when the
// golden was written (Result.PerProc, now Counters.Proc), rebuilt so the
// digests hash the same bytes.
type energyJSON struct {
	ActiveTime, IdleTime, SleepTime, DeadTime Time
}

// runDigest is the sha256 prefix over everything a run reports that
// depends on the engine: policy, counters, outcomes, per-processor
// energy, trace, violation indices and the permanent fault.
func runDigest(t *testing.T, r *Result) string {
	t.Helper()
	var perProc [len(r.Counters.Proc)]energyJSON
	for p, pt := range r.Counters.Proc {
		perProc[p] = energyJSON{pt.Busy, pt.Idle, pt.Sleep, pt.Dead}
	}
	b, err := json.Marshal(struct {
		Policy         string
		Counters       Counters
		Outcomes       [][]bool
		PerProc        any
		Trace          any
		ViolationAt    []int
		PermanentFault any
	}{r.Policy, r.Counters, r.Outcomes, perProc, r.Trace, r.ViolationAt, r.PermanentFault})
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	return fmt.Sprintf("%x", sum[:8])
}

// recountMK is the brute-force (m,k) oracle: it counts the effective
// outcomes of every window of k consecutive jobs ending at each position
// (positions before the first job count as effective, as in
// pattern.History) and returns the first position whose window holds
// fewer than m, or -1.
func recountMK(outcomes []bool, m, k int) int {
	for end := range outcomes {
		meets := 0
		for pos := end - k + 1; pos <= end; pos++ {
			if pos < 0 || outcomes[pos] {
				meets++
			}
		}
		if meets < m {
			return end
		}
	}
	return -1
}

// TestEngineRunsMatchGolden pins the engine's full output over a corpus of
// 1,512 runs: 21 generated sets × the six approaches × three fault
// scenarios × the R- and E-pattern × two transient rates, each traced and
// seeded per set. One line per run names its coordinates and a digest of
// its result, so a failure names the run that moved. Every run must also
// pass the counter identities, the trace checker and a brute-force (m,k)
// recount that agrees with Result.MKSatisfied.
func TestEngineRunsMatchGolden(t *testing.T) {
	runner := NewRunner(RunnerConfig{})
	approaches := append(Approaches(), Extensions()...)
	scenarios := []Scenario{NoFault, PermanentOnly, PermanentAndTransient}
	patterns := []pattern.Kind{pattern.RPattern, pattern.EPattern}

	var out bytes.Buffer
	fmt.Fprintln(&out, "# engine run digests: interval set approach scenario pattern rate seed sha256[:16]")
	runs, nsets := 0, 0
	for iv, sets := range engineCorpusSets() {
		for si, s := range sets {
			seed := uint64(1000 + nsets)
			nsets++
			for _, a := range approaches {
				for _, sc := range scenarios {
					for _, pk := range patterns {
						for _, rt := range engineCorpusRates {
							res, err := runner.Simulate(context.Background(), s, a, RunConfig{
								Scenario:      sc,
								Seed:          seed,
								TransientRate: rt.rate,
								RecordTrace:   true,
								Options:       policy.Options{Pattern: pk},
							})
							if err != nil {
								t.Fatal(err)
							}
							name := fmt.Sprintf("%d %d %v %v %v %s %d", iv, si, a, sc, pk, rt.name, seed)
							if p := CheckCounters(res); len(p) > 0 {
								t.Errorf("%s: counter invariants: %s", name, strings.Join(p, "; "))
							}
							if p := VerifyTrace(s, res); len(p) > 0 {
								t.Errorf("%s: trace: %s", name, strings.Join(p, "; "))
							}
							ok := true
							for ti, tk := range s.Tasks {
								v := recountMK(res.Outcomes[ti], tk.M, tk.K)
								if v != res.ViolationAt[ti] {
									t.Errorf("%s: task %d: recount finds first violation at %d, result says %d", name, ti+1, v, res.ViolationAt[ti])
								}
								ok = ok && v < 0
							}
							if ok != res.MKSatisfied() {
								t.Errorf("%s: recount says satisfied=%v, MKSatisfied=%v", name, ok, res.MKSatisfied())
							}
							fmt.Fprintf(&out, "%s %s\n", name, runDigest(t, res))
							runs++
						}
					}
				}
			}
		}
	}
	if nsets != 21 || runs != 1512 {
		t.Fatalf("corpus has %d sets and %d runs, want 21 and 1512", nsets, runs)
	}

	if *updateEngineGolden {
		if err := os.WriteFile(engineGoldenPath, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(engineGoldenPath)
	if err != nil {
		t.Fatalf("%v (regenerate with: go test -run TestEngineRunsMatchGolden -update-engine-golden .)", err)
	}
	got := out.Bytes()
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	moved := 0
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			if moved < 10 {
				t.Errorf("line %d:\n got  %s\n want %s", i+1, g, w)
			}
			moved++
		}
	}
	t.Fatalf("%d of %d engine runs differ from %s", moved, runs, engineGoldenPath)
}
