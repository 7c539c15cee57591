package estimate

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"math"
	"os"
	"testing"

	"repro"
)

// -update-bounds regenerates results/twin_error_bounds.json from the
// corpus measured here (see EXPERIMENTS.md for the recipe). The corpus
// is fully deterministic, so the committed bounds reproduce bit-for-bit
// on every machine; a model change that moves an error past its bound
// fails this test until the bounds are deliberately regenerated and the
// change reviewed.
var updateBounds = flag.Bool("update-bounds", false,
	"rewrite results/twin_error_bounds.json from the measured corpus errors")

const boundsPath = "../../results/twin_error_bounds.json"

// The committed corpus: the reduced Figure-6 workload (the same
// utilization band the CI benchmarks sweep) across all three fault
// scenarios of the paper's Figure 6. Changing any of these constants
// invalidates the committed bounds — regenerate them in the same change.
const (
	corpusLoUtil   = 0.2
	corpusHiUtil   = 0.7
	corpusStep     = 0.1
	corpusSets     = 3    // sets per utilization interval
	corpusGenSeed  = 2020 // + interval index → workload generator seed
	corpusRunSeedK = 1000 // run seed = K*interval + set index
)

func corpusScenarios() []repro.Scenario {
	return []repro.Scenario{repro.NoFault, repro.PermanentOnly, repro.PermanentAndTransient}
}

func corpusApproaches() []repro.Approach {
	return []repro.Approach{repro.ST, repro.DP, repro.Selective}
}

// boundsDoc is the committed artifact: per-scenario, per-approach upper
// bounds on the twin's relative energy error over the corpus.
type boundsDoc struct {
	Schema string `json:"schema"` // "mkss-twin-bounds/v1"
	Corpus struct {
		LoUtil          float64  `json:"lo_util"`
		HiUtil          float64  `json:"hi_util"`
		Step            float64  `json:"step"`
		SetsPerInterval int      `json:"sets_per_interval"`
		GenSeed         uint64   `json:"gen_seed"`
		RunSeedStride   uint64   `json:"run_seed_stride"`
		Scenarios       []string `json:"scenarios"`
		Approaches      []string `json:"approaches"`
	} `json:"corpus"`
	// Bounds[scenario][policy] bounds the relative |twin−sim|/sim error.
	Bounds map[string]map[string]errBound `json:"bounds"`
}

type errBound struct {
	ActiveRelErr float64 `json:"active_rel_err"`
	TotalRelErr  float64 `json:"total_rel_err"`
}

// TestTwinErrorBounds cross-validates the analytical twin against the
// simulator over the full corpus and enforces the committed bounds:
//   - schedulability verdicts match the public Theorem-1 test AND the
//     session's memoized verdict exactly (they are not estimates);
//   - the (m,k) prediction matches the simulated outcome on every run;
//   - per-scenario, per-approach relative energy error stays within
//     results/twin_error_bounds.json.
func TestTwinErrorBounds(t *testing.T) {
	r := repro.NewRunner(repro.RunnerConfig{})
	tw := NewTwin(r)

	measured := map[string]map[string]errBound{}
	runs := 0
	for i := 0; math.Abs(corpusLoUtil+float64(i)*corpusStep-corpusHiUtil) > 1e-9; i++ {
		lo := corpusLoUtil + float64(i)*corpusStep
		sets := repro.GenerateTaskSets(lo, lo+corpusStep, corpusSets, corpusGenSeed+uint64(i))
		if len(sets) == 0 {
			t.Fatalf("interval [%.1f,%.1f): generator produced no sets", lo, lo+corpusStep)
		}
		for si, set := range sets {
			for _, a := range corpusApproaches() {
				for _, sc := range corpusScenarios() {
					runs++
					seed := corpusRunSeedK*uint64(i) + uint64(si)
					at, err := tw.Estimate(Request{Set: set, Approach: a, Scenario: sc, Seed: seed})
					if err != nil {
						t.Fatalf("%v/%v twin: %v", a, sc, err)
					}
					res, err := r.Simulate(context.Background(), set, a, repro.RunConfig{Scenario: sc, Seed: seed})
					if err != nil {
						t.Fatalf("%v/%v sim: %v", a, sc, err)
					}
					simActive, simTotal := res.ActiveEnergy(), res.TotalEnergy()
					if want, sim := repro.RPatternSchedulable(set), r.Analysis(set).Schedulable(); at.Schedulable != want || sim != want {
						t.Errorf("%v/%v interval %d set %d: verdicts twin=%v sim=%v public=%v",
							a, sc, i, si, at.Schedulable, sim, want)
					}
					if at.MKPredicted != res.MKSatisfied() {
						t.Errorf("%v/%v interval %d set %d: (m,k) predicted %v, simulated %v",
							a, sc, i, si, at.MKPredicted, res.MKSatisfied())
					}
					if simActive <= 0 || simTotal <= 0 {
						t.Fatalf("%v/%v interval %d set %d: degenerate sim energy %v/%v",
							a, sc, i, si, simActive, simTotal)
					}
					m := measured[sc.String()]
					if m == nil {
						m = map[string]errBound{}
						measured[sc.String()] = m
					}
					b := m[at.Policy]
					if e := math.Abs(at.ActiveEnergy-simActive) / simActive; e > b.ActiveRelErr {
						b.ActiveRelErr = e
					}
					if e := math.Abs(at.TotalEnergy-simTotal) / simTotal; e > b.TotalRelErr {
						b.TotalRelErr = e
					}
					m[at.Policy] = b
				}
			}
		}
	}
	t.Logf("corpus: %d twin/sim run pairs", runs)

	if *updateBounds {
		writeBounds(t, measured)
		return
	}

	data, err := os.ReadFile(boundsPath)
	if err != nil {
		t.Fatalf("%v (regenerate with: go test ./internal/estimate -run TestTwinErrorBounds -update-bounds)", err)
	}
	var committed boundsDoc
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&committed); err != nil {
		t.Fatal(err)
	}
	if committed.Schema != "mkss-twin-bounds/v1" {
		t.Fatalf("bounds schema %q", committed.Schema)
	}
	if committed.Corpus.GenSeed != corpusGenSeed || committed.Corpus.SetsPerInterval != corpusSets ||
		committed.Corpus.LoUtil != corpusLoUtil || committed.Corpus.HiUtil != corpusHiUtil {
		t.Fatalf("committed corpus %+v does not match the test's constants — regenerate the bounds", committed.Corpus)
	}
	for sc, byPolicy := range measured {
		for policy, m := range byPolicy {
			b, ok := committed.Bounds[sc][policy]
			if !ok {
				t.Errorf("%s/%s: no committed bound — regenerate results/twin_error_bounds.json", sc, policy)
				continue
			}
			if m.ActiveRelErr > b.ActiveRelErr {
				t.Errorf("%s/%s: active energy error %.4f exceeds committed bound %.4f",
					sc, policy, m.ActiveRelErr, b.ActiveRelErr)
			}
			if m.TotalRelErr > b.TotalRelErr {
				t.Errorf("%s/%s: total energy error %.4f exceeds committed bound %.4f",
					sc, policy, m.TotalRelErr, b.TotalRelErr)
			}
		}
	}
}

// writeBounds commits the measured maxima, rounded up to the next 0.005
// so innocuous float jitter in future toolchains cannot flip the test.
func writeBounds(t *testing.T, measured map[string]map[string]errBound) {
	t.Helper()
	var doc boundsDoc
	doc.Schema = "mkss-twin-bounds/v1"
	doc.Corpus.LoUtil = corpusLoUtil
	doc.Corpus.HiUtil = corpusHiUtil
	doc.Corpus.Step = corpusStep
	doc.Corpus.SetsPerInterval = corpusSets
	doc.Corpus.GenSeed = corpusGenSeed
	doc.Corpus.RunSeedStride = corpusRunSeedK
	for _, sc := range corpusScenarios() {
		doc.Corpus.Scenarios = append(doc.Corpus.Scenarios, sc.String())
	}
	for _, a := range corpusApproaches() {
		doc.Corpus.Approaches = append(doc.Corpus.Approaches, a.String())
	}
	up := func(v float64) float64 { return math.Ceil(v*200) / 200 }
	doc.Bounds = map[string]map[string]errBound{}
	for sc, byPolicy := range measured {
		doc.Bounds[sc] = map[string]errBound{}
		for policy, m := range byPolicy {
			doc.Bounds[sc][policy] = errBound{
				ActiveRelErr: up(m.ActiveRelErr),
				TotalRelErr:  up(m.TotalRelErr),
			}
		}
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(boundsPath, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s", boundsPath)
}
