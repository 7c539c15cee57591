package postpone

import (
	"testing"

	"repro/internal/pattern"
	"repro/internal/rta"
	"repro/internal/task"
	"repro/internal/timeu"
	"repro/internal/workload"
)

// thetaJobQuadratic is the direct reading of Eq. (4), kept as the oracle
// for thetaJob: every inspecting point sums the interference of every
// relevant higher-priority backup job, O(h²) for h such jobs.
func thetaJobQuadratic(s *task.Set, an *Analysis, kind pattern.Kind, i, j int) timeu.Time {
	t := s.Tasks[i]
	r := t.Release(j)
	d := t.AbsDeadline(j)
	hp := relevantHP(s, an, kind, i, r, d)
	points := []timeu.Time{d}
	for _, b := range hp {
		if b.posted > r && b.posted < d {
			points = append(points, b.posted)
		}
	}
	best := -timeu.Infinity
	for _, tb := range points {
		var inter timeu.Time
		for _, b := range hp {
			if b.dl > r && b.posted < tb {
				inter += b.wcet
			}
		}
		if v := tb - (t.WCET + inter) - r; v > best {
			best = v
		}
	}
	return best
}

// computeReference is Compute with the quadratic Eq. (4): levels in
// priority order, the hyperperiod fallback and the Yi floor as in
// Compute. It also counts the jobs it evaluated.
func computeReference(s *task.Set, opts Options, jobs *int) *Analysis {
	cap := opts.HyperperiodCap
	if cap <= 0 {
		cap = DefaultHyperperiodCap
	}
	n := s.N()
	ref := &Analysis{
		Theta:    make([]timeu.Time, n),
		RawTheta: make([]timeu.Time, n),
		Y:        rta.PromotionTimesSafe(s),
		Exact:    make([]bool, n),
	}
	for i := 0; i < n; i++ {
		t := s.Tasks[i]
		hyper := s.MKHyperperiodLevel(i, cap)
		if hyper >= cap {
			ref.RawTheta[i], ref.Theta[i] = ref.Y[i], ref.Y[i]
			continue
		}
		theta, found := timeu.Infinity, false
		for j := 1; t.Release(j) < hyper; j++ {
			if !pattern.Mandatory(opts.Pattern, j, t.M, t.K) {
				continue
			}
			found = true
			*jobs++
			theta = min(theta, thetaJobQuadratic(s, ref, opts.Pattern, i, j))
		}
		if !found {
			theta = ref.Y[i]
		}
		ref.RawTheta[i], ref.Exact[i] = theta, true
		ref.Theta[i] = max(theta, ref.Y[i])
	}
	return ref
}

// TestThetaMatchesQuadraticReference compares Compute against the
// quadratic Eq. (4) on seeded §V candidate draws: R- and E-pattern
// analyses over the paper's uniform periods and the harmonic menu (whose
// small hyperperiods keep every level exact).
func TestThetaMatchesQuadraticReference(t *testing.T) {
	jobs, exactLevels := 0, 0
	for _, harmonic := range []bool{false, true} {
		for _, kind := range []pattern.Kind{pattern.RPattern, pattern.EPattern} {
			for seed := uint64(1); seed <= 10; seed++ {
				cfg := workload.DefaultConfig()
				cfg.HarmonicPeriods = harmonic
				gen := workload.NewGenerator(cfg, seed)
				for draw := 0; draw < 6; draw++ {
					u := 0.1 + 0.15*float64(draw)
					s, err := gen.Candidate(u)
					if err != nil {
						continue
					}
					opts := Options{Pattern: kind}
					got, err := Compute(s, opts)
					if err != nil {
						t.Fatalf("harmonic=%v %v seed %d draw %d: %v", harmonic, kind, seed, draw, err)
					}
					want := computeReference(s, opts, &jobs)
					for i := range s.Tasks {
						if got.Theta[i] != want.Theta[i] || got.RawTheta[i] != want.RawTheta[i] || got.Exact[i] != want.Exact[i] {
							t.Fatalf("harmonic=%v %v seed %d draw %d task %d: theta/raw/exact %v/%v/%v, reference %v/%v/%v\nset %v",
								harmonic, kind, seed, draw, i+1, got.Theta[i], got.RawTheta[i], got.Exact[i],
								want.Theta[i], want.RawTheta[i], want.Exact[i], s)
						}
						if got.Exact[i] {
							exactLevels++
						}
					}
				}
			}
		}
	}
	if jobs < 1000 || exactLevels < 100 {
		t.Fatalf("corpus too thin: %d jobs over %d exact levels", jobs, exactLevels)
	}
	t.Logf("%d backup jobs over %d exact levels matched", jobs, exactLevels)
}
