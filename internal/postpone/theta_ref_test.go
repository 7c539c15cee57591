package postpone

import (
	"runtime"
	"testing"

	"repro/internal/pattern"
	"repro/internal/rta"
	"repro/internal/task"
	"repro/internal/timeu"
	"repro/internal/workload"
)

// hpJob is one higher-priority backup job relevant to an Eq. (4) window.
type hpJob struct {
	posted timeu.Time // r̃kl
	dl     timeu.Time // dkl
	wcet   timeu.Time // ckl
}

// relevantHP enumerates, task by task, the higher-priority backup jobs
// that can appear in Eq. (4) for a window [r, d): those with deadline
// after r (dkl > r) and postponed release before d. It materializes the
// jobs the cursors of thetaJob visit in place, as the oracle's input.
func relevantHP(s *task.Set, an *Analysis, kind pattern.Kind, i int, r, d timeu.Time) []hpJob {
	var out []hpJob
	for k := 0; k < i; k++ {
		tk := s.Tasks[k]
		thetaK := an.Theta[k]
		lo := tk.JobIndexAt(r-tk.Deadline) + 1
		if lo < 1 {
			lo = 1
		}
		for l := lo; ; l++ {
			rel := tk.Release(l)
			if rel+thetaK >= d {
				break
			}
			if !pattern.Mandatory(kind, l, tk.M, tk.K) {
				continue
			}
			dl := rel + tk.Deadline
			if dl > r {
				out = append(out, hpJob{posted: rel + thetaK, dl: dl, wcet: tk.WCET})
			}
		}
	}
	return out
}

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

// backlogSet is the set with the densest Eq. (4) windows: every window of
// τ3 (about one second) spans about 830,000 backup jobs of the 2 µs and
// 3 µs tasks, and its level hyperperiod (about 6 s) keeps τ3 exact.
func backlogSet() *task.Set {
	return task.NewSet(
		task.New(0, 0.002, 0.002, 0.002, 1, 1),
		task.New(1, 0.003, 0.003, 0.001, 1, 1),
		task.New(2, 999.983, 999.983, 0.001, 1, 2),
	)
}

// TestComputeMemoryIndependentOfWindowJobs bounds what one Compute
// allocates on backlogSet: thetaJob merges the higher-priority job
// streams in place, so the analysis holds one cursor per task however
// many jobs a window spans. Collecting each window's jobs into a slice
// allocated about 330 MB here.
func TestComputeMemoryIndependentOfWindowJobs(t *testing.T) {
	s := backlogSet()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	an, err := Compute(s, Options{})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if !an.Exact[2] {
		t.Fatal("τ3 fell back to Y; the bound needs the exact analysis")
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 16<<20 {
		t.Errorf("Compute allocated %d bytes, want < 16 MB", alloc)
	}
}

// BenchmarkCompute times the analysis on backlogSet and on a fixed batch
// of §V candidate sets with (m,k)-utilization in [0.1, 0.6).
func BenchmarkCompute(b *testing.B) {
	gen := workload.NewGenerator(workload.DefaultConfig(), 1)
	var fig6 []*task.Set
	for len(fig6) < 20 {
		if s, err := gen.Candidate(0.1 + 0.025*float64(len(fig6))); err == nil {
			fig6 = append(fig6, s)
		}
	}
	for _, c := range []struct {
		name string
		sets []*task.Set
	}{{"backlog", []*task.Set{backlogSet()}}, {"fig6", fig6}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for n := 0; n < b.N; n++ {
				for _, s := range c.sets {
					if _, err := Compute(s, Options{}); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
