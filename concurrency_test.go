// Tests for the concurrent session behavior the serving layer builds
// on: single cache admission under a thundering herd, concurrent sweeps
// sharing one session's interval memo, and the stdin entry point of
// LoadSetFile shared by mkservd, mksim and mkload.
package repro

import (
	"context"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/workload"
)

// TestAnalysisCacheSingleAdmission races 64 goroutines, each with its
// own fingerprint-identical Set, through one Runner. The analysis cache
// must admit exactly one computation — one miss, 63 hits, one entry —
// and every run must produce identical results.
func TestAnalysisCacheSingleAdmission(t *testing.T) {
	r := NewRunner(RunnerConfig{})
	const n = 64
	var (
		wg      sync.WaitGroup
		start   = make(chan struct{})
		results [n]*Result
		errs    [n]error
	)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Each goroutine constructs its own Set: identical content,
			// distinct pointers, same fingerprint — the cache key dedupes
			// on content, not identity.
			set := NewSet(NewTask(5, 4, 3, 2, 4), NewTask(10, 10, 3, 1, 2))
			<-start
			results[i], errs[i] = r.Simulate(context.Background(), set, Selective, RunConfig{HorizonMS: 20})
		}(i)
	}
	close(start)
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("goroutine %d: %v", i, errs[i])
		}
		if results[i].ActiveEnergy() != results[0].ActiveEnergy() ||
			results[i].TotalEnergy() != results[0].TotalEnergy() {
			t.Fatalf("goroutine %d diverged: active %v total %v, want %v / %v",
				i, results[i].ActiveEnergy(), results[i].TotalEnergy(),
				results[0].ActiveEnergy(), results[0].TotalEnergy())
		}
	}
	st := r.CacheStats()
	if st.Misses != 1 {
		t.Errorf("cache misses = %d, want exactly 1 admission", st.Misses)
	}
	if st.Hits != n-1 {
		t.Errorf("cache hits = %d, want %d", st.Hits, n-1)
	}
	if st.Entries != 1 {
		t.Errorf("cache entries = %d, want 1", st.Entries)
	}
}

// TestLoadSetFileStdin checks the "-" path reads the spec from standard
// input, sharing the validation of the file path.
func TestLoadSetFileStdin(t *testing.T) {
	const spec = `{"tasks":[
		{"period_ms":5,"deadline_ms":4,"wcet_ms":3,"m":2,"k":4},
		{"period_ms":10,"deadline_ms":10,"wcet_ms":3,"m":1,"k":2}]}`
	f, err := os.CreateTemp(t.TempDir(), "set*.json")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(spec); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Seek(0, 0); err != nil {
		t.Fatal(err)
	}
	orig := os.Stdin
	os.Stdin = f
	defer func() {
		os.Stdin = orig
		if err := f.Close(); err != nil {
			t.Error(err)
		}
	}()
	s, err := LoadSetFile("-")
	if err != nil {
		t.Fatalf("LoadSetFile(-): %v", err)
	}
	want, err := LoadSet(strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Tasks) != len(want.Tasks) {
		t.Fatalf("stdin set has %d tasks, want %d", len(s.Tasks), len(want.Tasks))
	}
	for i := range s.Tasks {
		if s.Tasks[i] != want.Tasks[i] {
			t.Errorf("task %d = %+v, want %+v", i, s.Tasks[i], want.Tasks[i])
		}
	}
}

// TestRunnerConcurrentMixedSweeps races sweeps of all three fault
// scenarios over one population through one Runner. Concurrent misses on
// one interval may both draw; every report must still equal a fresh
// session's sweep of its scenario.
func TestRunnerConcurrentMixedSweeps(t *testing.T) {
	const seed = 11
	ctx := context.Background()
	scenarios := []Scenario{NoFault, PermanentOnly, PermanentAndTransient}
	cfg := func(sc Scenario) SweepConfig {
		c := DefaultSweepConfig(sc)
		c.Seed = seed
		c.SetsPerInterval = 2
		c.MaxCandidates = 300
		c.Intervals = workload.Intervals(0.3, 0.6, 0.1)
		c.Workers = 2
		return c
	}
	want := map[Scenario]*Report{}
	for _, sc := range scenarios {
		rep, err := NewRunner(RunnerConfig{}).Sweep(ctx, cfg(sc))
		if err != nil {
			t.Fatal(err)
		}
		want[sc] = rep
	}
	r := NewRunner(RunnerConfig{})
	const n = 12
	var (
		wg   sync.WaitGroup
		reps [n]*Report
		errs [n]error
	)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			reps[i], errs[i] = r.Sweep(ctx, cfg(scenarios[i%len(scenarios)]))
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		sc := scenarios[i%len(scenarios)]
		if errs[i] != nil {
			t.Fatalf("sweep %d (%v): %v", i, sc, errs[i])
		}
		if !reflect.DeepEqual(reps[i].Rows, want[sc].Rows) {
			t.Errorf("seed %d sweep %d (%v): report differs from a fresh session's", seed, i, sc)
		}
	}
	hits, misses := r.memo.Counts()
	if intervals := uint64(len(cfg(NoFault).Intervals)); hits+misses != n*intervals || misses < intervals {
		t.Errorf("seed %d: %d hits, %d misses over %d interval lookups", seed, hits, misses, n*intervals)
	}
}
