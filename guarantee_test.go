package repro

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/stats"
	"repro/internal/workload"
)

var guaranteeSeed = flag.Uint64("guarantee-seed", 0,
	"run TestPermanentFaultGuaranteeCorpus on this corpus seed (1-30) only")

// corpusSet names one set of the guarantee corpus: the corpus seed s
// (the sweep seed is stats.DeriveSeed(s, 77)), the interval index in
// [0.1, 0.7) and the set index in the interval.
type corpusSet struct {
	seed          uint64
	interval, set int
}

func (c corpusSet) String() string {
	return fmt.Sprintf("seed %d interval %d set %d (reproduce: go test -run '^TestPermanentFaultGuaranteeCorpus$' -guarantee-seed=%d .)",
		c.seed, c.interval, c.set, c.seed)
}

// readViolators reads testdata/dp_permanent_violators.txt.
func readViolators(t *testing.T) map[corpusSet]bool {
	t.Helper()
	f, err := os.Open("testdata/dp_permanent_violators.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	out := map[corpusSet]bool{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		var c corpusSet
		if _, err := fmt.Sscan(line, &c.seed, &c.interval, &c.set); err != nil {
			t.Fatalf("violator list line %q: %v", line, err)
		}
		out[c] = true
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestPermanentFaultGuaranteeCorpus is the permanent-fault guarantee
// oracle of ROADMAP item 1, run through the fork path. Each corpus seed
// sweeps [0.1, 0.7) on one session under no fault and then under one
// permanent fault, so every permanent-fault run resumes from its
// fault-free run's fork. Under the permanent fault MKSS-ST and
// MKSS-selective must never violate an (m,k) constraint, and MKSS-DP's
// violators must be the committed list, which was recorded with full
// runs. A failure names the set and the command that reruns its seed.
func TestPermanentFaultGuaranteeCorpus(t *testing.T) {
	listed := readViolators(t)
	found := map[corpusSet]bool{}
	first, last := uint64(1), uint64(30)
	if *guaranteeSeed != 0 {
		first, last = *guaranteeSeed, *guaranteeSeed
	}
	for s := first; s <= last; s++ {
		r := NewRunner(RunnerConfig{})
		var rep *Report
		for _, sc := range []Scenario{NoFault, PermanentOnly} {
			cfg := DefaultSweepConfig(sc)
			cfg.Seed = stats.DeriveSeed(s, 77)
			cfg.Intervals = workload.Intervals(0.1, 0.7, 0.1)
			var err error
			if rep, err = r.Sweep(context.Background(), cfg); err != nil {
				t.Fatal(err)
			}
		}
		runs := uint64(0)
		for iv, row := range rep.Rows {
			for si, sr := range row.Sets {
				runs += uint64(len(rep.Approaches))
				c := corpusSet{s, iv, si}
				if sr.Violated[ST] || sr.Violated[Selective] {
					t.Errorf("%v: under a permanent fault MKSS-ST violates: %v, MKSS-selective violates: %v",
						c, sr.Violated[ST], sr.Violated[Selective])
				}
				if sr.Violated[DP] {
					found[c] = true
					if !listed[c] {
						t.Errorf("%v: MKSS-DP violates under a permanent fault, and the committed list does not name the set", c)
					}
				}
			}
		}
		if resumed := r.MemoStats().Resumed; resumed != runs {
			t.Errorf("seed %d: %d of %d permanent-fault runs resumed from a fork", s, resumed, runs)
		}
	}
	for c := range listed {
		if c.seed >= first && c.seed <= last && !found[c] {
			t.Errorf("%v: listed as an MKSS-DP violator, but it no longer violates; remove it from the list", c)
		}
	}
}
