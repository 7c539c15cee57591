package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"testing"
	"time"

	"repro"
)

// fig6For builds a fig6-accept bench over the repository checkout one
// directory up, with a fresh session and no correctness pass.
func fig6For(t *testing.T, seed uint64) *fig6Bench {
	t.Helper()
	b, err := newFig6(options{workload: "fig6-accept", seed: seed, root: ".."})
	if err != nil {
		t.Fatal(err)
	}
	b.runner = repro.NewRunner(repro.RunnerConfig{})
	return b
}

// runOps runs the first n ops of b and digests the op sequence and the
// outputs.
func runOps(t *testing.T, b *fig6Bench, n int) (ops, outs string) {
	t.Helper()
	hOps, hOuts := sha256.New(), sha256.New()
	for i := 0; i < n; i++ {
		fmt.Fprintf(hOps, "%+v\n", b.unit(i))
		if _, err := b.op(i); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		fmt.Fprintf(hOuts, "%+v\n", b.outs[i])
	}
	return fmt.Sprintf("%x", hOps.Sum(nil)), fmt.Sprintf("%x", hOuts.Sum(nil))
}

func TestSameSeedSameOpsAndOutputs(t *testing.T) {
	ops1, outs1 := runOps(t, fig6For(t, 7), 4)
	ops2, outs2 := runOps(t, fig6For(t, 7), 4)
	if ops1 != ops2 || outs1 != outs2 {
		t.Fatalf("seed 7 twice: ops %s vs %s, outputs %s vs %s", ops1, ops2, outs1, outs2)
	}

	s1, err := newServe(options{seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	s2, err := newServe(options{seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if bodyDigest(s1) != bodyDigest(s2) {
		t.Fatal("seed 7 twice: serve-replay requests differ")
	}
}

func TestOtherSeedOtherSets(t *testing.T) {
	a, b := fig6For(t, 7), fig6For(t, 8)
	if a.unit(0).seed == b.unit(0).seed {
		t.Fatal("seeds 7 and 8 give the same sweep seed")
	}
	_, outsA := runOps(t, a, 1)
	_, outsB := runOps(t, b, 1)
	if outsA == outsB {
		t.Fatal("seeds 7 and 8 produced identical units")
	}

	s7, err := newServe(options{seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	s8, err := newServe(options{seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if bodyDigest(s7) == bodyDigest(s8) {
		t.Fatal("seeds 7 and 8 give the same serve-replay requests")
	}
}

func bodyDigest(b *serveBench) string {
	h := sha256.New()
	for _, body := range b.bodies {
		h.Write(body)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

func TestPercentileByHand(t *testing.T) {
	sorted := []float64{15, 20, 35, 40, 50}
	for _, c := range []struct {
		p      float64
		want   float64
		beyond int
	}{
		{50, 35, 2}, // rank ceil(2.5) = 3
		{90, 50, 0}, // rank ceil(4.5) = 5
		{20, 15, 4}, // rank ceil(1.0) = 1
		{40, 20, 3}, // rank ceil(2.0) = 2
	} {
		got, beyond := percentile(sorted, c.p)
		if got != c.want || beyond != c.beyond {
			t.Errorf("p%v = %v with %d beyond, want %v with %d", c.p, got, beyond, c.want, c.beyond)
		}
	}

	lat := make([]time.Duration, 100)
	for i := range lat {
		lat[i] = time.Duration(100-i) * time.Millisecond // 100ms .. 1ms, unsorted
	}
	s := summarize(lat)
	if s.n != 100 || s.p50 != 50*time.Millisecond || s.p90 != 90*time.Millisecond || s.beyond90 != 10 {
		t.Errorf("summary of 1..100 ms = %+v, want n=100 p50=50ms p90=90ms beyond90=10", s)
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median(3,1,2) = %v, want 2", got)
	}
}

func TestFailedCheckIsCounted(t *testing.T) {
	b := fig6For(t, 7)
	rep, err := b.runner.Sweep(context.Background(), sweepConfig(b.unit(0)))
	if err != nil {
		t.Fatal(err)
	}
	// Break one processor's time partition: the invariant check must
	// reject the row.
	row := &rep.Rows[0]
	c := row.Counters[repro.DP]
	c.Proc[0].Busy++
	row.Counters[repro.DP] = c
	if _, err := checkUnit(rep); !errors.Is(err, errCheck) {
		t.Fatalf("checkUnit on a broken row: %v, want errCheck", err)
	}

	m := measure(6, 3, 4, time.Hour, nil, func(i int) (time.Duration, error) {
		if i == 4 {
			_, err := checkUnit(rep)
			return time.Millisecond, err
		}
		return time.Millisecond, nil
	})
	if m.attempted != 6 || m.failed != 1 || len(m.lat) != 6 || len(m.errs) != 1 {
		t.Fatalf("attempted %d, failed %d, %d samples, %d errors; want 6, 1, 6, 1",
			m.attempted, m.failed, len(m.lat), len(m.errs))
	}
}

// TestPerLayerMetricsMatchBenchmarkFile keeps BENCHMARK.json's per-layer
// list and the metrics a traced run reports the same.
func TestPerLayerMetricsMatchBenchmarkFile(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	listed := map[string]string{}
	for _, m := range doc.PerLayer {
		listed[m.Name] = m.Unit
	}
	if len(listed) != len(perLayerUnits) {
		t.Errorf("BENCHMARK.json lists %d per-layer metrics, the benchmark reports %d", len(listed), len(perLayerUnits))
	}
	for name, unit := range perLayerUnits {
		if listed[name] != unit {
			t.Errorf("%s: BENCHMARK.json unit %q, reported unit %q", name, listed[name], unit)
		}
	}
}
