// Command perfbench is the repository benchmark. It drives one workload
// through the repo's public packages in a single process, checks the
// output of every op, and prints the end-to-end metrics; with --trace 1 it
// also re-drives the first ops through each layer's own calls and prints
// the per-layer metrics instead. See README.md for the workloads, the
// metrics and how the two relate.
//
// Run it from the repository root (run.sh builds it first):
//
//	bash _perfbench/run.sh --workload fig6-accept --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// workloadRun is one workload: repeated set-ups, then a closed loop of
// ops, then (traced runs only) a re-drive of the first ops through the
// layers' own calls.
type workloadRun interface {
	// setUp performs one set-up repetition; the state of the last one
	// serves the measured phase.
	setUp() error
	// cycleLen is the number of ops in one cycle of the op sequence.
	cycleLen() int
	// traceOps is how many leading ops the traced re-drive repeats.
	traceOps() int
	// op runs op i of the sequence, returning the time the op itself took
	// and an error when it failed or its output failed a check.
	op(i int) (time.Duration, error)
	// trace re-drives ops [0, n) with layer spans and returns the
	// per-layer metrics, or an error when the re-drive does not reproduce
	// the measured ops' outputs.
	trace(n int, tr *tracer) (map[string]metric, error)
	close() error
}

// minOps keeps p90 reportable: at least ten samples lie beyond it.
const minOps = 100

// limitFactor stops the measured phase early (at a cycle boundary) past
// this many times --seconds, for a host or program far slower than the
// nominal rate.
const limitFactor = 1.2

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	scratch  string // directory for store files, removed on exit
	root     string // repository checkout (for the committed results/)
}

func main() {
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "fig6-accept, fig6-reject or serve-replay")
	flag.Uint64Var(&o.seed, "seed", 1, "workload seed")
	flag.IntVar(&o.seconds, "seconds", 10, "measured-phase length in seconds at the nominal op rate")
	flag.IntVar(&traceFlag, "trace", 0, "1 = report per-layer metrics from a traced re-drive")
	flag.Parse()
	o.trace = traceFlag == 1
	if o.seconds < 1 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	// Every workload is one closed loop (one sweep worker, or one client
	// and the server it calls). With one P nothing on the measured path
	// waits for another vCPU to wake — collector workers, the server's
	// connection goroutine — and on a shared host that wake-up latency
	// swung latency between runs by far more than the code under test.
	runtime.GOMAXPROCS(1)
	res, err := run(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encode result: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// run sets up, measures and (optionally) traces one workload.
func run(o options) (*result, error) {
	var err error
	if o.root, err = os.Getwd(); err != nil {
		return nil, err
	}
	base := filepath.Join(o.root, ".bench_build")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return nil, err
	}
	if o.scratch, err = os.MkdirTemp(base, "run-"); err != nil {
		return nil, err
	}
	defer os.RemoveAll(o.scratch)

	// reps is the number of set-ups; rate is the nominal op rate on the
	// reference VM, which sizes the measured phase.
	var w workloadRun
	var reps int
	var rate float64
	switch o.workload {
	case "fig6-accept", "fig6-reject":
		w, err = newFig6(o)
		reps, rate = 7, 33
		if o.workload == "fig6-reject" {
			rate = 45
		}
	case "serve-replay":
		w, err = newServe(o)
		reps, rate = 3, 6000
	default:
		return nil, fmt.Errorf("unknown workload %q (want fig6-accept, fig6-reject or serve-replay)", o.workload)
	}
	if err != nil {
		return nil, err
	}
	res, err := measureWorkload(w, o, reps, rate)
	if cerr := w.close(); err == nil && cerr != nil {
		err = cerr
	}
	return res, err
}

// measureWorkload runs reps set-ups, the measured phase sized by rate
// and, for traced runs, the re-drive; it prints every metric by name
// before returning the result line.
func measureWorkload(w workloadRun, o options, reps int, rate float64) (*result, error) {
	// Each set-up and each chunk of the measured phase runs on the next
	// CPU in turn, so every run samples every vCPU's share of the host.
	rot := newCPURotor()
	setups := make([]float64, reps)
	for r := range setups {
		rot.step()
		t0 := time.Now()
		if err := w.setUp(); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups[r] = time.Since(t0).Seconds()
	}

	need := minOps
	if o.trace {
		need = max(need, w.traceOps())
	}
	d := time.Duration(o.seconds) * time.Second
	m := measure(opCount(d, rate, w.cycleLen(), need), w.cycleLen(), chunkOps(rate, w.cycleLen()),
		time.Duration(limitFactor*float64(d)), rot, w.op)
	rot.restore()
	if o.trace && m.attempted < w.traceOps() {
		return nil, fmt.Errorf("measured phase stopped after %d ops, before the %d the trace repeats", m.attempted, w.traceOps())
	}
	for _, err := range m.errs {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	}
	res := &result{Correct: m.failed == 0, Attempted: m.attempted, Failed: m.failed}
	lat := summarize(m.lat)
	var untraced time.Duration
	for _, d := range m.lat {
		untraced += d
	}
	m.lat = nil
	heap := liveHeapMB()

	if !o.trace {
		res.Metrics = map[string]metric{
			"latency_ms.p50": {lat.p50.Seconds() * 1e3, "ms", lat.n},
			"latency_ms.p90": {lat.p90.Seconds() * 1e3, "ms", lat.n},
			"ops_per_s":      {float64(m.attempted) / m.wall.Seconds(), "1/s", m.attempted},
			"live_heap_mb":   {heap, "MB", 1},
			"setup_s":        {median(setups), "s", reps},
		}
		fmt.Printf("p90 has %d samples beyond it\n", lat.beyond90)
	} else {
		tr := newTracer()
		n := w.traceOps()
		layers, err := w.trace(n, tr)
		if err != nil {
			return nil, fmt.Errorf("traced re-drive: %w", err)
		}
		ops := tr.opDurations()
		var traced time.Duration
		for _, d := range ops {
			traced += d
		}
		perOpTraced := traced.Seconds() / float64(len(ops))
		perOpUntraced := untraced.Seconds() / float64(m.attempted)
		layers["trace.overhead_pct"] = metric{100 * (perOpTraced/perOpUntraced - 1), "%", len(ops)}
		layers["trace.coverage_pct"] = metric{100 * tr.coverage(), "%", len(ops)}
		res.Metrics = fillPerLayer(layers)
		tr.writeSummary(os.Stderr)
	}
	for _, name := range sortedKeys(res.Metrics) {
		mt := res.Metrics[name]
		fmt.Printf("%-28s %14.6g %-9s n=%d\n", name, mt.Value, mt.Unit, mt.Samples)
	}
	fmt.Printf("ops attempted %d, failed %d\n", res.Attempted, res.Failed)
	for name, mt := range res.Metrics {
		if math.IsNaN(mt.Value) || math.IsInf(mt.Value, 0) {
			return nil, fmt.Errorf("metric %s is not a number", name)
		}
	}
	return res, nil
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// metric is one reported value; Samples is printed, not serialized.
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"-"`
}

// perLayerUnits lists every per-layer metric with its unit. A traced run
// reports all of them; a layer that is not on the workload's path reads
// 0 (see README.md).
var perLayerUnits = map[string]string{
	"workload.generate_ms":        "ms",
	"workload.candidates":         "count/op",
	"workload.accepted":           "count/op",
	"workload.accept_ratio":       "ratio",
	"workload.candidate_us":       "us",
	"rta.filter_reject_us":        "us",
	"rta.filter_accept_us":        "us",
	"analysis.products_ms":        "ms",
	"analysis.cache_hit_ratio":    "ratio",
	"sim.run_ms.st":               "ms",
	"sim.run_ms.dp":               "ms",
	"sim.run_ms.selective":        "ms",
	"sim.jobs":                    "count",
	"sim.ns_per_job":              "ns",
	"sim.mk_violations.st":        "count",
	"sim.mk_violations.dp":        "count",
	"sim.mk_violations.selective": "count",
	"experiment.alloc_mb":         "MB/op",
	"experiment.allocs":           "count/op",
	"experiment.gc_cycles":        "count/op",
	"serve.hit_handler_us":        "us",
	"serve.hit_transport_us":      "us",
	"serve.alloc_kb":              "KB/op",
	"wire.decode_us":              "us",
	"serve.key_us":                "us",
	"store.get_us":                "us",
	"store.hit_ratio":             "ratio",
	"serve.miss_handler_ms":       "ms",
	"store.put_us":                "us",
	"store.open_ms":               "ms",
	"trace.overhead_pct":          "%",
	"trace.coverage_pct":          "%",
}

// fillPerLayer completes a workload's per-layer metrics with zeros for
// the layers its path does not cross.
func fillPerLayer(got map[string]metric) map[string]metric {
	out := make(map[string]metric, len(perLayerUnits))
	for name, unit := range perLayerUnits {
		mt, ok := got[name]
		if !ok {
			mt = metric{0, unit, 0}
		}
		mt.Unit = unit
		out[name] = mt
	}
	return out
}

func sortedKeys(m map[string]metric) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// liveHeapMB returns the bytes of live heap objects in MiB after two
// forced collections (the second frees what sync.Pools still held).
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// errCheck marks an op whose output failed a check (as opposed to an op
// that returned an error).
var errCheck = errors.New("output check failed")
