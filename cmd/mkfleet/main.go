// Command mkfleet distributes one Figure-6 utilization sweep over a
// pool of mkservd workers and merges the rows, in interval order, into
// a JSONL stream bit-identical to a single-process batch run — the
// internal/fleet coordinator behind a CLI.
//
// Usage:
//
//	mkfleet -workers 127.0.0.1:8080,127.0.0.1:8081 -scenario both
//	mkfleet -workers $A,$B -checkpoint ckpt.jsonl -out rows.jsonl
//	mkfleet -workers $A,$B -checkpoint ckpt.jsonl -resume   # only missing intervals
//	mkfleet -local -scenario both                           # in-process reference run
//	mkfleet -workers $A -store /var/lib/mkss                # cross-run result cache
//	mkfleet -elastic -min 1 -max 4 -store dir               # self-managed worker pool
//	mkfleet -pool -min 1 -max 3 -pool-addrfile a -pool-status s.json
//
// -store points at a persistent content-addressed result store (shared
// format with mkservd -store): before dispatching, every unit is probed
// against it — a warm store satisfies a whole re-run without touching a
// worker — and completed units are written back, so the cache survives
// worker churn and process restarts.
//
// -elastic replaces -workers with a self-managed pool of in-process
// workers, autoscaled between -min and -max from observed queue depth
// and p95 latency. -pool runs the same autoscaling pool standalone (no
// sweep) until SIGTERM, for driving with external load: -pool-addrfile
// receives the first worker's address, -pool-status a periodically
// rewritten pool-stats JSON.
//
// -local runs the identical sweep in-process (no workers, no HTTP)
// through the same emission path, producing the reference stream a
// distributed run must match byte for byte:
//
//	mkfleet -local -out want.jsonl && mkfleet -workers $A,$B -out got.jsonl
//	cmp want.jsonl got.jsonl
//
// A worker dying mid-unit is retried on another worker; stragglers can
// be hedged (-hedge); completed units are journaled to -checkpoint so an
// interrupted run resumes without recomputing. SIGINT/SIGTERM abort
// cleanly with the checkpoint intact.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"repro"
	"repro/internal/fleet"
	"repro/internal/serve"
	"repro/internal/store"
)

type options struct {
	workers    string
	local      bool
	scenario   string
	seed       uint64
	sets       int
	candidates int
	lo, hi     float64
	approaches string

	inflight    int
	unitTimeout time.Duration
	maxFailures int
	hedge       time.Duration
	probe       time.Duration
	probeMax    time.Duration
	grace       time.Duration

	checkpoint string
	resume     bool
	out        string
	bench      string
	quiet      bool

	storeDir string

	elastic        bool
	pool           bool
	min, max       int
	poolAddrfile   string
	poolStatus     string
	workerInflight int
	workerQueue    int
	scaleInterval  time.Duration
	scaleCooldown  time.Duration
	scaleQueue     int64
}

func main() {
	var o options
	flag.StringVar(&o.workers, "workers", "", "comma-separated mkservd addresses (host:port or http://...)")
	flag.BoolVar(&o.local, "local", false, "run the sweep in-process instead (reference stream for byte-identity checks)")
	flag.StringVar(&o.scenario, "scenario", "none", "fault scenario: none|transient|permanent|both")
	flag.Uint64Var(&o.seed, "seed", 2020, "master seed")
	flag.IntVar(&o.sets, "sets", 3, "task sets per utilization interval")
	flag.IntVar(&o.candidates, "candidates", 500, "max candidate sets per interval")
	flag.Float64Var(&o.lo, "lo", 0.1, "sweep start utilization")
	flag.Float64Var(&o.hi, "hi", 1.0, "sweep end utilization")
	flag.StringVar(&o.approaches, "approaches", "st,dp,selective", "comma-separated approaches")
	flag.IntVar(&o.inflight, "inflight", 2, "max units in flight per worker")
	flag.DurationVar(&o.unitTimeout, "unit-timeout", 2*time.Minute, "per-unit attempt timeout")
	flag.IntVar(&o.maxFailures, "max-failures", 6, "per-unit failure budget before the sweep aborts")
	flag.DurationVar(&o.hedge, "hedge", 0, "duplicate a unit in flight this long onto a second worker (0 = off)")
	flag.DurationVar(&o.probe, "probe", 250*time.Millisecond, "first re-probe delay for a down worker (doubles per failure)")
	flag.DurationVar(&o.probeMax, "probe-max", 5*time.Second, "probe backoff cap")
	flag.DurationVar(&o.grace, "grace", 15*time.Second, "how long all workers may be down before the sweep fails")
	flag.StringVar(&o.checkpoint, "checkpoint", "", "journal completed units to this JSONL file")
	flag.BoolVar(&o.resume, "resume", false, "load the checkpoint and run only the missing intervals")
	flag.StringVar(&o.out, "out", "", "write the merged JSONL stream here (default: stdout)")
	flag.StringVar(&o.bench, "bench", "", "write an mkss-bench/v1 fleet summary JSON here")
	flag.BoolVar(&o.quiet, "q", false, "suppress the human-readable summary")
	flag.StringVar(&o.storeDir, "store", "", "persistent result store directory (shared format with mkservd -store)")
	flag.BoolVar(&o.elastic, "elastic", false, "autoscale an in-process worker pool instead of using -workers")
	flag.BoolVar(&o.pool, "pool", false, "run a standalone autoscaling worker pool (no sweep) until SIGTERM")
	flag.IntVar(&o.min, "min", 1, "elastic pool lower bound")
	flag.IntVar(&o.max, "max", 4, "elastic pool upper bound")
	flag.StringVar(&o.poolAddrfile, "pool-addrfile", "", "with -pool: write the first worker's address to this file")
	flag.StringVar(&o.poolStatus, "pool-status", "", "with -pool: periodically rewrite this pool-stats JSON file")
	flag.IntVar(&o.workerInflight, "worker-inflight", 0, "elastic worker execution slots (0 = serve default)")
	flag.IntVar(&o.workerQueue, "worker-queue", 0, "elastic worker queue depth (0 = serve default)")
	flag.DurationVar(&o.scaleInterval, "scale-interval", 0, "autoscaler control-loop cadence (0 = default 2s)")
	flag.DurationVar(&o.scaleCooldown, "scale-cooldown", 0, "minimum gap between scaling operations (0 = default 30s)")
	flag.Int64Var(&o.scaleQueue, "scale-queue", 0, "queued-jobs threshold that counts a tick as busy (0 = default 4)")
	flag.Parse()
	// SIGTERM behaves like SIGINT: abort the sweep, keep the checkpoint.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, o); err != nil {
		fmt.Fprintf(os.Stderr, "mkfleet: %v\n", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, o options) error {
	if o.pool {
		return runPool(ctx, o)
	}
	spec := fleet.SweepSpec{
		Scenario:        o.scenario,
		Seed:            o.seed,
		SetsPerInterval: o.sets,
		MaxCandidates:   o.candidates,
		Lo:              o.lo,
		Hi:              o.hi,
		Approaches:      splitList(o.approaches),
	}

	var w *bufio.Writer
	if o.out != "" {
		f, err := os.Create(o.out)
		if err != nil {
			return err
		}
		defer f.Close() //mklint:allow errdrop — the deferred close duplicates the explicit flush-and-close below
		w = bufio.NewWriter(f)
	} else {
		w = bufio.NewWriter(os.Stdout)
	}
	// Flush per line: rows arrive at interval granularity (a handful per
	// second at most), and a line-buffered stream lets consumers tail
	// progress and scripts react to rows while the sweep is still running.
	emit := func(line []byte) error {
		if _, err := w.Write(line); err != nil {
			return err
		}
		if err := w.WriteByte('\n'); err != nil {
			return err
		}
		return w.Flush()
	}

	var runErr error
	if o.local {
		runErr = runLocal(ctx, spec, emit)
	} else {
		runErr = runFleet(ctx, o, spec, emit)
	}
	if err := w.Flush(); err != nil && runErr == nil {
		runErr = err
	}
	return runErr
}

// openStore opens the -store directory, if configured.
func openStore(o options) (*store.Store, error) {
	if o.storeDir == "" {
		return nil, nil
	}
	st, err := store.Open(o.storeDir, store.Options{Log: os.Stderr})
	if err != nil {
		return nil, fmt.Errorf("open store: %w", err)
	}
	return st, nil
}

// localSpawn builds the elastic pool's worker factory: each worker is an
// in-process mkservd on an ephemeral loopback port, tied to the pool's
// context. All workers share the one store handle, so any worker's
// computation warms every other worker.
func localSpawn(o options, st *store.Store) fleet.SpawnFunc {
	return func(ctx context.Context) (*fleet.WorkerHandle, error) {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		s := serve.NewServer(serve.Config{
			MaxInFlight: o.workerInflight,
			QueueDepth:  o.workerQueue,
			Store:       st,
			Log:         io.Discard,
		})
		addr := l.Addr().String()
		wctx, cancel := context.WithCancel(ctx)
		done := make(chan struct{})
		go func() {
			defer close(done)
			if err := s.Run(wctx, l); err != nil {
				fmt.Fprintf(os.Stderr, "mkfleet: worker %s: %v\n", addr, err)
			}
		}()
		return &fleet.WorkerHandle{
			Addr: addr,
			Stop: func() { cancel(); <-done },
		}, nil
	}
}

// newPool builds (but does not start) the elastic pool from the flags.
func newPool(o options, st *store.Store) (*fleet.Pool, error) {
	return fleet.NewPool(fleet.PoolConfig{
		Min:          o.min,
		Max:          o.max,
		Spawn:        localSpawn(o, st),
		Interval:     o.scaleInterval,
		Cooldown:     o.scaleCooldown,
		ScaleUpQueue: o.scaleQueue,
		Log:          os.Stderr,
	})
}

// runFleet drives the coordinator against the -workers pool, or an
// elastic in-process pool with -elastic.
func runFleet(ctx context.Context, o options, spec fleet.SweepSpec, emit func([]byte) error) error {
	st, err := openStore(o)
	if err != nil {
		return err
	}
	if st != nil {
		defer func() {
			if cerr := st.Close(); cerr != nil {
				fmt.Fprintf(os.Stderr, "mkfleet: close store: %v\n", cerr)
			}
		}()
	}
	workers := splitList(o.workers)
	cfg := fleet.Config{
		Workers:           workers,
		Spec:              spec,
		PerWorkerInFlight: o.inflight,
		UnitTimeout:       o.unitTimeout,
		MaxUnitFailures:   o.maxFailures,
		Hedge:             o.hedge,
		ProbeBackoff:      o.probe,
		ProbeMax:          o.probeMax,
		AllDownGrace:      o.grace,
		CheckpointPath:    o.checkpoint,
		Resume:            o.resume,
		Store:             st,
		Log:               os.Stderr,
	}
	if o.elastic {
		pool, perr := newPool(o, st)
		if perr != nil {
			return perr
		}
		if perr := pool.Start(ctx); perr != nil {
			return perr
		}
		defer pool.Stop()
		cfg.Workers = nil
		cfg.Pool = pool
	} else if len(workers) == 0 {
		return fmt.Errorf("no workers: pass -workers host:port[,host:port...], -elastic, or -local")
	}
	c, err := fleet.New(cfg)
	if err != nil {
		return err
	}
	sum, runErr := c.Run(ctx, emit)
	if sum != nil {
		if o.bench != "" {
			if err := writeBench(o.bench, c.Spec(), len(sum.Workers), sum); err != nil {
				if runErr == nil {
					runErr = err
				} else {
					fmt.Fprintf(os.Stderr, "mkfleet: write bench: %v\n", err)
				}
			}
		}
		if !o.quiet {
			printSummary(os.Stderr, sum, runErr)
		}
	}
	return runErr
}

// runPool runs the autoscaling pool standalone: workers come up, the
// first one's address lands in -pool-addrfile for external load
// generators, and -pool-status tracks the pool's shape until SIGTERM.
func runPool(ctx context.Context, o options) error {
	st, err := openStore(o)
	if err != nil {
		return err
	}
	if st != nil {
		defer func() {
			if cerr := st.Close(); cerr != nil {
				fmt.Fprintf(os.Stderr, "mkfleet: close store: %v\n", cerr)
			}
		}()
	}
	pool, err := newPool(o, st)
	if err != nil {
		return err
	}
	if err := pool.Start(ctx); err != nil {
		return err
	}
	defer pool.Stop()
	addrs := pool.Addrs()
	fmt.Fprintf(os.Stderr, "mkfleet: pool up: %d workers (min %d, max %d), first at %s\n",
		len(addrs), o.min, o.max, addrs[0])
	if o.poolAddrfile != "" {
		if err := os.WriteFile(o.poolAddrfile, []byte(addrs[0]), 0o644); err != nil {
			return err
		}
	}
	writeStatus := func() {
		if o.poolStatus == "" {
			return
		}
		if err := writeStatusFile(o.poolStatus, pool.Stats()); err != nil {
			fmt.Fprintf(os.Stderr, "mkfleet: write pool status: %v\n", err)
		}
	}
	writeStatus()
	ticker := time.NewTicker(200 * time.Millisecond)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			writeStatus()
			fmt.Fprintf(os.Stderr, "mkfleet: pool shutting down\n")
			return nil
		case <-ticker.C:
			writeStatus()
		}
	}
}

// writeStatusFile atomically replaces path with the stats JSON, so a
// polling reader never sees a torn document.
func writeStatusFile(path string, st fleet.PoolStats) error {
	data, err := json.Marshal(st)
	if err != nil {
		return err
	}
	tmp := filepath.Join(filepath.Dir(path), "."+filepath.Base(path)+".tmp")
	if err := os.WriteFile(tmp, append(data, '\n'), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// runLocal computes the reference stream in-process: one batch sweep
// over the full range, emitted through the same serve.RowLine path the
// workers use — the byte-identity baseline for a distributed run.
func runLocal(ctx context.Context, spec fleet.SweepSpec, emit func([]byte) error) error {
	sw, err := spec.Sweep()
	if err != nil {
		return err
	}
	intervals := sw.Intervals()
	start := time.Now() //mklint:allow determinism — CLI wall clock for the done line's elapsed_ms
	if err := emit(sw.StartLine(len(intervals))); err != nil {
		return err
	}
	rep, err := repro.SweepContext(ctx, sw.Config(intervals, 0))
	if err != nil {
		return err
	}
	for _, row := range rep.Rows {
		if err := emit(serve.RowLine(rep.Approaches, row)); err != nil {
			return err
		}
	}
	elapsed := time.Now().Sub(start) //mklint:allow determinism — CLI wall clock for the done line's elapsed_ms
	return emit(serve.DoneLine(len(intervals), float64(elapsed)/1e6))
}

// benchDoc is the versioned fleet-benchmark artifact.
type benchDoc struct {
	Schema  string          `json:"schema"` // "mkss-bench/v1"
	Bench   string          `json:"bench"`  // "fleet"
	Workers int             `json:"workers"`
	Spec    fleet.SweepSpec `json:"spec"`
	Summary *fleet.Summary  `json:"summary"`
}

func writeBench(path string, spec fleet.SweepSpec, workers int, sum *fleet.Summary) error {
	data, err := json.MarshalIndent(benchDoc{
		Schema: "mkss-bench/v1", Bench: "fleet",
		Workers: workers, Spec: spec, Summary: sum,
	}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func printSummary(w io.Writer, sum *fleet.Summary, runErr error) {
	status := "complete"
	if runErr != nil {
		status = "FAILED"
	}
	fmt.Fprintf(w, "mkfleet: sweep %s: %d units (%d from checkpoint, %d from store), %d dispatched, %d retried, %d hedged, %d cancelled, %d failed in %.0f ms\n",
		status, sum.Units, sum.FromCheckpoint, sum.FromStore, sum.Dispatched, sum.Retried, sum.Hedged, sum.Cancelled, sum.Failed, sum.ElapsedMS)
	for _, ws := range sum.Workers {
		fmt.Fprintf(w, "         %-24s dispatched %-3d completed %-3d failed %-3d won %-3d markdowns %-3d probes %d\n",
			ws.Addr, ws.Dispatched, ws.Completed, ws.Failed, ws.Won, ws.Markdowns, ws.Probes)
	}
}

// splitList splits a comma-separated flag, trimming blanks.
func splitList(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}
