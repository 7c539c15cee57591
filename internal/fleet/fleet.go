// Package fleet is the distributed sweep coordinator: it takes one
// logical Figure-6 utilization sweep and fans it out over a pool of
// mkservd workers through the serving API, preserving the repo's core
// determinism property — the merged output rows are bit-identical to a
// single-process batch sweep with the same parameters.
//
// The design follows the replicate/retry/checkpoint pattern of the
// energy-aware reliability literature (Aupy/Benoit/Robert): the sweep is
// embarrassingly parallel over utilization intervals, so each interval
// becomes one work unit, keyed by experiment.IntervalOffset so any
// worker computes exactly the row the batch run would. Units are
// dispatched with bounded in-flight per worker; a unit lost to a worker
// death is retried on another worker; straggler units are hedged
// (duplicated, first result wins, loser cancelled); and every completed
// unit is journaled to a JSONL checkpoint before it counts, so a
// coordinator crash or a clean failure (all workers down) never loses
// finished work — -resume re-runs only the missing intervals.
//
// Determinism argument: a unit's row depends only on (seed, interval
// offset, interval bounds, sets, candidates, approaches, scenario) —
// all carried in the request — and the engine is worker-count invariant,
// so *which* worker computes a unit, in *what order*, with *how many*
// retries, cannot change a byte of it. The coordinator merges rows in
// interval order, which makes the whole stream reproducible.
package fleet

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"repro/internal/serve"
	"repro/internal/serve/client"
	"repro/internal/store"
	"repro/internal/workload"
)

// SweepSpec identifies one logical sweep — the same parameters a batch
// /v1/sweep request carries, minus the per-request plumbing.
type SweepSpec struct {
	Scenario        string   `json:"scenario"`
	Seed            uint64   `json:"seed"`
	SetsPerInterval int      `json:"sets_per_interval"`
	MaxCandidates   int      `json:"max_candidates"`
	Lo              float64  `json:"lo"`
	Hi              float64  `json:"hi"`
	Approaches      []string `json:"approaches"`
}

// Sweep settles the spec through serve.NormalizeSweep, the normalizer
// the /v1/sweep handler itself uses, so the coordinator and its workers
// agree on the defaults, the bounds and the canonical names.
func (sp SweepSpec) Sweep() (serve.Sweep, error) {
	sw, err := serve.NormalizeSweep(serve.SweepRequest{
		Scenario:        sp.Scenario,
		Seed:            sp.Seed,
		SetsPerInterval: sp.SetsPerInterval,
		MaxCandidates:   sp.MaxCandidates,
		Lo:              sp.Lo,
		Hi:              sp.Hi,
		Approaches:      sp.Approaches,
	})
	if err != nil {
		return sw, fmt.Errorf("fleet: %w", err)
	}
	return sw, nil
}

// Normalized returns the spec with /v1/sweep's defaults applied and its
// scenario and approach names canonicalized, so the checkpoint key and
// the worker requests are stable across spellings ("st" vs "MKSS-ST").
func (sp SweepSpec) Normalized() (SweepSpec, error) {
	sw, err := sp.Sweep()
	if err != nil {
		return sp, err
	}
	return specOf(sw), nil
}

// specOf is the spec of a normalized sweep.
func specOf(sw serve.Sweep) SweepSpec {
	r := sw.Req
	return SweepSpec{
		Scenario:        r.Scenario,
		Seed:            r.Seed,
		SetsPerInterval: r.SetsPerInterval,
		MaxCandidates:   r.MaxCandidates,
		Lo:              r.Lo,
		Hi:              r.Hi,
		Approaches:      r.Approaches,
	}
}

// Key canonicalizes the sweep identity for the checkpoint header: two
// sweeps with the same key produce the same rows.
func (sp SweepSpec) Key() string {
	return strings.Join([]string{
		sp.Scenario,
		strconv.FormatUint(sp.Seed, 10),
		strconv.Itoa(sp.SetsPerInterval),
		strconv.Itoa(sp.MaxCandidates),
		strconv.FormatFloat(sp.Lo, 'g', -1, 64),
		strconv.FormatFloat(sp.Hi, 'g', -1, 64),
		strings.Join(sp.Approaches, ","),
	}, "|")
}

// Config tunes a Coordinator. Zero values pick the documented defaults.
type Config struct {
	// Workers is the static worker pool (host:port or http:// URLs).
	Workers []string
	// Spec is the sweep to distribute.
	Spec SweepSpec
	// PerWorkerInFlight bounds concurrently dispatched units per worker
	// (default 2 — mkservd parallelizes internally, so a couple of
	// units saturate a worker without queue pile-up).
	PerWorkerInFlight int
	// UnitTimeout bounds one unit attempt end to end and is forwarded
	// as the request's timeout_ms (default 2m).
	UnitTimeout time.Duration
	// MaxUnitFailures is a unit's failure budget across all workers
	// before the sweep aborts (default 6). Cancelled hedge losers do
	// not count.
	MaxUnitFailures int
	// Hedge duplicates a unit that has been in flight this long onto a
	// second worker — first result wins, the loser is cancelled. Zero
	// disables hedging.
	Hedge time.Duration
	// Tick is the event-loop housekeeping cadence: probe scheduling,
	// hedge checks, all-down accounting (default 100ms).
	Tick time.Duration
	// ProbeBackoff/ProbeMax shape the down-worker probe schedule: the
	// first re-probe comes after ProbeBackoff, doubling per consecutive
	// failure up to ProbeMax (defaults 250ms and 5s).
	ProbeBackoff time.Duration
	ProbeMax     time.Duration
	// ProbeTimeout bounds one health probe (default 2s).
	ProbeTimeout time.Duration
	// AllDownGrace is how long the coordinator keeps probing with every
	// worker down before failing the sweep cleanly (default 15s). The
	// checkpoint stays intact either way.
	AllDownGrace time.Duration
	// CheckpointPath, when set, journals completed units to this JSONL
	// file; with Resume, previously completed units are loaded from it
	// and only missing intervals run.
	CheckpointPath string
	Resume         bool
	// Store, when non-nil, is the persistent cross-run result cache:
	// before dispatching, every pending unit's key is probed and a hit
	// satisfies the unit without any worker traffic; completed units are
	// written back so the next run (or a restarted coordinator) starts
	// warm. The key space is shared with mkservd's own store, so a fleet
	// run can warm a serving store and vice versa.
	Store *store.Store
	// Pool, when non-nil, is an elastic worker pool: the coordinator
	// syncs its registry with Pool.Addrs() every tick, adopting workers
	// the autoscaler spawned and retiring ones it stopped. Workers may
	// be empty when a Pool is configured.
	Pool *Pool
	// Log receives coordinator lifecycle lines; nil discards them.
	Log io.Writer
	// Now is the wall clock (tests inject a fake); nil means time.Now.
	Now func() time.Time
	// NewClient builds the per-worker API client (test seam); nil uses
	// a default client with no client-level retries — the coordinator
	// owns retry policy.
	NewClient func(addr string) *client.Client
}

// Coordinator runs one distributed sweep. Create with New, run with Run.
type Coordinator struct {
	cfg   Config
	sweep serve.Sweep
	now   func() time.Time
}

// New validates cfg and builds a Coordinator.
func New(cfg Config) (*Coordinator, error) {
	if len(cfg.Workers) == 0 && cfg.Pool == nil {
		return nil, errors.New("fleet: no workers configured")
	}
	sw, err := cfg.Spec.Sweep()
	if err != nil {
		return nil, err
	}
	if cfg.PerWorkerInFlight <= 0 {
		cfg.PerWorkerInFlight = 2
	}
	if cfg.UnitTimeout <= 0 {
		cfg.UnitTimeout = 2 * time.Minute
	}
	if cfg.MaxUnitFailures <= 0 {
		cfg.MaxUnitFailures = 6
	}
	if cfg.Tick <= 0 {
		cfg.Tick = 100 * time.Millisecond
	}
	if cfg.ProbeBackoff <= 0 {
		cfg.ProbeBackoff = 250 * time.Millisecond
	}
	if cfg.ProbeMax <= 0 {
		cfg.ProbeMax = 5 * time.Second
	}
	if cfg.ProbeTimeout <= 0 {
		cfg.ProbeTimeout = 2 * time.Second
	}
	if cfg.AllDownGrace <= 0 {
		cfg.AllDownGrace = 15 * time.Second
	}
	if cfg.Log == nil {
		cfg.Log = io.Discard
	}
	if cfg.Now == nil {
		cfg.Now = time.Now // the one sanctioned wall-clock source of the package
	}
	if cfg.NewClient == nil {
		cfg.NewClient = func(addr string) *client.Client {
			return client.New(client.Config{Addr: addr})
		}
	}
	return &Coordinator{cfg: cfg, sweep: sw, now: cfg.Now}, nil
}

// Spec returns the normalized sweep the coordinator will run.
func (c *Coordinator) Spec() SweepSpec { return specOf(c.sweep) }

// unit lifecycle states.
const (
	unitPending = iota
	unitInflight
	unitDone
)

// attempt is one dispatched (unit, worker) pair.
type attempt struct {
	unit    int
	w       *worker
	hedge   bool
	started time.Time
	cancel  context.CancelFunc
}

// unitInfo is the coordinator's per-unit bookkeeping.
type unitInfo struct {
	state    int
	failures int
	hedged   bool
	excluded map[int]bool
	attempts []*attempt
}

// unitResult is one finished attempt.
type unitResult struct {
	at  *attempt
	row []byte
	err error
}

// probeResult is one finished health probe.
type probeResult struct {
	w  *worker
	ok bool
}

// Run executes the distributed sweep, feeding the merged JSONL stream —
// one "start" line, the interval rows in order, a terminal "done" (or
// "error") line, each without the trailing newline — to out. It returns
// the run's accounting alongside any error; on error the checkpoint
// (when configured) retains every unit completed before the failure.
func (c *Coordinator) Run(ctx context.Context, out func(line []byte) error) (*Summary, error) {
	start := c.now()
	intervals := c.sweep.Intervals()
	n := len(intervals)
	if n == 0 {
		return nil, fmt.Errorf("fleet: sweep [%v, %v) contains no intervals", c.sweep.Req.Lo, c.sweep.Req.Hi)
	}

	// Checkpoint: fresh journal, or resume from a previous run's.
	var journal *Journal
	rows := make([][]byte, n)
	units := make([]unitInfo, n)
	for i := range units {
		units[i].excluded = map[int]bool{}
	}
	fromCkpt := 0
	if c.cfg.CheckpointPath != "" {
		if c.cfg.Resume {
			j, prev, oerr := OpenJournal(c.cfg.CheckpointPath, c.Spec().Key(), n)
			if oerr != nil {
				return nil, oerr
			}
			journal = j
			for u, raw := range prev {
				rows[u] = append([]byte(nil), raw...)
				units[u].state = unitDone
				fromCkpt++
			}
		} else {
			j, cerr := CreateJournal(c.cfg.CheckpointPath, c.Spec().Key(), n)
			if cerr != nil {
				return nil, cerr
			}
			journal = j
		}
		defer func() {
			if cerr := journal.Close(); cerr != nil {
				fmt.Fprintf(c.cfg.Log, "fleet: close checkpoint: %v\n", cerr)
			}
		}()
	}

	// Cross-run store: a pending unit whose row is already stored needs
	// no worker at all — it is journaled like a freshly computed unit so
	// a later -resume run is warm even without the store. A unit's key is
	// the one its worker derives for the single-interval request runUnit
	// sends (serve.Sweep.UnitKey on both sides), so a row cached by a
	// worker's own store and one cached here are interchangeable.
	fromStore := 0
	if c.cfg.Store != nil {
		for u := 0; u < n; u++ {
			if units[u].state == unitDone {
				continue
			}
			raw, ok := c.cfg.Store.Get(c.sweep.UnitKey(intervals[u], u))
			if !ok {
				continue
			}
			rows[u] = raw
			units[u].state = unitDone
			if err := journal.Append(u, raw); err != nil {
				return nil, err
			}
			fromStore++
		}
		if fromStore > 0 {
			fmt.Fprintf(c.cfg.Log, "fleet: %d/%d units satisfied by the result store\n", fromStore, n)
		}
	}
	// storePut writes one completed unit back to the store; a write
	// failure costs only warmth, never the run.
	storePut := func(u int, row []byte) {
		if c.cfg.Store == nil {
			return
		}
		if err := c.cfg.Store.Put(c.sweep.UnitKey(intervals[u], u), row); err != nil {
			fmt.Fprintf(c.cfg.Log, "fleet: store write-back for unit %d: %v\n", u, err)
		}
	}

	maxWorkers := len(c.cfg.Workers)
	if c.cfg.Pool != nil && c.cfg.Pool.Max() > maxWorkers {
		maxWorkers = c.cfg.Pool.Max()
	}
	reg := newRegistry(c.cfg.Workers, c.cfg.NewClient, c.cfg.ProbeBackoff, c.cfg.ProbeMax)
	if c.cfg.Pool != nil {
		reg.sync(c.cfg.Pool.Addrs(), c.cfg.NewClient)
	}
	maxAttempts := maxWorkers*c.cfg.PerWorkerInFlight + 1
	results := make(chan unitResult, maxAttempts)
	probes := make(chan probeResult, maxWorkers+1)
	runCtx, cancelRun := context.WithCancel(ctx)
	defer cancelRun()

	doneCount := fromCkpt + fromStore
	emitted := 0
	activeAttempts, activeProbes := 0, 0
	var fatal error

	// The merged stream opens with the same start line a single batch
	// /v1/sweep over the full range would emit.
	if err := out(c.sweep.StartLine(n)); err != nil {
		return nil, fmt.Errorf("fleet: write start line: %w", err)
	}
	// flush emits every contiguous completed row not yet written — the
	// in-order merge point of the whole subsystem.
	flush := func() error {
		for emitted < n && units[emitted].state == unitDone {
			if err := out(rows[emitted]); err != nil {
				return fmt.Errorf("fleet: write row %d: %w", emitted, err)
			}
			emitted++
		}
		return nil
	}
	if err := flush(); err != nil { // resumed prefix, if any
		return nil, err
	}

	dispatch := func(u int, w *worker, hedge bool) {
		ui := &units[u]
		actx, cancel := context.WithTimeout(runCtx, c.cfg.UnitTimeout)
		at := &attempt{unit: u, w: w, hedge: hedge, started: c.now(), cancel: cancel}
		ui.attempts = append(ui.attempts, at)
		ui.state = unitInflight
		w.inflight++
		w.stats.Dispatched++
		if hedge {
			w.stats.Hedged++
		} else if ui.failures > 0 {
			w.stats.Retried++
		}
		activeAttempts++
		go func() {
			row, err := c.runUnit(actx, w.cl, u, intervals[u])
			cancel()
			results <- unitResult{at: at, row: row, err: err}
		}()
	}

	// schedule assigns pending units, in interval order, to available
	// workers. A unit excluded from every live worker has its exclusion
	// reset (better a repeat attempt than a stall).
	schedule := func() {
		for u := 0; u < n; u++ {
			ui := &units[u]
			if ui.state != unitPending {
				continue
			}
			w := reg.pick(ui.excluded, c.cfg.PerWorkerInFlight)
			if w == nil && len(ui.excluded) > 0 {
				if free := reg.pick(nil, c.cfg.PerWorkerInFlight); free != nil {
					ui.excluded = map[int]bool{}
					w = free
				}
			}
			if w == nil {
				continue
			}
			dispatch(u, w, false)
		}
	}

	// removeAttempt drops at from its unit's attempt list.
	removeAttempt := func(at *attempt) {
		ui := &units[at.unit]
		for i, a := range ui.attempts {
			if a == at {
				ui.attempts = append(ui.attempts[:i], ui.attempts[i+1:]...)
				break
			}
		}
	}

	// handleResult folds one finished attempt into the state machine;
	// the returned error is fatal for the whole sweep.
	handleResult := func(r unitResult) error {
		activeAttempts--
		at := r.at
		at.w.inflight--
		removeAttempt(at)
		ui := &units[at.unit]
		if ui.state == unitDone {
			// The unit finished elsewhere first: this is a cancelled
			// hedge loser (or a duplicate racing a checkpoint).
			at.w.stats.Cancelled++
			return nil
		}
		if r.err == nil {
			at.w.stats.Completed++
			if ui.hedged {
				at.w.stats.Won++
			}
			ui.state = unitDone
			doneCount++
			rows[at.unit] = r.row
			if err := journal.Append(at.unit, r.row); err != nil {
				return err
			}
			storePut(at.unit, r.row)
			for _, other := range ui.attempts {
				other.cancel()
			}
			if fatal == nil {
				return flush()
			}
			return nil
		}
		if runCtx.Err() != nil {
			// The run is shutting down; the attempt died of our own
			// cancellation, not of a worker fault.
			at.w.stats.Cancelled++
			return nil
		}
		at.w.stats.Failed++
		ui.failures++
		fmt.Fprintf(c.cfg.Log, "fleet: unit %d (%v) failed on %s: %v\n",
			at.unit, intervals[at.unit], at.w.addr, r.err)
		var herr *client.HTTPError
		isHTTP := errors.As(r.err, &herr)
		if isHTTP && !herr.Retryable() {
			// A 4xx is deterministic: every worker would reject the
			// same request. Retrying elsewhere cannot help.
			return fmt.Errorf("fleet: unit %d rejected permanently by %s: %w", at.unit, at.w.addr, r.err)
		}
		if !isHTTP || herr.Status >= 500 {
			// Transport death, truncated stream or server-side failure:
			// treat the worker as sick until a probe clears it.
			reg.markDown(at.w, c.now())
			fmt.Fprintf(c.cfg.Log, "fleet: worker %s marked down (%d/%d up)\n",
				at.w.addr, reg.upCount(), len(reg.workers))
		}
		ui.excluded[at.w.index] = true
		if ui.failures > c.cfg.MaxUnitFailures {
			return fmt.Errorf("fleet: unit %d exhausted its failure budget (%d attempts, last: %w)",
				at.unit, ui.failures, r.err)
		}
		if len(ui.attempts) == 0 {
			ui.state = unitPending
		}
		return nil
	}

	launchProbe := func(w *worker) {
		activeProbes++
		go func() {
			pctx, cancel := context.WithTimeout(runCtx, c.cfg.ProbeTimeout)
			defer cancel()
			h, err := w.cl.Healthz(pctx)
			probes <- probeResult{w: w, ok: err == nil && h != nil && h.Status == "ok"}
		}()
	}

	handleProbe := func(p probeResult) {
		activeProbes--
		if p.w.state != workerProbing {
			return // state moved on (e.g. shutdown)
		}
		if p.ok {
			reg.markUp(p.w)
			fmt.Fprintf(c.cfg.Log, "fleet: worker %s back up\n", p.w.addr)
		} else {
			reg.markDown(p.w, c.now())
		}
	}

	// hedgeCheck duplicates stragglers: a unit whose single attempt has
	// been running past the hedge threshold gets a second attempt on a
	// different worker. One hedge per unit.
	hedgeCheck := func(now time.Time) {
		if c.cfg.Hedge <= 0 {
			return
		}
		for u := range units {
			ui := &units[u]
			if ui.state != unitInflight || ui.hedged || len(ui.attempts) != 1 {
				continue
			}
			at := ui.attempts[0]
			if now.Sub(at.started) < c.cfg.Hedge {
				continue
			}
			w := reg.pick(map[int]bool{at.w.index: true}, c.cfg.PerWorkerInFlight)
			if w == nil {
				continue
			}
			ui.hedged = true
			fmt.Fprintf(c.cfg.Log, "fleet: hedging straggler unit %d (%s → %s)\n", u, at.w.addr, w.addr)
			dispatch(u, w, true)
		}
	}

	var allDownSince time.Time
	ticker := time.NewTicker(c.cfg.Tick)
	defer ticker.Stop()

	schedule()
	for doneCount < n && fatal == nil {
		select {
		case r := <-results:
			fatal = handleResult(r)
		case p := <-probes:
			handleProbe(p)
		case <-ticker.C:
			t := c.now()
			if c.cfg.Pool != nil {
				reg.sync(c.cfg.Pool.Addrs(), c.cfg.NewClient)
			}
			for _, w := range reg.probeDue(t) {
				launchProbe(w)
			}
			hedgeCheck(t)
			if reg.allDown() {
				if allDownSince.IsZero() {
					allDownSince = t
				} else if t.Sub(allDownSince) >= c.cfg.AllDownGrace {
					fatal = fmt.Errorf("fleet: all %d workers down for %v with %d/%d units incomplete (checkpoint intact)",
						len(reg.workers), c.cfg.AllDownGrace, n-doneCount, n)
				}
			} else {
				allDownSince = time.Time{}
			}
		case <-ctx.Done():
			fatal = fmt.Errorf("fleet: interrupted with %d/%d units complete: %w", doneCount, n, ctx.Err())
		}
		if fatal == nil {
			schedule()
		}
	}

	// Shut down outstanding work and drain every goroutine we started.
	cancelRun()
	for activeAttempts > 0 || activeProbes > 0 {
		select {
		case r := <-results:
			activeAttempts--
			r.at.w.inflight--
			removeAttempt(r.at)
			ui := &units[r.at.unit]
			if r.err == nil && ui.state != unitDone {
				// A row that completed during shutdown is durable
				// progress: journal it so -resume skips the unit, even
				// though the merged stream already carries the error.
				ui.state = unitDone
				rows[r.at.unit] = r.row
				r.at.w.stats.Completed++
				doneCount++
				if err := journal.Append(r.at.unit, r.row); err != nil {
					fmt.Fprintf(c.cfg.Log, "fleet: checkpoint during shutdown: %v\n", err)
				}
				storePut(r.at.unit, r.row)
			} else {
				r.at.w.stats.Cancelled++
			}
		case <-probes:
			activeProbes--
		}
	}

	elapsedMS := float64(c.now().Sub(start)) / 1e6
	sum := summarize(reg, n, fromCkpt, fromStore, elapsedMS)
	if fatal != nil {
		// Best-effort terminal error line, mirroring the serving
		// layer's mid-stream error convention.
		if werr := out(serve.ErrorLine(fatal)); werr != nil {
			fmt.Fprintf(c.cfg.Log, "fleet: write error line: %v\n", werr)
		}
		return sum, fatal
	}
	if err := out(serve.DoneLine(n, elapsedMS)); err != nil {
		return sum, fmt.Errorf("fleet: write done line: %w", err)
	}
	fmt.Fprintf(c.cfg.Log, "fleet: sweep complete: %d units (%d from checkpoint, %d from store, %d dispatched, %d retried, %d hedged) in %.0f ms\n",
		n, fromCkpt, fromStore, sum.Dispatched, sum.Retried, sum.Hedged, elapsedMS)
	return sum, nil
}

// runUnit executes one work unit on one worker: a single-interval sweep
// request whose IntervalOffset pins it to the batch run's sub-stream.
// It returns the raw row line, byte-exact as the worker streamed it.
func (c *Coordinator) runUnit(ctx context.Context, cl *client.Client, unit int, iv workload.Interval) ([]byte, error) {
	req := c.sweep.Req
	req.Lo, req.Hi, req.IntervalOffset = iv.Lo, iv.Hi, unit
	req.TimeoutMS = float64(c.cfg.UnitTimeout) / float64(time.Millisecond)
	var row []byte
	_, err := cl.SweepStream(ctx, req, func(raw []byte, line serve.SweepLine) error {
		if line.Type == "row" {
			if row != nil {
				return fmt.Errorf("unit %d produced more than one row", unit)
			}
			row = append([]byte(nil), raw...)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if row == nil {
		return nil, fmt.Errorf("unit %d stream carried no row", unit)
	}
	return row, nil
}
