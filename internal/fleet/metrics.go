package fleet

// WorkerStats is one worker's counters over a coordinator run. All
// counters are owned by the coordinator's event loop and read via
// Summary after Run returns.
type WorkerStats struct {
	Addr string `json:"addr"`
	// Dispatched counts unit attempts sent to this worker (including
	// hedge duplicates and retries of units that failed elsewhere).
	Dispatched int `json:"dispatched"`
	// Completed counts attempts that returned a usable row.
	Completed int `json:"completed"`
	// Failed counts attempts that errored (transport death, truncated
	// stream, server-side failure) — not cancelled hedge losers.
	Failed int `json:"failed"`
	// Retried counts units re-dispatched to this worker after failing
	// on another worker.
	Retried int `json:"retried"`
	// Hedged counts hedge duplicates launched on this worker because
	// another worker's attempt was straggling.
	Hedged int `json:"hedged"`
	// Won counts races (hedged units) this worker finished first.
	Won int `json:"won"`
	// Cancelled counts attempts cancelled because the unit finished
	// elsewhere first.
	Cancelled int `json:"cancelled"`
	// Markdowns counts up→down transitions; Probes counts health
	// probes sent while the worker was down.
	Markdowns int `json:"markdowns"`
	Probes    int `json:"probes"`
}

// Summary is a finished (or failed) coordinator run's accounting.
type Summary struct {
	// Units is the sweep's interval count; FromStore of those were
	// satisfied by the persistent result store without any dispatch.
	Units     int `json:"units"`
	FromStore int `json:"from_store"`
	// Dispatched/Retried/Hedged/Cancelled/Failed aggregate the
	// per-worker counters of the same name.
	Dispatched int `json:"dispatched"`
	Retried    int `json:"retried"`
	Hedged     int `json:"hedged"`
	Cancelled  int `json:"cancelled"`
	Failed     int `json:"failed"`
	// ElapsedMS is the coordinator wall-clock for the run.
	ElapsedMS float64 `json:"elapsed_ms"`
	// Workers holds the per-worker breakdown, in -workers order.
	Workers []WorkerStats `json:"workers"`
}

// summarize folds the registry's per-worker counters into a Summary.
func summarize(reg *registry, units, fromStore int, elapsedMS float64) *Summary {
	sum := &Summary{Units: units, FromStore: fromStore, ElapsedMS: elapsedMS}
	for _, w := range reg.workers {
		sum.Workers = append(sum.Workers, w.stats)
		sum.Dispatched += w.stats.Dispatched
		sum.Retried += w.stats.Retried
		sum.Hedged += w.stats.Hedged
		sum.Cancelled += w.stats.Cancelled
		sum.Failed += w.stats.Failed
	}
	return sum
}
