package experiment

import (
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/metrics"
	"repro/internal/timeu"
)

// BenchSchema versions the BENCH_*.json documents emitted by mkbench
// -json (and consumed by the CI bench-smoke job for trajectory tracking).
// Bump the suffix on any backwards-incompatible change to the layout or
// to a field's meaning; additive changes keep the version.
const BenchSchema = "mkss-bench/v1"

// BenchDoc is the machine-readable form of one figure's sweep: the
// per-interval series the paper plots plus the observability counters
// behind them and the wall-clock cost of producing them.
type BenchDoc struct {
	Schema   string `json:"schema"`
	Figure   string `json:"figure"`
	Scenario string `json:"scenario"`
	// The sweep parameters that determine the series (everything needed
	// to judge whether two documents are comparable).
	Seed            uint64   `json:"seed"`
	SetsPerInterval int      `json:"sets_per_interval"`
	MaxCandidates   int      `json:"max_candidates"`
	MinHorizonUS    int64    `json:"min_horizon_us"`
	HorizonCapUS    int64    `json:"horizon_cap_us"`
	Approaches      []string `json:"approaches"`
	// WallClockMS is the host-dependent cost of the sweep — the perf
	// trajectory datum; everything else in the document is deterministic
	// for a given seed and schema version.
	WallClockMS float64    `json:"wall_clock_ms"`
	Rows        []BenchRow `json:"rows"`
}

// BenchRow is one utilization interval of the series.
type BenchRow struct {
	UtilLo     float64 `json:"util_lo"`
	UtilHi     float64 `json:"util_hi"`
	Sets       int     `json:"sets"`
	Candidates int     `json:"candidates"`
	// HorizonTotalUS sums the interval's per-set simulated horizons; the
	// counters' processor-time partition must add up to it × NumProcs.
	HorizonTotalUS int64                       `json:"horizon_total_us"`
	NormMean       map[string]float64          `json:"norm_mean"`
	NormCI95       map[string]float64          `json:"norm_ci95"`
	Violations     map[string]int              `json:"violations"`
	Counters       map[string]metrics.Counters `json:"counters"`
}

// BenchDoc assembles the versioned document for a finished sweep.
// figure names the series ("6a", "6b", "6c"); wall is the measured sweep
// duration.
func (r *Report) BenchDoc(figure string, cfg Config, wall time.Duration) BenchDoc {
	doc := BenchDoc{
		Schema:          BenchSchema,
		Figure:          figure,
		Scenario:        r.Scenario.String(),
		Seed:            cfg.Seed,
		SetsPerInterval: cfg.SetsPerInterval,
		MaxCandidates:   cfg.MaxCandidates,
		MinHorizonUS:    int64(cfg.MinHorizon),
		HorizonCapUS:    int64(cfg.HorizonCap),
		WallClockMS:     float64(wall) / float64(time.Millisecond),
	}
	for _, a := range r.Approaches {
		doc.Approaches = append(doc.Approaches, a.String())
	}
	for _, row := range r.Rows {
		br := BenchRow{
			UtilLo:         row.Interval.Lo,
			UtilHi:         row.Interval.Hi,
			Sets:           len(row.Sets),
			Candidates:     row.Candidates,
			HorizonTotalUS: int64(row.HorizonTotal),
			Counters:       map[string]metrics.Counters{},
		}
		br.NormMean, br.NormCI95, br.Violations = row.Series(r.Approaches)
		for _, a := range r.Approaches {
			br.Counters[a.String()] = row.Counters[a]
		}
		doc.Rows = append(doc.Rows, br)
	}
	return doc
}

// BenchJSON renders the versioned document; see BenchDoc.
func (r *Report) BenchJSON(figure string, cfg Config, wall time.Duration) ([]byte, error) {
	data, err := json.MarshalIndent(r.BenchDoc(figure, cfg, wall), "", "  ")
	if err != nil {
		return nil, fmt.Errorf("experiment: bench json: %w", err)
	}
	return append(data, '\n'), nil
}

// CheckInvariants validates every row's aggregated counters against the
// structural identities of the simulator (see metrics.CheckInvariants).
// It returns human-readable violations; nil means the document is
// internally consistent.
func (d BenchDoc) CheckInvariants() []string {
	var out []string
	for _, row := range d.Rows {
		for _, a := range d.Approaches {
			c, ok := row.Counters[a]
			if !ok {
				out = append(out, fmt.Sprintf("interval [%g,%g): no counters for %s", row.UtilLo, row.UtilHi, a))
				continue
			}
			for _, p := range c.CheckInvariants(timeu.Time(row.HorizonTotalUS)) {
				out = append(out, fmt.Sprintf("interval [%g,%g) %s: %s", row.UtilLo, row.UtilHi, a, p))
			}
		}
	}
	return out
}
