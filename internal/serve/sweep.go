package serve

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"

	"repro"
	"repro/internal/experiment"
	"repro/internal/store"
	"repro/internal/workload"
)

// Sweep is a /v1/sweep request settled against the server's defaults:
// the one definition of a sweep that the /v1/sweep handler, the fleet
// coordinator (fleet.SweepSpec) and mkfleet -local share, so a
// coordinator and its workers agree on what a sweep unit is.
type Sweep struct {
	// Req is the request with its defaults applied and its scenario and
	// approaches rewritten to canonical names.
	Req        SweepRequest
	Scenario   repro.Scenario
	Approaches []repro.Approach
}

// NormalizeSweep applies /v1/sweep's defaults (seed 2020, 3 sets and
// 500 candidates per interval, [0.1, 1.0), scenario none, approaches
// st, dp and selective), checks the bounds and timeout_ms, and parses
// the scenario and approaches. Its errors are the handler's 400
// messages.
func NormalizeSweep(req SweepRequest) (Sweep, error) {
	if req.Seed == 0 {
		req.Seed = 2020
	}
	if req.SetsPerInterval <= 0 {
		req.SetsPerInterval = 3
	}
	if req.MaxCandidates <= 0 {
		req.MaxCandidates = 500
	}
	if req.Lo <= 0 {
		req.Lo = 0.1
	}
	if req.Hi <= 0 {
		req.Hi = 1.0
	}
	sw := Sweep{Req: req}
	switch {
	case req.Hi > 1:
		return sw, workload.ErrHiAboveOne
	case req.Hi <= req.Lo:
		return sw, errors.New("hi must exceed lo")
	case req.IntervalOffset < 0:
		return sw, errors.New("interval_offset must be non-negative")
	}
	var err error
	if sw.Scenario, err = repro.ParseScenario(orDefault(req.Scenario, "none")); err != nil {
		return sw, err
	}
	sw.Req.Scenario = sw.Scenario.String()
	names := req.Approaches
	if len(names) == 0 {
		names = []string{"st", "dp", "selective"}
	}
	sw.Approaches = make([]repro.Approach, len(names))
	sw.Req.Approaches = make([]string, len(names))
	for i, n := range names {
		if sw.Approaches[i], err = repro.ParseApproach(n); err != nil {
			return sw, err
		}
		sw.Req.Approaches[i] = sw.Approaches[i].String()
	}
	return sw, checkTimeout(req.TimeoutMS)
}

// Intervals returns the sweep's width-0.1 buckets, in order.
func (sw Sweep) Intervals() []workload.Interval {
	return workload.Intervals(sw.Req.Lo, sw.Req.Hi, 0.1)
}

// Config returns the batch configuration that runs the sweep over ivs,
// whose first interval is interval number offset of the logical sweep.
func (sw Sweep) Config(ivs []workload.Interval, offset int) repro.SweepConfig {
	cfg := repro.DefaultSweepConfig(sw.Scenario)
	cfg.Seed = sw.Req.Seed
	cfg.SetsPerInterval = sw.Req.SetsPerInterval
	cfg.MaxCandidates = sw.Req.MaxCandidates
	cfg.Approaches = sw.Approaches
	cfg.Intervals = ivs
	cfg.IntervalOffset = offset
	return cfg
}

// UnitKey is the persistent-store key of the row of interval iv, at
// index offset of the logical full-range sweep. The key space is shared
// with the fleet coordinator, so a row computed through either path is a
// store hit for the other. Over the request's own bounds and offset it
// is also the sweep's coalescing key.
func (sw Sweep) UnitKey(iv workload.Interval, offset int) string {
	return store.SweepUnitKey(sw.Req.Scenario, sw.Req.Seed, sw.Req.SetsPerInterval,
		sw.Req.MaxCandidates, iv.Lo, iv.Hi, offset, sw.Req.Approaches)
}

// The stream's four line types are each encoded here, once, for every
// producer of a sweep stream — the /v1/sweep handler, the fleet
// coordinator and mkfleet -local — so equal results give equal bytes.

// StartLine encodes the opening line of a stream over n intervals.
func (sw Sweep) StartLine(n int) []byte {
	return marshalLine(SweepLine{
		Type: "start", Schema: SweepSchema, Scenario: sw.Req.Scenario,
		Seed: sw.Req.Seed, Intervals: n,
	})
}

// RowLine encodes the line of one completed sweep interval.
func RowLine(approaches []repro.Approach, row experiment.Row) []byte {
	line := SweepLine{
		Type:       "row",
		UtilLo:     row.Interval.Lo,
		UtilHi:     row.Interval.Hi,
		Sets:       len(row.Sets),
		Candidates: row.Candidates,
		NormMean:   map[string]float64{},
		NormCI95:   map[string]float64{},
		Violations: map[string]int{},
	}
	for _, a := range approaches {
		line.NormMean[a.String()] = row.NormMean[a]
		line.NormCI95[a.String()] = row.NormCI[a]
		line.Violations[a.String()] = row.Violations[a]
	}
	return marshalLine(line)
}

// DoneLine encodes the terminal line of a stream over n intervals that
// took elapsedMS.
func DoneLine(n int, elapsedMS float64) []byte {
	return marshalLine(SweepLine{Type: "done", Intervals: n, ElapsedMS: elapsedMS})
}

// ErrorLine encodes the terminal line of a stream that failed with err.
func ErrorLine(err error) []byte {
	return marshalLine(SweepLine{Type: "error", Error: err.Error()})
}

// marshalLine marshals a stream line; the line types contain nothing
// that can fail to marshal.
func marshalLine(v SweepLine) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.reject(w, http.StatusMethodNotAllowed, 0, "POST required")
		return
	}
	if !s.admitRate(w, r) {
		return
	}
	var req SweepRequest
	if err := s.decodeBody(w, r, &req); err != nil {
		s.reject(w, http.StatusBadRequest, 0, "parse request: "+err.Error())
		return
	}
	sw, err := NormalizeSweep(req)
	if err != nil {
		s.reject(w, http.StatusBadRequest, 0, err.Error())
		return
	}
	ctx, cancel := s.workCtx(r, sw.Req.TimeoutMS)
	defer cancel()

	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	key := sw.UnitKey(workload.Interval{Lo: sw.Req.Lo, Hi: sw.Req.Hi}, sw.Req.IntervalOffset)
	s.serveFlight(ctx, w, key, func(lctx context.Context, publish func([]byte)) ([]byte, error) {
		return s.runSweep(lctx, sw, publish)
	}, func(line []byte) error {
		// line is shared across coalesced subscribers: never append into it.
		if _, err := w.Write(line); err != nil {
			return err
		}
		if _, err := io.WriteString(w, "\n"); err != nil {
			return err
		}
		if flusher != nil {
			flusher.Flush()
		}
		return nil
	})
}

// runSweep leads one sweep flight: it publishes the start line and one
// row per interval, and returns the done line. The store is probed for
// every interval up front; rows that hit are streamed from disk, and a
// sweep whose every interval hits never acquires an execution slot — a
// warm re-run of a whole sweep is pure reads. Computed rows are written
// back.
func (s *Server) runSweep(ctx context.Context, sw Sweep, publish func([]byte)) ([]byte, error) {
	start := s.now()
	intervals := sw.Intervals()
	keys := make([]string, len(intervals))
	cached := make([][]byte, len(intervals))
	allHit := s.cfg.Store != nil
	for i, iv := range intervals {
		keys[i] = sw.UnitKey(iv, sw.Req.IntervalOffset+i)
		var hit bool
		if cached[i], hit = s.storeGet(keys[i], ""); !hit {
			allHit = false
		}
	}
	if !allHit {
		release, err := s.adm.acquire(ctx)
		if err != nil {
			return nil, err
		}
		defer release()
	}
	publish(sw.StartLine(len(intervals)))
	for i, iv := range intervals {
		if cached[i] != nil {
			publish(cached[i])
			continue
		}
		// The offset keeps the streamed rows bit-identical to a batch
		// sweep over [lo, hi) with the same seed; the request's own
		// offset stacks on top so a sharded single-interval request lands
		// on the right sub-stream.
		cfg := sw.Config([]workload.Interval{iv}, sw.Req.IntervalOffset+i)
		cfg.Workers = s.cfg.MaxInFlight
		rep, err := s.runner.Sweep(ctx, cfg)
		if err != nil {
			return nil, err
		}
		row := rep.Rows[0]
		for _, a := range rep.Approaches {
			s.recordRuns(len(row.Sets), row.Counters[a])
		}
		raw := RowLine(rep.Approaches, row)
		s.storePut(keys[i], raw)
		publish(raw)
	}
	return DoneLine(len(intervals), float64(s.now().Sub(start))/1e6), nil
}
