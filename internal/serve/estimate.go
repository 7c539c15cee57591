package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro"
	"repro/internal/analysis"
	"repro/internal/estimate"
	"repro/internal/serve/wire"
)

// handleEstimate serves GET/POST /v1/estimate: the two-tier query path.
//
// The default tier is the analytical twin — a closed-form answer from
// the memoized offline products, served without consuming an execution
// slot (only the token bucket applies), so an estimate-heavy client
// cannot starve the simulation queue and a cached answer returns in
// microseconds. The second tier is refine=true, which falls through to
// the real discrete-event simulation via the exact /v1/simulate core:
// same admission, same coalescing flight, byte-identical mkss-run/v1
// response.
//
// The twin is the only estimator. The request's backend field stays on
// the wire so that requests naming the twin keep working: "" and "twin"
// answer from it, and any other name is a 400.
func (s *Server) handleEstimate(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet && r.Method != http.MethodPost {
		s.reject(w, http.StatusMethodNotAllowed, 0, "GET or POST required")
		return
	}
	if !s.admitRate(w, r) {
		return
	}
	var req wire.EstimateRequest
	if r.Method == http.MethodGet {
		if err := decodeEstimateQuery(r, &req); err != nil {
			s.reject(w, http.StatusBadRequest, 0, "parse query: "+err.Error())
			return
		}
	} else if err := s.decodeBody(w, r, &req); err != nil {
		s.reject(w, http.StatusBadRequest, 0, "parse request: "+err.Error())
		return
	}
	run, err := parseEstimate(req)
	if err != nil {
		s.reject(w, http.StatusBadRequest, 0, err.Error())
		return
	}
	if req.Refine {
		s.serveSimulate(w, r, run)
		return
	}
	if req.Backend != "" && req.Backend != "twin" {
		s.reject(w, http.StatusBadRequest, 0, fmt.Sprintf(
			"estimate: unknown backend %q (the twin is the only estimator; refine=true answers from the simulator)", req.Backend))
		return
	}
	start := s.now()
	ans, err := estimate.NewTwin(s.runner).Estimate(estimate.Request{
		Set:       run.set,
		Approach:  run.a,
		Scenario:  run.sc,
		Seed:      req.Seed,
		HorizonMS: req.HorizonMS,
	})
	if err != nil {
		var ue *estimate.UnsupportedError
		if errors.As(err, &ue) {
			// Structured 501: the twin has no model for this policy.
			// Permanent for the pair — the client should refine (the
			// simulator handles every registered policy) rather than retry.
			s.rejectCode(w, http.StatusNotImplemented, 0, wire.CodeUnsupportedBackend, err.Error())
			return
		}
		s.reject(w, http.StatusUnprocessableEntity, 0, err.Error())
		return
	}
	s.writeJSON(w, http.StatusOK, EstimateDocOf(run.set, run.sc, req.Seed, ans, s.now().Sub(start)))
}

// parseEstimate is parseRun over the run fields an estimate request
// mirrors from /v1/simulate; refine=true serves the result.
func parseEstimate(req wire.EstimateRequest) (runRequest, error) {
	return parseRun(wire.SimulateRequest{
		Set:           req.Set,
		Approach:      req.Approach,
		Scenario:      req.Scenario,
		Seed:          req.Seed,
		HorizonMS:     req.HorizonMS,
		TransientRate: req.TransientRate,
		TimeoutMS:     req.TimeoutMS,
	})
}

// EstimateDocOf is the mkss-estimate/v1 document of one twin answer for
// set under scenario and fault seed seed, produced in elapsed. It is the
// document's one builder: /v1/estimate and mksim -estimate -json print
// what it returns.
func EstimateDocOf(set *repro.Set, scenario repro.Scenario, seed uint64, ans *estimate.Answer, elapsed time.Duration) wire.EstimateDoc {
	return wire.EstimateDoc{
		Schema:       wire.EstimateSchema,
		Fingerprint:  analysis.Fingerprint(set),
		Backend:      "twin",
		Policy:       ans.Policy,
		Scenario:     scenario.String(),
		Seed:         seed,
		HorizonUS:    int64(ans.Horizon),
		Schedulable:  ans.Schedulable,
		ActiveEnergy: ans.ActiveEnergy,
		TotalEnergy:  ans.TotalEnergy,
		MKPredicted:  ans.MKPredicted,
		Exact:        false,
		ElapsedUS:    int64(elapsed / time.Microsecond),
	}
}

// decodeEstimateQuery maps GET query parameters onto an EstimateRequest:
// set (the JSON task-set spec), approach, scenario, seed, horizon_ms,
// transient_rate, backend, refine, timeout_ms. Unknown set fields are
// rejected exactly as in a POST body.
func decodeEstimateQuery(r *http.Request, req *wire.EstimateRequest) error {
	q := r.URL.Query()
	dec := json.NewDecoder(strings.NewReader(q.Get("set")))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req.Set); err != nil {
		return &queryError{"set", err.Error()}
	}
	req.Approach = q.Get("approach")
	req.Scenario = q.Get("scenario")
	req.Backend = q.Get("backend")
	var err error
	if v := q.Get("seed"); v != "" {
		if req.Seed, err = strconv.ParseUint(v, 10, 64); err != nil {
			return &queryError{"seed", err.Error()}
		}
	}
	if v := q.Get("horizon_ms"); v != "" {
		if req.HorizonMS, err = strconv.ParseFloat(v, 64); err != nil {
			return &queryError{"horizon_ms", err.Error()}
		}
	}
	if v := q.Get("transient_rate"); v != "" {
		if req.TransientRate, err = strconv.ParseFloat(v, 64); err != nil {
			return &queryError{"transient_rate", err.Error()}
		}
	}
	if v := q.Get("refine"); v != "" {
		if req.Refine, err = strconv.ParseBool(v); err != nil {
			return &queryError{"refine", err.Error()}
		}
	}
	if v := q.Get("timeout_ms"); v != "" {
		if req.TimeoutMS, err = strconv.ParseFloat(v, 64); err != nil {
			return &queryError{"timeout_ms", err.Error()}
		}
	}
	return nil
}

// queryError names the offending query parameter in a decode failure.
type queryError struct{ param, detail string }

func (e *queryError) Error() string { return e.param + " parameter: " + e.detail }
