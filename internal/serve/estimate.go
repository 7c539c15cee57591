package serve

import (
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/analysis"
	"repro/internal/estimate"
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
// Backend selects among the registered estimators; an exact backend
// ("sim") runs real simulation work and therefore does pass through the
// execution-slot admission even without refine (its answer is still
// packaged as an EstimateDoc, and its run counters are not folded into
// the /metrics aggregate — use refine for the full document).
func (s *Server) handleEstimate(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet && r.Method != http.MethodPost {
		s.reject(w, http.StatusMethodNotAllowed, 0, "GET or POST required")
		return
	}
	if !s.admitRate(w, r) {
		return
	}
	var req EstimateRequest
	if r.Method == http.MethodGet {
		if err := decodeEstimateQuery(r, &req); err != nil {
			s.reject(w, http.StatusBadRequest, 0, "parse query: "+err.Error())
			return
		}
	} else if err := s.decodeBody(w, r, &req); err != nil {
		s.reject(w, http.StatusBadRequest, 0, "parse request: "+err.Error())
		return
	}
	run, err := parseRun(SimulateRequest{
		Set:           req.Set,
		Approach:      req.Approach,
		Scenario:      req.Scenario,
		Seed:          req.Seed,
		HorizonMS:     req.HorizonMS,
		TransientRate: req.TransientRate,
		TimeoutMS:     req.TimeoutMS,
	})
	if err != nil {
		s.reject(w, http.StatusBadRequest, 0, err.Error())
		return
	}
	if req.Refine {
		s.serveSimulate(w, r, run)
		return
	}
	est, err := estimate.New(req.Backend, s.runner)
	if err != nil {
		s.reject(w, http.StatusBadRequest, 0, err.Error())
		return
	}
	ctx, cancel := s.workCtx(r, req.TimeoutMS)
	defer cancel()
	if est.Exact() {
		release, err := s.adm.acquire(ctx)
		if err != nil {
			s.fail(w, classifyCtx(err))
			return
		}
		defer release()
	}
	start := s.now()
	ans, err := est.Estimate(ctx, estimate.Request{
		Set:           run.set,
		Approach:      run.a,
		Scenario:      run.sc,
		Seed:          req.Seed,
		HorizonMS:     req.HorizonMS,
		TransientRate: req.TransientRate,
	})
	if err != nil {
		var ue *estimate.UnsupportedError
		if errors.As(err, &ue) {
			// Structured 501: the backend has no model for this policy.
			// Permanent for the pair — the client should refine (the
			// simulator handles every registered policy) rather than retry.
			s.rejectCode(w, http.StatusNotImplemented, 0, CodeUnsupportedBackend, err.Error())
			return
		}
		s.fail(w, classifyCtx(err))
		return
	}
	s.writeJSON(w, http.StatusOK, EstimateDoc{
		Schema:       EstimateSchema,
		Fingerprint:  analysis.Fingerprint(run.set),
		Backend:      ans.Backend,
		Policy:       ans.Policy,
		Scenario:     run.sc.String(),
		Seed:         req.Seed,
		HorizonUS:    int64(ans.Horizon),
		Schedulable:  ans.Schedulable,
		ActiveEnergy: ans.ActiveEnergy,
		TotalEnergy:  ans.TotalEnergy,
		MKPredicted:  ans.MKPredicted,
		Exact:        ans.Exact,
		ElapsedUS:    int64(s.now().Sub(start) / time.Microsecond),
	})
}

// decodeEstimateQuery maps GET query parameters onto an EstimateRequest:
// set (the JSON task-set spec), approach, scenario, seed, horizon_ms,
// transient_rate, backend, refine, timeout_ms. Unknown set fields are
// rejected exactly as in a POST body.
func decodeEstimateQuery(r *http.Request, req *EstimateRequest) error {
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
