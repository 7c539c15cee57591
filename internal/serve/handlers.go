package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro"
	"repro/internal/analysis"
	"repro/internal/serve/wire"
	"repro/internal/store"
	"repro/internal/timeu"
)

// The request/response documents of every endpoint live in the shared
// internal/serve/wire package — the one schema both this server and
// internal/serve/client compile against. The aliases below keep the
// serve-qualified names (serve.RunDoc, serve.SweepLine, ...) that
// internal/fleet, cmd/mkfleet and existing tests already use.
const (
	RunSchema      = wire.RunSchema
	SweepSchema    = wire.SweepSchema
	AnalyzeSchema  = wire.AnalyzeSchema
	EstimateSchema = wire.EstimateSchema
)

type (
	SimulateRequest = wire.SimulateRequest
	RunDoc          = wire.RunDoc
	EstimateRequest = wire.EstimateRequest
	EstimateDoc     = wire.EstimateDoc
	SweepRequest    = wire.SweepRequest
	SweepLine       = wire.SweepLine
	AnalyzeTask     = wire.AnalyzeTask
	AnalyzeDoc      = wire.AnalyzeDoc
	ErrorDoc        = wire.ErrorDoc
	HealthDoc       = wire.HealthDoc
)

// Error codes carried by ErrorDoc.Code (see wire for the vocabulary).
const (
	CodeBadRequest         = wire.CodeBadRequest
	CodeMethodNotAllowed   = wire.CodeMethodNotAllowed
	CodeRateLimited        = wire.CodeRateLimited
	CodeQueueFull          = wire.CodeQueueFull
	CodeQuotaExceeded      = wire.CodeQuotaExceeded
	CodeUnprocessable      = wire.CodeUnprocessable
	CodeUnavailable        = wire.CodeUnavailable
	CodeDeadline           = wire.CodeDeadline
	CodeInternal           = wire.CodeInternal
	CodeUnsupportedBackend = wire.CodeUnsupportedBackend
)

// codeForStatus maps an HTTP status onto the default error code; paths
// that know better (queue full) pass an explicit code to rejectCode.
func codeForStatus(status int) string {
	switch status {
	case http.StatusBadRequest:
		return CodeBadRequest
	case http.StatusMethodNotAllowed:
		return CodeMethodNotAllowed
	case http.StatusTooManyRequests:
		return CodeRateLimited
	case http.StatusUnprocessableEntity:
		return CodeUnprocessable
	case http.StatusServiceUnavailable:
		return CodeUnavailable
	case http.StatusGatewayTimeout:
		return CodeDeadline
	}
	return CodeInternal
}

// decodeBody strictly decodes the request body into v, bounding its
// size. Unknown fields are rejected so schema typos fail loudly.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// reject writes a JSON error with the given status and the status's
// default error code; retryAfter > 0 adds the Retry-After backpressure
// header (429/503 responses).
func (s *Server) reject(w http.ResponseWriter, status int, retryAfter int, msg string) {
	s.rejectCode(w, status, retryAfter, codeForStatus(status), msg)
}

// rejectCode is reject with an explicit error code for paths where the
// status alone is ambiguous (the two 429 flavors).
func (s *Server) rejectCode(w http.ResponseWriter, status int, retryAfter int, code, msg string) {
	s.failures.Add(1)
	if retryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(retryAfter))
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(ErrorDoc{Error: msg, Code: code}); err != nil {
		fmt.Fprintf(s.cfg.Log, "mkservd: write error response: %v\n", err)
	}
}

// fail maps a handler error onto the HTTP status vocabulary: admission
// rejections keep their status and Retry-After, deadline expiry is 504,
// cancellation during drain is 503, and everything else is a 422
// configuration/simulation error.
func (s *Server) fail(w http.ResponseWriter, err error) {
	var ae *admitError
	switch {
	case errors.As(err, &ae):
		s.rejected.Add(1)
		s.rejectCode(w, ae.status, ceilSeconds(ae.retryAfter), ae.code, ae.msg)
	case errors.Is(err, errHTTPDeadline):
		s.reject(w, http.StatusGatewayTimeout, 0, err.Error())
	case errors.Is(err, errHTTPCanceled):
		s.reject(w, http.StatusServiceUnavailable, 0, err.Error())
	default:
		s.reject(w, http.StatusUnprocessableEntity, 0, err.Error())
	}
}

// Sentinel wrappers so fail can classify context errors after they have
// been wrapped by the engine ("sim: interrupted: context canceled").
var (
	errHTTPDeadline = errors.New("deadline exceeded")
	errHTTPCanceled = errors.New("canceled")
)

// classifyCtx rewraps an error that carries a context cause into the
// matching sentinel, preserving the original message.
func classifyCtx(err error) error {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return fmt.Errorf("%w: %v", errHTTPDeadline, err)
	case errors.Is(err, context.Canceled):
		return fmt.Errorf("%w: %v", errHTTPCanceled, err)
	}
	return err
}

// writeJSON writes v as the complete JSON response.
func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		fmt.Fprintf(s.cfg.Log, "mkservd: write response: %v\n", err)
	}
}

// admitRate applies rate admission to one request: the global token
// bucket first (host protection), then the per-tenant bucket (fairness).
// Both 429 flavors carry a Retry-After derived from the rejecting
// bucket's own refill time, so a client's backoff matches the bucket
// that actually stopped it.
func (s *Server) admitRate(w http.ResponseWriter, r *http.Request) bool {
	if s.bucket != nil {
		if ok, retry := s.bucket.take(); !ok {
			s.rejected.Add(1)
			s.reject(w, http.StatusTooManyRequests, ceilSeconds(retry),
				"request rate limit exceeded")
			return false
		}
	}
	if s.tenants != nil {
		tenant := Tenant(r)
		if ok, retry := s.tenants.take(tenant); !ok {
			s.rejected.Add(1)
			s.events.emit(eventQuotaReject, "", tenant)
			s.rejectCode(w, http.StatusTooManyRequests, ceilSeconds(retry), CodeQuotaExceeded,
				fmt.Sprintf("tenant %q quota exceeded", tenant))
			return false
		}
	}
	return true
}

// ceilSeconds rounds a Retry-After hint up to whole seconds (the
// header's resolution); a positive hint never rounds to zero.
func ceilSeconds(d time.Duration) int {
	return int((d + time.Second - 1) / time.Second)
}

// runRequest is a parsed run request: the /v1/simulate wire request
// plus its task set, approach and scenario. /v1/estimate parses its
// mirrored fields into the same shape.
type runRequest struct {
	SimulateRequest
	set *repro.Set
	a   repro.Approach
	sc  repro.Scenario
}

// parseRun is the one parse of a run request, shared by /v1/simulate
// and /v1/estimate: the set spec, the approach (default selective), the
// scenario (default none) and the timeout_ms bound, in that order.
func parseRun(req SimulateRequest) (runRequest, error) {
	run := runRequest{SimulateRequest: req}
	var err error
	if run.set, err = req.Set.Set(); err != nil {
		return run, err
	}
	if run.a, err = repro.ParseApproach(orDefault(req.Approach, "selective")); err != nil {
		return run, err
	}
	if run.sc, err = repro.ParseScenario(orDefault(req.Scenario, "none")); err != nil {
		return run, err
	}
	return run, checkTimeout(req.TimeoutMS)
}

// key canonicalizes the identity of one run: the set fingerprint (names
// excluded — they cannot influence the run) plus every config field that
// can change the result. The same key serves both in-process coalescing
// and the persistent store, so the two dedupe layers agree on what "the
// same request" means.
func (run runRequest) key() string {
	return store.RunKey(
		analysis.Fingerprint(run.set),
		run.a.String(),
		run.sc.String(),
		run.Seed,
		int64(timeu.FromMillis(run.HorizonMS)),
		run.TransientRate,
	)
}

func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.reject(w, http.StatusMethodNotAllowed, 0, "POST required")
		return
	}
	if !s.admitRate(w, r) {
		return
	}
	var req SimulateRequest
	if err := s.decodeBody(w, r, &req); err != nil {
		s.reject(w, http.StatusBadRequest, 0, "parse request: "+err.Error())
		return
	}
	run, err := parseRun(req)
	if err != nil {
		s.reject(w, http.StatusBadRequest, 0, err.Error())
		return
	}
	s.serveSimulate(w, r, run)
}

// serveSimulate is the post-parse core of /v1/simulate — read through
// the store, coalesced, admitted, executed and written. /v1/estimate's
// refine=true path calls it with the translated request, which is what
// makes a refined estimate byte-identical to the simulation it
// approximates: both producers run this one function (and share one
// flight when concurrent).
func (s *Server) serveSimulate(w http.ResponseWriter, r *http.Request, run runRequest) {
	key := run.key()
	// The persistent store is consulted before admission: a hit is the
	// bytes a live run would produce (the store is keyed on everything
	// that can change them), served without an execution slot, so a warm
	// restart absorbs repeat traffic at disk-read cost.
	if val, ok := s.storeGet(key, Tenant(r)); ok {
		w.Header().Set("X-Mkss-Store", "hit")
		s.writeRaw(w, val)
		return
	}
	ctx, cancel := s.workCtx(r, run.TimeoutMS)
	defer cancel()
	s.serveFlight(ctx, w, key, func(lctx context.Context, _ func([]byte)) ([]byte, error) {
		release, err := s.adm.acquire(lctx)
		if err != nil {
			return nil, err
		}
		defer release()
		res, err := s.runner.Simulate(lctx, run.set, run.a, repro.RunConfig{
			HorizonMS:     run.HorizonMS,
			Scenario:      run.sc,
			Seed:          run.Seed,
			TransientRate: run.TransientRate,
		})
		if err != nil {
			return nil, err
		}
		s.recordRuns(1, res.Counters)
		doc := RunDoc{
			Schema:       RunSchema,
			Fingerprint:  analysis.Fingerprint(run.set),
			Policy:       res.Policy,
			Scenario:     run.sc.String(),
			Seed:         run.Seed,
			HorizonUS:    int64(res.Horizon),
			Schedulable:  s.runner.Analysis(run.set).Schedulable(),
			ActiveEnergy: res.ActiveEnergy(),
			TotalEnergy:  res.TotalEnergy(),
			MKSatisfied:  res.MKSatisfied(),
			ViolationAt:  res.ViolationAt,
			Counters:     res.Counters,
		}
		if pf := res.PermanentFault; pf != nil {
			doc.PermanentAtUS = int64(pf.At)
			doc.PermanentProc = pf.Proc
		}
		data, err := json.Marshal(doc)
		if err != nil {
			return nil, err
		}
		s.storePut(key, data)
		return data, nil
	}, func(doc []byte) error {
		s.writeRaw(w, doc)
		return nil
	})
}

// serveFlight attaches a request to the flight for key, starting run as
// its leader when none is open, and writes the flight's documents
// through emit. A failure before the first document becomes the HTTP
// status; after it the client already holds a 200, so the stream ends
// with an error line instead.
func (s *Server) serveFlight(ctx context.Context, w http.ResponseWriter, key string,
	run func(ctx context.Context, publish func([]byte)) ([]byte, error), emit func([]byte) error) {
	f, started := s.flights.attach(key, run)
	if !started {
		s.coalesced.Add(1)
		w.Header().Set("X-Mkss-Coalesced", "1")
	}
	wrote := false
	err := f.stream(ctx, func(doc []byte) error {
		wrote = true
		return emit(doc)
	})
	if err == nil {
		return
	}
	err = classifyCtx(err)
	if !wrote {
		s.fail(w, err)
		return
	}
	s.failures.Add(1)
	if werr := emit(ErrorLine(err)); werr != nil {
		fmt.Fprintf(s.cfg.Log, "mkservd: stream error line: %v\n", werr)
	}
}

// writeRaw writes a prebuilt JSON document plus the trailing newline.
// val may be shared (a coalesced flight's buffer, the store's copy):
// the newline is written separately, never appended into it.
func (s *Server) writeRaw(w http.ResponseWriter, val []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	if _, err := w.Write(val); err == nil {
		if _, err = io.WriteString(w, "\n"); err != nil {
			fmt.Fprintf(s.cfg.Log, "mkservd: write response: %v\n", err)
		}
	} else {
		fmt.Fprintf(s.cfg.Log, "mkservd: write response: %v\n", err)
	}
}

func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet && r.Method != http.MethodPost {
		s.reject(w, http.StatusMethodNotAllowed, 0, "GET or POST required")
		return
	}
	if !s.admitRate(w, r) {
		return
	}
	var spec repro.SetSpec
	if q := r.URL.Query().Get("set"); q != "" {
		dec := json.NewDecoder(strings.NewReader(q))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&spec); err != nil {
			s.reject(w, http.StatusBadRequest, 0, "parse set query parameter: "+err.Error())
			return
		}
	} else if err := s.decodeBody(w, r, &spec); err != nil {
		s.reject(w, http.StatusBadRequest, 0,
			"need a task-set spec as the request body or the set query parameter: "+err.Error())
		return
	}
	set, err := spec.Set()
	if err != nil {
		s.reject(w, http.StatusBadRequest, 0, err.Error())
		return
	}
	// Every product below is memoized in the session LRU (shared with
	// /v1/simulate): repeated queries and identical sets are O(lookup).
	prods := s.runner.Analysis(set)
	resp, conv := prods.ResponseTimes()
	promo := prods.PromotionTimes()
	doc := AnalyzeDoc{
		Schema:      AnalyzeSchema,
		Fingerprint: analysis.Fingerprint(set),
		Utilization: set.Utilization(),
		MKUtil:      set.MKUtilization(),
		Schedulable: prods.Schedulable(),
		Cache:       s.runner.CacheStats(),
	}
	post, perr := prods.Postponement()
	if perr != nil {
		doc.ThetaError = perr.Error()
	}
	for i := range set.Tasks {
		t := &set.Tasks[i]
		at := AnalyzeTask{
			Name:         t.Name,
			PeriodUS:     int64(t.Period),
			DeadlineUS:   int64(t.Deadline),
			WCETUS:       int64(t.WCET),
			M:            t.M,
			K:            t.K,
			ResponseUS:   int64(resp[i]),
			RTAConverged: conv[i],
			PromotionUS:  int64(promo[i]),
			MKUtil:       t.MKUtilization(),
		}
		if perr == nil {
			th := int64(post.Theta[i])
			at.ThetaUS = &th
		}
		doc.Tasks = append(doc.Tasks, at)
	}
	s.writeJSON(w, http.StatusOK, doc)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.reject(w, http.StatusMethodNotAllowed, 0, "GET required")
		return
	}
	doc := HealthDoc{
		Status:        "ok",
		InFlight:      s.inflight.Load() - 1,
		Queued:        s.queued.Load(),
		P95MS:         s.lat.p95(),
		QuotaRejected: s.quotaRejections.Snapshot(),
	}
	if st := s.cfg.Store; st != nil {
		stats := st.Stats()
		doc.Store = &wire.StoreStatsDoc{
			Hits:             stats.Hits,
			Misses:           stats.Misses,
			Writes:           stats.Writes,
			CorruptRecovered: stats.CorruptRecovered,
			Segments:         stats.Segments,
			Keys:             stats.Keys,
			Superseded:       stats.Superseded,
			DiskBytes:        stats.DiskBytes,
		}
	}
	status := http.StatusOK
	if s.draining.Load() {
		doc.Status = "draining"
		status = http.StatusServiceUnavailable
	}
	s.writeJSON(w, status, doc)
}

// orDefault substitutes def for an empty string.
func orDefault(v, def string) string {
	if v == "" {
		return def
	}
	return v
}
