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
	"repro/internal/experiment"
	"repro/internal/serve/wire"
	"repro/internal/store"
	"repro/internal/timeu"
	"repro/internal/workload"
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

// simulateKey canonicalizes the identity of one simulate request: the
// set fingerprint (names excluded — they cannot influence the run) plus
// every config field that can change the result. The same key serves
// both in-process coalescing (flightGroup) and the persistent store, so
// the two dedupe layers agree on what "the same request" means.
func simulateKey(set *repro.Set, a repro.Approach, sc repro.Scenario, req SimulateRequest) string {
	return store.RunKey(
		analysis.Fingerprint(set),
		a.String(),
		sc.String(),
		req.Seed,
		int64(timeu.FromMillis(req.HorizonMS)),
		req.TransientRate,
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
	set, err := req.Set.Set()
	if err != nil {
		s.reject(w, http.StatusBadRequest, 0, err.Error())
		return
	}
	a, err := repro.ParseApproach(orDefault(req.Approach, "selective"))
	if err != nil {
		s.reject(w, http.StatusBadRequest, 0, err.Error())
		return
	}
	sc, err := repro.ParseScenario(orDefault(req.Scenario, "none"))
	if err != nil {
		s.reject(w, http.StatusBadRequest, 0, err.Error())
		return
	}
	s.serveSimulate(w, r, req, set, a, sc)
}

// serveSimulate is the post-parse core of /v1/simulate — coalesced,
// admitted, executed and written. /v1/estimate's refine=true path calls
// it with the translated request, which is what makes a refined estimate
// byte-identical to the simulation it approximates: both producers run
// this one function (and share one coalescing flight when concurrent).
func (s *Server) serveSimulate(w http.ResponseWriter, r *http.Request, req SimulateRequest, set *repro.Set, a repro.Approach, sc repro.Scenario) {
	ctx, cancel := s.workCtx(r, req.TimeoutMS)
	defer cancel()

	key := simulateKey(set, a, sc, req)
	// The persistent store is consulted before admission: a hit is the
	// bytes a live run would produce (the store is keyed on everything
	// that can change them), served without an execution slot, so a warm
	// restart absorbs repeat traffic at disk-read cost.
	if s.cfg.Store != nil {
		if val, ok := s.cfg.Store.Get(key); ok {
			s.events.emit(eventStoreHit, key, Tenant(r))
			w.Header().Set("X-Mkss-Store", "hit")
			s.writeRaw(w, val)
			return
		}
		s.events.emit(eventStoreMiss, key, Tenant(r))
	}

	val, shared, err := s.flights.do(ctx, key, func(lctx context.Context) ([]byte, error) {
		release, err := s.adm.acquire(lctx)
		if err != nil {
			return nil, err
		}
		defer release()
		res, err := s.runner.Simulate(lctx, set, a, repro.RunConfig{
			HorizonMS:     req.HorizonMS,
			Scenario:      sc,
			Seed:          req.Seed,
			TransientRate: req.TransientRate,
		})
		if err != nil {
			return nil, err
		}
		s.recordRun(res)
		doc := RunDoc{
			Schema:       RunSchema,
			Fingerprint:  analysis.Fingerprint(set),
			Policy:       res.Policy,
			Scenario:     sc.String(),
			Seed:         req.Seed,
			HorizonUS:    int64(res.Horizon),
			Schedulable:  s.runner.Analysis(set).Schedulable(),
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
		data, merr := json.Marshal(doc)
		if merr != nil {
			return nil, merr
		}
		// Write-back: the next process lifetime (or the next fleet run)
		// serves these bytes without simulating. A store failure costs
		// only future hits, never this response.
		if s.cfg.Store != nil {
			if perr := s.cfg.Store.Put(key, data); perr != nil {
				fmt.Fprintf(s.cfg.Log, "mkservd: store write-back: %v\n", perr)
			} else {
				s.events.emit(eventStoreWrite, key, "")
			}
		}
		return data, nil
	})
	if shared {
		s.coalesced.Add(1)
		w.Header().Set("X-Mkss-Coalesced", "1")
	}
	if err != nil {
		s.fail(w, classifyCtx(err))
		return
	}
	s.writeRaw(w, val)
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

// RowLine builds the "row" stream line for one completed sweep interval.
// It is the single encoding of a sweep row shared by the streaming
// /v1/sweep handler and any client that needs to reproduce the stream
// locally (mkfleet -local): two producers of the same Row marshal to the
// same bytes because they build the same SweepLine here.
func RowLine(approaches []repro.Approach, row experiment.Row) SweepLine {
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
	return line
}

// MarshalLine encodes a stream line exactly as the sweep handler does
// (mustLine), for clients reproducing the stream byte for byte.
func MarshalLine(v SweepLine) []byte { return mustLine(v) }

// sweepUnitKeys derives the persistent-store key of every interval in a
// sweep request. The key space is shared with the fleet coordinator:
// interval i of this request is unit (req.IntervalOffset + i) of the
// logical full-range sweep, so a row computed through either path is a
// store hit for the other.
func sweepUnitKeys(sc repro.Scenario, as []repro.Approach, req SweepRequest, intervals []workload.Interval) []string {
	names := make([]string, len(as))
	for i, a := range as {
		names[i] = a.String()
	}
	keys := make([]string, len(intervals))
	for i, iv := range intervals {
		keys[i] = store.SweepUnitKey(sc.String(), req.Seed, req.SetsPerInterval,
			req.MaxCandidates, iv.Lo, iv.Hi, req.IntervalOffset+i, names)
	}
	return keys
}

// sweepKey canonicalizes the coalescing key of one sweep request.
func sweepKey(sc repro.Scenario, as []repro.Approach, req SweepRequest) string {
	names := make([]string, len(as))
	for i, a := range as {
		names[i] = a.String()
	}
	return strings.Join([]string{
		sc.String(),
		strconv.FormatUint(req.Seed, 10),
		strconv.Itoa(req.SetsPerInterval),
		strconv.Itoa(req.MaxCandidates),
		strconv.FormatFloat(req.Lo, 'g', -1, 64),
		strconv.FormatFloat(req.Hi, 'g', -1, 64),
		strconv.Itoa(req.IntervalOffset),
		strings.Join(names, ","),
	}, "|")
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
	if req.Hi > 1 {
		s.reject(w, http.StatusBadRequest, 0, workload.ErrHiAboveOne.Error())
		return
	}
	if req.Hi <= req.Lo {
		s.reject(w, http.StatusBadRequest, 0, "hi must exceed lo")
		return
	}
	if req.IntervalOffset < 0 {
		s.reject(w, http.StatusBadRequest, 0, "interval_offset must be non-negative")
		return
	}
	sc, err := repro.ParseScenario(orDefault(req.Scenario, "none"))
	if err != nil {
		s.reject(w, http.StatusBadRequest, 0, err.Error())
		return
	}
	names := req.Approaches
	if len(names) == 0 {
		names = []string{"st", "dp", "selective"}
	}
	as := make([]repro.Approach, len(names))
	for i, n := range names {
		if as[i], err = repro.ParseApproach(n); err != nil {
			s.reject(w, http.StatusBadRequest, 0, err.Error())
			return
		}
	}
	ctx, cancel := s.workCtx(r, req.TimeoutMS)
	defer cancel()

	intervals := workload.Intervals(req.Lo, req.Hi, 0.1)
	job, started := s.sweeps.attach(sweepKey(sc, as, req), func(lctx context.Context, publish func([]byte)) error {
		start := s.now()
		// Probe the store for every interval up front. Rows that hit are
		// streamed from disk; a sweep whose every interval hits never
		// acquires an execution slot at all — a warm re-run of a whole
		// sweep is pure reads.
		var keys []string
		var cached [][]byte
		allHit := false
		if s.cfg.Store != nil {
			keys = sweepUnitKeys(sc, as, req, intervals)
			cached = make([][]byte, len(intervals))
			allHit = true
			for i, k := range keys {
				if val, ok := s.cfg.Store.Get(k); ok {
					cached[i] = val
					s.events.emit(eventStoreHit, k, "")
				} else {
					allHit = false
					s.events.emit(eventStoreMiss, k, "")
				}
			}
		}
		if !allHit {
			release, err := s.adm.acquire(lctx)
			if err != nil {
				return err
			}
			defer release()
		}
		publish(mustLine(SweepLine{
			Type: "start", Schema: SweepSchema, Scenario: sc.String(),
			Seed: req.Seed, Intervals: len(intervals),
		}))
		for i, iv := range intervals {
			if cached != nil && cached[i] != nil {
				publish(cached[i])
				continue
			}
			cfg := repro.DefaultSweepConfig(sc)
			cfg.Seed = req.Seed
			cfg.SetsPerInterval = req.SetsPerInterval
			cfg.MaxCandidates = req.MaxCandidates
			cfg.Approaches = as
			cfg.Intervals = []workload.Interval{iv}
			// IntervalOffset keeps the streamed rows bit-identical to a
			// batch sweep over [lo, hi) with the same seed; the request's
			// own offset stacks on top so a sharded single-interval
			// request lands on the right sub-stream.
			cfg.IntervalOffset = req.IntervalOffset + i
			cfg.Workers = s.cfg.MaxInFlight
			rep, err := s.runner.Sweep(lctx, cfg)
			if err != nil {
				return err
			}
			row := rep.Rows[0]
			line := RowLine(rep.Approaches, row)
			s.aggMu.Lock()
			for _, a := range rep.Approaches {
				s.agg = s.agg.Add(row.Counters[a])
			}
			s.aggRuns += uint64(len(row.Sets) * len(rep.Approaches))
			s.aggMu.Unlock()
			raw := mustLine(line)
			if s.cfg.Store != nil {
				if perr := s.cfg.Store.Put(keys[i], raw); perr != nil {
					fmt.Fprintf(s.cfg.Log, "mkservd: store write-back: %v\n", perr)
				} else {
					s.events.emit(eventStoreWrite, keys[i], "")
				}
			}
			publish(raw)
		}
		publish(mustLine(SweepLine{
			Type:      "done",
			Intervals: len(intervals),
			ElapsedMS: float64(s.now().Sub(start)) / 1e6,
		}))
		return nil
	})
	if !started {
		s.coalesced.Add(1)
		w.Header().Set("X-Mkss-Coalesced", "1")
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	wrote := false
	emit := func(row []byte) error {
		// row is shared across coalesced subscribers: never append into it.
		if _, err := w.Write(row); err != nil {
			return err
		}
		if _, err := io.WriteString(w, "\n"); err != nil {
			return err
		}
		if flusher != nil {
			flusher.Flush()
		}
		wrote = true
		return nil
	}
	if err := job.stream(ctx, emit); err != nil {
		err = classifyCtx(err)
		if !wrote {
			s.fail(w, err)
			return
		}
		// The stream is already under way: append a terminal error line
		// instead of a status code the client can no longer see.
		s.failures.Add(1)
		if werr := emit(mustLine(SweepLine{Type: "error", Error: err.Error()})); werr != nil {
			fmt.Fprintf(s.cfg.Log, "mkservd: sweep error line: %v\n", werr)
		}
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

// mustLine marshals a stream line; the line types contain nothing that
// can fail to marshal.
func mustLine(v SweepLine) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}
