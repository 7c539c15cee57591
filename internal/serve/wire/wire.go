// Package wire is the versioned request/response schema of the mkss
// serving API — the one definition of every JSON document that crosses
// the HTTP boundary. The server handlers (internal/serve), the typed
// client (internal/serve/client), the fleet coordinator and the
// commands all name these types here; no package re-exports them under
// another name. A field added to a document is one struct field here
// plus one line in the document's builder (serve.RunDocOf,
// serve.EstimateDocOf, or the sweep line encoders in internal/serve).
//
// Layering rule (enforced by mklint's "depdag" deny edges): wire is a
// pure schema package. It may import the public repro package for the
// shared task-set spec and counters vocabulary, but never the
// simulation internals (repro/internal/sim, core, experiment) — a wire
// type is data on the wire, not behavior.
//
// Schema versioning: every top-level document carries its schema tag
// (mkss-run/v1, mkss-sweep/v1, mkss-analyze/v1, mkss-estimate/v1). Bump
// a tag on any backwards-incompatible change; additive changes keep the
// version.
package wire

import "repro"

// Schema version tags of the documents served by the endpoints.
const (
	RunSchema      = "mkss-run/v1"
	SweepSchema    = "mkss-sweep/v1"
	AnalyzeSchema  = "mkss-analyze/v1"
	EstimateSchema = "mkss-estimate/v1"
)

// SimulateRequest is the POST /v1/simulate body. Set shares the CLI
// decode path (repro.SetSpec), so malformed fields come back as the same
// "tasks[2].wcet_ms: ..." errors mksim prints.
type SimulateRequest struct {
	Set           repro.SetSpec `json:"set"`
	Approach      string        `json:"approach"`
	Scenario      string        `json:"scenario,omitempty"`
	Seed          uint64        `json:"seed,omitempty"`
	HorizonMS     float64       `json:"horizon_ms,omitempty"`
	TransientRate float64       `json:"transient_rate,omitempty"`
	// TimeoutMS caps this request's simulation work; zero or negative
	// uses the server default. It must be finite and at most
	// 9223372036854 (the milliseconds a Go time.Duration holds, about 292
	// years), or the request is a 400 naming timeout_ms. The deadline
	// propagates as a context into the engine.
	TimeoutMS float64 `json:"timeout_ms,omitempty"`
}

// RunDoc is the /v1/simulate response (schema mkss-run/v1), which
// mksim -json prints too. Fingerprint is the canonical set fingerprint
// the server coalesces on.
type RunDoc struct {
	Schema        string         `json:"schema"`
	Fingerprint   string         `json:"fingerprint"`
	Policy        string         `json:"policy"`
	Scenario      string         `json:"scenario"`
	Seed          uint64         `json:"seed"`
	HorizonUS     int64          `json:"horizon_us"`
	Schedulable   bool           `json:"r_pattern_schedulable"`
	ActiveEnergy  float64        `json:"active_energy"`
	TotalEnergy   float64        `json:"total_energy"`
	MKSatisfied   bool           `json:"mk_satisfied"`
	ViolationAt   []int          `json:"violation_at"`
	Counters      repro.Counters `json:"counters"`
	PermanentAtUS int64          `json:"permanent_fault_at_us,omitempty"`
	PermanentProc int            `json:"permanent_fault_proc,omitempty"`
}

// EstimateRequest is the /v1/estimate body (POST) or its query-parameter
// equivalent (GET). The first six fields mirror SimulateRequest exactly,
// so an estimate can be refined into the simulation it approximates by
// re-sending the same request with Refine set.
type EstimateRequest struct {
	Set           repro.SetSpec `json:"set"`
	Approach      string        `json:"approach"`
	Scenario      string        `json:"scenario,omitempty"`
	Seed          uint64        `json:"seed,omitempty"`
	HorizonMS     float64       `json:"horizon_ms,omitempty"`
	TransientRate float64       `json:"transient_rate,omitempty"`
	// Backend selects the estimator ("twin" by default; "sim" runs the
	// real simulation through the estimator interface — same answer as
	// /v1/simulate, but packaged as an EstimateDoc).
	Backend string `json:"backend,omitempty"`
	// Refine falls through to the real discrete-event simulation under
	// the server's admission path: the response is the byte-identical
	// mkss-run/v1 document /v1/simulate would return for the same
	// parameters (and it consumes an execution slot, unlike the twin).
	Refine bool `json:"refine,omitempty"`
	// TimeoutMS caps the request's work; only meaningful with Refine (a
	// twin answer completes in microseconds). Bounded as in
	// SimulateRequest.
	TimeoutMS float64 `json:"timeout_ms,omitempty"`
}

// EstimateDoc is the /v1/estimate response (schema mkss-estimate/v1)
// when Refine is false: the analytical twin's closed-form answer.
// Energies are estimates with committed per-scenario error bounds
// (results/twin_error_bounds.json); the schedulability verdict is exact
// (the same Theorem-1 test the simulator's runs report).
type EstimateDoc struct {
	Schema      string `json:"schema"`
	Fingerprint string `json:"fingerprint"`
	Backend     string `json:"backend"`
	Policy      string `json:"policy"`
	Scenario    string `json:"scenario"`
	Seed        uint64 `json:"seed"`
	HorizonUS   int64  `json:"horizon_us"`
	Schedulable bool   `json:"r_pattern_schedulable"`
	// ActiveEnergy/TotalEnergy are the twin's closed-form estimates of
	// the quantities a simulation run reports.
	ActiveEnergy float64 `json:"active_energy"`
	TotalEnergy  float64 `json:"total_energy"`
	// MKPredicted is the twin's (m,k)-satisfaction prediction: true iff
	// the set is R-pattern schedulable (Theorem 1 then guarantees the
	// (m,k)-deadlines under at most one permanent fault plus transients).
	MKPredicted bool `json:"mk_predicted"`
	// Exact reports whether the answer came from a real simulation (the
	// "sim" backend) rather than the closed-form twin.
	Exact bool `json:"exact"`
	// ElapsedUS is the server-side estimation time in microseconds.
	ElapsedUS int64 `json:"elapsed_us"`
}

// SweepRequest is the POST /v1/sweep body. The response is a chunked
// JSONL stream: one "start" line, one "row" line per utilization
// interval as it completes, and a terminal "done" (or "error") line.
// Hi may not exceed 1, where Figure 6's (m,k)-utilization axis ends.
type SweepRequest struct {
	Scenario        string   `json:"scenario,omitempty"`
	Seed            uint64   `json:"seed,omitempty"`
	SetsPerInterval int      `json:"sets_per_interval,omitempty"`
	MaxCandidates   int      `json:"max_candidates,omitempty"`
	Lo              float64  `json:"lo,omitempty"`
	Hi              float64  `json:"hi,omitempty"`
	Approaches      []string `json:"approaches,omitempty"`
	// TimeoutMS caps the sweep's work, bounded as in SimulateRequest.
	TimeoutMS float64 `json:"timeout_ms,omitempty"`
	// IntervalOffset shifts the per-interval seed derivation (see
	// experiment.Config.IntervalOffset): a request for the single
	// interval [lo, lo+0.1) with IntervalOffset i returns the row that
	// interval i of a whole sweep with the same seed would produce, bit
	// for bit. It is how the fleet coordinator shards one logical sweep
	// into per-interval work units across workers.
	IntervalOffset int `json:"interval_offset,omitempty"`
}

// SweepLine is one line of the /v1/sweep JSONL stream. Type is "start",
// "row", "done" or "error"; the other fields are populated per type.
type SweepLine struct {
	Type   string `json:"type"`
	Schema string `json:"schema,omitempty"` // start: SweepSchema
	// start fields
	Scenario  string `json:"scenario,omitempty"`
	Seed      uint64 `json:"seed,omitempty"`
	Intervals int    `json:"intervals,omitempty"`
	// row fields
	UtilLo     float64            `json:"util_lo,omitempty"`
	UtilHi     float64            `json:"util_hi,omitempty"`
	Sets       int                `json:"sets,omitempty"`
	Candidates int                `json:"candidates,omitempty"`
	NormMean   map[string]float64 `json:"norm_mean,omitempty"`
	NormCI95   map[string]float64 `json:"norm_ci95,omitempty"`
	Violations map[string]int     `json:"violations,omitempty"`
	// done/error fields
	ElapsedMS float64 `json:"elapsed_ms,omitempty"`
	Error     string  `json:"error,omitempty"`
}

// AnalyzeTask is one task's offline products in an AnalyzeDoc.
type AnalyzeTask struct {
	Name         string  `json:"name,omitempty"`
	PeriodUS     int64   `json:"period_us"`
	DeadlineUS   int64   `json:"deadline_us"`
	WCETUS       int64   `json:"wcet_us"`
	M            int     `json:"m"`
	K            int     `json:"k"`
	ResponseUS   int64   `json:"response_us"`
	RTAConverged bool    `json:"rta_converged"`
	PromotionUS  int64   `json:"promotion_us"`
	ThetaUS      *int64  `json:"theta_us,omitempty"`
	MKUtil       float64 `json:"mk_util"`
}

// AnalyzeDoc is the /v1/analyze response (schema mkss-analyze/v1): the
// memoized offline products for a task set, served from the session's
// analysis LRU — R-pattern schedulability, RTA response times and
// promotion intervals Yi (Eq. 2), and the θ postponement intervals of
// Defs. 2–5 when the analysis succeeds.
type AnalyzeDoc struct {
	Schema      string           `json:"schema"`
	Fingerprint string           `json:"fingerprint"`
	Utilization float64          `json:"utilization"`
	MKUtil      float64          `json:"mk_utilization"`
	Schedulable bool             `json:"r_pattern_schedulable"`
	Tasks       []AnalyzeTask    `json:"tasks"`
	ThetaError  string           `json:"theta_error,omitempty"`
	Cache       repro.CacheStats `json:"cache"`
}

// ErrorDoc is the uniform JSON error body of every 4xx/5xx response:
// a human-readable message plus a stable machine-readable code clients
// can branch on without parsing prose (the fleet coordinator classifies
// retryable vs permanent failures through it).
type ErrorDoc struct {
	Error string `json:"error"`
	Code  string `json:"code"`
}

// Error codes carried by ErrorDoc.Code. The code is a function of what
// went wrong, not merely of the HTTP status: both admission rejections
// are 429 but CodeQueueFull means "come back when a slot frees" while
// CodeRateLimited means "slow down".
const (
	CodeBadRequest       = "bad_request"
	CodeMethodNotAllowed = "method_not_allowed"
	CodeRateLimited      = "rate_limited"
	CodeQueueFull        = "queue_full"
	// CodeQuotaExceeded is the third 429 flavor: this tenant's own token
	// bucket is empty (the server as a whole may be idle) — back off for
	// the Retry-After the response carries.
	CodeQuotaExceeded = "quota_exceeded"
	CodeUnprocessable = "unprocessable"
	CodeUnavailable   = "unavailable"
	CodeDeadline      = "deadline"
	CodeInternal      = "internal"
	// CodeUnsupportedBackend is a 501: the requested estimate backend has
	// no model for the requested policy (e.g. the analytical twin asked
	// about MKSS-DBP). Permanent for that (backend, policy) pair — retry
	// with refine=true or another backend, not later.
	CodeUnsupportedBackend = "unsupported_backend"
)

// HealthDoc is the /healthz body: liveness plus the load gauges a fleet
// coordinator or autoscaler uses to pick and size workers. The P95MS,
// QuotaRejected and Store fields are additive (always safe to ignore).
type HealthDoc struct {
	Status   string `json:"status"`
	InFlight int64  `json:"inflight"`
	Queued   int64  `json:"queued"`
	// P95MS is the 95th-percentile latency of recent /v1/* requests in
	// milliseconds (0 until enough samples exist) — the autoscaler's
	// per-worker load signal alongside Queued.
	P95MS float64 `json:"p95_ms"`
	// QuotaRejected counts quota rejections per tenant; only tenants
	// that were actually rejected appear, at most 1,024 of them, and the
	// key "" counts the rest.
	QuotaRejected map[string]uint64 `json:"quota_rejected,omitempty"`
	// Store reports the persistent result store, when one is configured.
	Store *StoreStatsDoc `json:"store,omitempty"`
}

// StoreStatsDoc is the persistent result store's health snapshot
// (internal/store): lookup traffic plus on-disk shape.
type StoreStatsDoc struct {
	Hits             uint64 `json:"hits"`
	Misses           uint64 `json:"misses"`
	Writes           uint64 `json:"writes"`
	CorruptRecovered uint64 `json:"corrupt_recovered"`
	Segments         int    `json:"segments"`
	Keys             int    `json:"keys"`
	Superseded       int    `json:"superseded"`
	DiskBytes        int64  `json:"disk_bytes"`
}
