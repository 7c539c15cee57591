// Package analysis memoizes the offline products a task set needs before
// simulation: the static (m,k) pattern table (Eq. 1), the RTA response
// times Ri and promotion intervals Yi = Di − Ri (Eq. 2), the θ
// postponement analysis (Defs. 2–5), and the R-pattern schedulability
// verdict of Theorem 1. All of these depend only on the task set and the
// analysis options — not on the fault scenario, power model, or horizon —
// so a sweep that simulates the same set under several approaches and
// scenarios needs each product at most once.
//
// A Products value computes everything lazily (a run of MKSS-ST never
// pays for the θ analysis) and exactly once, and is safe for concurrent
// use by multiple sweep workers. Cache keys Products by a canonical
// fingerprint of the set, so regenerated-but-identical sets (the workload
// generator is deterministic per seed) share one computation.
package analysis

import (
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/pattern"
	"repro/internal/postpone"
	"repro/internal/rta"
	"repro/internal/task"
	"repro/internal/timeu"
)

// Options selects the analysis variant. Two sets with equal fingerprints
// but different Options are distinct cache entries.
type Options struct {
	// Pattern is the static mandatory/optional partition; the paper uses
	// the R-pattern.
	Pattern pattern.Kind
	// HyperperiodCap bounds the θ analysis and the Theorem-1 test horizon.
	// Zero means postpone.DefaultHyperperiodCap.
	HyperperiodCap timeu.Time
}

// cap returns the effective hyperperiod cap.
func (o Options) cap() timeu.Time {
	if o.HyperperiodCap <= 0 {
		return postpone.DefaultHyperperiodCap
	}
	return o.HyperperiodCap
}

// key renders the options half of a cache key.
func (o Options) key() string {
	return strconv.Itoa(int(o.Pattern)) + "/" + strconv.FormatInt(int64(o.cap()), 10)
}

// Fingerprint returns a canonical, collision-free identifier for the
// simulation-relevant content of s: the ordered list of each task's
// period, deadline, WCET, (m,k) parameters and offset. Task names are
// excluded — they never influence scheduling. Two sets fingerprint
// equally iff a simulation cannot tell them apart.
func Fingerprint(s *task.Set) string {
	var b strings.Builder
	b.Grow(32 * s.N())
	for i := range s.Tasks {
		t := &s.Tasks[i]
		if i > 0 {
			b.WriteByte('|')
		}
		writeTime(&b, t.Period)
		b.WriteByte(':')
		writeTime(&b, t.Deadline)
		b.WriteByte(':')
		writeTime(&b, t.WCET)
		b.WriteByte(':')
		b.WriteString(strconv.Itoa(t.M))
		b.WriteByte(':')
		b.WriteString(strconv.Itoa(t.K))
		b.WriteByte(':')
		writeTime(&b, t.Offset)
	}
	return b.String()
}

func writeTime(b *strings.Builder, t timeu.Time) {
	b.WriteString(strconv.FormatInt(int64(t), 10))
}

// Products holds the lazily computed offline analyses of one task set.
// Every accessor computes its product on first use (guarded by a
// sync.Once, so concurrent workers wait rather than duplicate work) and
// returns shared read-only values afterwards: callers must not mutate the
// returned slices or the postponement Analysis.
type Products struct {
	set  *task.Set
	opts Options

	respOnce  sync.Once
	resp      []timeu.Time
	converged []bool

	promoOnce sync.Once
	promo     []timeu.Time

	postOnce sync.Once
	post     *postpone.Analysis
	postErr  error

	mandOnce  sync.Once
	mandReady atomic.Bool
	mand      [][]bool

	schedOnce   sync.Once
	schedulable bool

	profOnce sync.Once
	prof     rta.Profile

	dbpOnce sync.Once
	dbpV    rta.DBPVerdict
	dbpErr  error
}

// New builds the Products for s without caching. The set is retained by
// reference and must not be mutated afterwards.
func New(s *task.Set, opts Options) *Products {
	return &Products{set: s, opts: opts}
}

// Set returns the task set the products were derived from.
func (p *Products) Set() *task.Set { return p.set }

// Options returns the analysis options the products were derived with.
func (p *Products) Options() Options { return p.opts }

// ResponseTimes returns the memoized RTA response times (with the
// divergence fallback of rta.ResponseTimesSafe) and per-task convergence
// flags. The returned slices are shared; do not mutate.
func (p *Products) ResponseTimes() ([]timeu.Time, []bool) {
	p.respOnce.Do(func() {
		p.resp, p.converged = rta.ResponseTimesSafe(p.set)
	})
	return p.resp, p.converged
}

// PromotionTimes returns the memoized promotion intervals Yi = Di − Ri
// (Eq. 2, with the Y=0 divergence fallback of rta.PromotionTimesSafe).
// The returned slice is shared; do not mutate.
func (p *Products) PromotionTimes() []timeu.Time {
	p.promoOnce.Do(func() {
		rs, conv := p.ResponseTimes()
		p.promo = rta.PromotionFromResponse(p.set, rs, conv)
	})
	return p.promo
}

// Postponement returns the memoized θ analysis (Defs. 2–5), feeding the
// already-computed promotion intervals into postpone.Compute. The
// returned Analysis is shared; do not mutate.
func (p *Products) Postponement() (*postpone.Analysis, error) {
	p.postOnce.Do(func() {
		p.post, p.postErr = postpone.Compute(p.set, postpone.Options{
			Pattern:        p.opts.Pattern,
			HyperperiodCap: p.opts.HyperperiodCap,
			Promotion:      p.PromotionTimes(),
		})
	})
	return p.post, p.postErr
}

// Mandatory reports whether job index (1-based) of task taskID is
// mandatory under the static pattern, via a memoized k-periodic table
// instead of re-evaluating pattern.Mandatory per release.
func (p *Products) Mandatory(taskID, index int) bool {
	// The engine asks this per release, so the fast path must not
	// allocate: a sync.Once closure here would be rebuilt on every call.
	// The atomic flag is published after the table is complete, so a true
	// load guarantees the table below is visible.
	if !p.mandReady.Load() {
		p.buildMandatory()
	}
	row := p.mand[taskID]
	return row[(index-1)%len(row)]
}

// buildMandatory is Mandatory's cold path, entered at most once per
// caller before the ready flag flips.
func (p *Products) buildMandatory() {
	p.mandOnce.Do(func() { //mklint:allow hotpath — once-per-Products cold path; Mandatory's per-release fast path is the atomic load above
		mand := make([][]bool, p.set.N())
		for i := range p.set.Tasks {
			t := &p.set.Tasks[i]
			row := make([]bool, t.K)
			for j := 1; j <= t.K; j++ {
				row[j-1] = pattern.Mandatory(p.opts.Pattern, j, t.M, t.K)
			}
			mand[i] = row
		}
		p.mand = mand
		p.mandReady.Store(true)
	})
}

// Schedulable reports the memoized Theorem-1 verdict: whether the
// mandatory jobs under the static pattern are FP-schedulable over the
// (m,k)-hyperperiod (capped at the options' hyperperiod cap).
func (p *Products) Schedulable() bool {
	p.schedOnce.Do(func() {
		p.schedulable = rta.SchedulableRPattern(p.set, p.opts.Pattern, p.opts.cap())
	})
	return p.schedulable
}

// MandatoryProfile returns the memoized recording walk over the
// Theorem-1 mandatory-only schedule (rta.MandatoryProfile over the
// (m,k)-hyperperiod, saturated at the options' cap): aggregate busy
// time, idle-gap lengths, per-task job counts and worst responses. The
// analytical twin (internal/estimate) composes its closed-form energy
// model from these pieces; memoizing them here means an estimate-heavy
// serving workload pays for the walk once per distinct set, exactly
// like the other offline products. The returned Profile shares its
// slices; do not mutate.
func (p *Products) MandatoryProfile() rta.Profile {
	p.profOnce.Do(func() {
		p.prof = rta.MandatoryProfile(p.set, p.opts.Pattern, p.opts.cap())
	})
	return p.prof
}

// DBPExact returns the memoized exact DBP schedulability verdict
// (rta.DBPExact): the fault-free standby-sparing DBP walk from the fresh
// all-effective start, with backups postponed by the θ analysis. The θ
// computation can fail (divergent RTA, unschedulable mandatory set), in
// which case the error is returned exactly as the MKSS-DBP policy's Init
// would report it. Like the other products the verdict depends only on
// the set and options, so a sweep evaluating the same set under several
// initial k-sequences should call rta.DBPExact directly with its own
// DBPConfig.Init instead.
func (p *Products) DBPExact() (rta.DBPVerdict, error) {
	p.dbpOnce.Do(func() {
		an, err := p.Postponement()
		if err != nil {
			p.dbpErr = err
			return
		}
		p.dbpV = rta.DBPExact(p.set, rta.DBPConfig{Theta: an.Theta, Cap: p.opts.cap()})
	})
	return p.dbpV, p.dbpErr
}
