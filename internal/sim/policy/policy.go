// Package policy is the plug-in layer between the simulation kernel and
// the concrete scheduling schemes. The engine (internal/sim) owns time,
// processors, energy, the permanent fault and settlement; everything
// approach-specific — which job copy goes where, in which priority band,
// when backups become eligible — lives in a sim.Policy implementation
// registered here under its Approach.
//
// The Approach table (approach.go) is the one place an approach is named:
// its canonical name, its aliases and its position in every listing.
// Implementations live in sub-packages (static, dynamic, dbp) and
// register themselves from init, so adding a scheme is one table row plus
// one Register call from a new package, and never touches the kernel. The
// one-way dependency (policy packages import sim, never the reverse) is
// enforced by the depdag lint table.
package policy

import (
	"repro/internal/analysis"
	"repro/internal/pattern"
	"repro/internal/sim"
	"repro/internal/task"
	"repro/internal/timeu"
)

// Options tunes policy construction; the zero value reproduces the paper.
type Options struct {
	// Pattern is the static partition used by ST/DP and for the θ
	// analysis; the paper uses the R-pattern.
	Pattern pattern.Kind
	// HyperperiodCap bounds the θ analysis (see postpone.Options).
	HyperperiodCap timeu.Time
	// NoAlternation disables the selective scheme's primary/spare
	// alternation of eligible optional jobs (ablation: everything goes to
	// the primary's OJQ).
	NoAlternation bool
	// FDThreshold is the flexibility-degree eligibility threshold of the
	// selective scheme; optional jobs with 1 <= FD <= FDThreshold are
	// selected. Zero means the paper's value, 1. (Ablation knob.)
	FDThreshold int
	// UsePromotionForTheta makes the selective scheme postpone backups by
	// Yi instead of θi (ablation: isolates the benefit of Defs. 2–5).
	UsePromotionForTheta bool
	// Offline, when non-nil, supplies memoized offline analyses (promotion
	// intervals, θ, pattern tables) for the set under simulation, so
	// repeated runs of the same set skip the per-Init recomputation. The
	// products must have been derived with the same Pattern and
	// HyperperiodCap, from a set fingerprint-identical to the one
	// simulated; repro.Runner guarantees both. Nil means each run derives
	// its own (see Offline): every policy reads its analyses from one
	// analysis.Products either way.
	Offline *analysis.Products
}

// Builder constructs one policy instance from options. Builders must be
// cheap: per-set analysis belongs in the policy's Init, where the engine
// and its memoized offline products are available.
type Builder func(Options) sim.Policy

// FPLess is plain fixed-priority ordering: lower task index first, then
// earlier job, then mains before backups (the last tie can only occur
// after a permanent fault migrates both copies onto one processor).
func FPLess(a, b *task.Job) bool {
	if a.TaskID != b.TaskID {
		return a.TaskID < b.TaskID
	}
	if a.Index != b.Index {
		return a.Index < b.Index
	}
	return a.Copy == task.Main && b.Copy == task.Backup
}

// Histories builds one fresh (all-effective) outcome window per task of a
// set; used by the dynamic policies.
func Histories(s *task.Set) []*pattern.History {
	hs := make([]*pattern.History, s.N())
	for i, t := range s.Tasks {
		hs[i] = pattern.NewHistory(t.M, t.K)
	}
	return hs
}

// Offline returns the offline analyses of set s a policy reads: the
// caller's opts.Offline when set, else fresh products derived with opts'
// Pattern and HyperperiodCap, each computed on first use. Policies call
// it once, from Init.
func Offline(s *task.Set, opts Options) *analysis.Products {
	if opts.Offline != nil {
		return opts.Offline
	}
	return analysis.New(s, analysis.Options{Pattern: opts.Pattern, HyperperiodCap: opts.HyperperiodCap})
}
