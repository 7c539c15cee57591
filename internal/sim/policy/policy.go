// Package policy is the plug-in layer between the simulation kernel and
// the concrete scheduling schemes. The engine (internal/sim) owns time,
// processors, energy and settlement; everything approach-specific — which
// job copy goes where, in which priority band, when backups become
// eligible — lives in a sim.Policy implementation registered here by
// name.
//
// Implementations live in sub-packages (static, dynamic, dbp) and
// register themselves from init, so adding a scheme never touches the
// kernel: a new policy package imports sim and this registry, calls
// Register, and becomes selectable by name from every cmd/ binary. The
// one-way dependency (policy packages import sim, never the reverse) is
// enforced by the depdag lint table.
package policy

import (
	"fmt"
	"sort"
	"strings"

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
	// simulated; repro.Runner guarantees both.
	Offline *analysis.Products
}

// Builder constructs one policy instance from options. Builders must be
// cheap: per-set analysis belongs in the policy's Init, where the engine
// and its memoized offline products are available.
type Builder func(Options) sim.Policy

// registry maps lower-cased policy names to builders; names keeps the
// canonical spellings in registration order so listings never iterate
// the map. Registration runs from package inits (serialized by the
// runtime); lookups afterwards are read-only, so no lock is needed.
var (
	registry = map[string]Builder{}
	names    []string
)

// Register adds a policy under its canonical name. It panics on a
// duplicate or empty registration — both are programmer errors caught at
// process start by any test that imports the implementation packages.
func Register(name string, build Builder) {
	if name == "" || build == nil {
		panic("policy: Register with empty name or nil builder")
	}
	key := strings.ToLower(name)
	if _, dup := registry[key]; dup {
		panic(fmt.Sprintf("policy: duplicate registration of %q", name))
	}
	registry[key] = build
	names = append(names, name)
}

// New builds the named policy (case-insensitive). The FDThreshold default
// is applied here so every construction path sees the paper's value.
func New(name string, opts Options) (sim.Policy, error) {
	if opts.FDThreshold == 0 {
		opts.FDThreshold = 1
	}
	build, ok := registry[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("policy: unknown policy %q (registered: %s)", name, strings.Join(Names(), ", "))
	}
	return build(opts), nil
}

// Names lists the registered canonical names, sorted.
func Names() []string {
	out := append([]string(nil), names...)
	sort.Strings(out)
	return out
}

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

// StaticMandatory applies the static pattern classification shared by the
// ST and DP baselines, via the memoized table when offline products are
// attached. Both arguments are read through pointers so the per-release
// call copies neither the options nor the task.
func StaticMandatory(opts *Options, t *task.Task, index int) bool {
	if opts.Offline != nil {
		return opts.Offline.Mandatory(t.ID, index)
	}
	return pattern.Mandatory(opts.Pattern, index, t.M, t.K)
}
