package policy

import (
	"fmt"
	"strings"

	"repro/internal/sim"
)

// Approach enumerates the schemes compared in Figure 6, plus the §III
// greedy straw-man and two extensions. The zero value is ST, and the
// order is the order of ApproachNames.
type Approach int

const (
	// ST is MKSS_ST: static R-pattern, main and backup copies of every
	// mandatory job run concurrently without procrastination — the
	// evaluation's energy reference (§V).
	ST Approach = iota
	// DP is MKSS_DP: static R-pattern with the dual-priority/preference-
	// oriented procrastination of Haque et al. [7] and Begam et al. [8]
	// (§III, Figure 1).
	DP
	// Greedy is the §III straw-man: dynamic (m,k) patterns with *all*
	// optional jobs executed greedily on the primary processor (Figure 3).
	Greedy
	// Selective is MKSS_selective, the paper's Algorithm 1: dynamic
	// patterns where only optional jobs with flexibility degree 1 are
	// selected, alternating between the processors, with backups
	// postponed by the offline release-postponement intervals θi (§IV).
	Selective
	// DPBackground is an extension beyond the paper: classic dual-
	// priority in which backups also execute in a background band
	// *before* their promotion instant, soaking up idle time. It
	// quantifies how much energy the ALAP-procrastination reading of the
	// DP baseline (which Figure 1's 15-unit schedule confirms) saves
	// over textbook dual-priority.
	DPBackground
	// DBP is distance-based priority, the canonical dynamic (m,k)
	// policy (Hamdaoui & Ramanathan; Goossens arXiv:0805.0200) the paper
	// never compares against: every job is prioritized by its distance
	// to failure, jobs one miss from violation are promoted to
	// standby-sparing mandatory pairs, and nothing is skipped outright.
	DBP

	numApproaches
)

// approaches is the one table of approach identities: row a holds a's
// canonical name — the name every report, flag and store key uses and
// every policy's Name returns — and its accepted aliases. Matching is
// case-insensitive (see ParseApproach).
var approaches = [numApproaches]struct {
	name    string
	aliases []string
}{
	ST:           {"MKSS-ST", []string{"st"}},
	DP:           {"MKSS-DP", []string{"dp"}},
	Greedy:       {"MKSS-greedy", []string{"greedy"}},
	Selective:    {"MKSS-selective", []string{"selective", "sel"}},
	DPBackground: {"MKSS-DP-background", []string{"dp-background", "dpbg"}},
	DBP:          {"MKSS-DBP", []string{"dbp", "distance"}},
}

// builders holds each approach's registered Builder. Registration runs
// from package inits (serialized by the runtime); lookups afterwards are
// read-only, so no lock is needed.
var builders [numApproaches]Builder

func (a Approach) valid() bool { return a >= 0 && a < numApproaches }

func (a Approach) String() string {
	if !a.valid() {
		return fmt.Sprintf("Approach(%d)", int(a))
	}
	return approaches[a].name
}

// MarshalText renders the canonical name, so Approach round-trips through
// JSON and flag values.
func (a Approach) MarshalText() ([]byte, error) {
	if !a.valid() {
		return nil, fmt.Errorf("core: unknown approach %d", int(a))
	}
	return []byte(approaches[a].name), nil
}

// UnmarshalText parses an approach name via ParseApproach.
func (a *Approach) UnmarshalText(text []byte) error {
	parsed, err := ParseApproach(string(text))
	if err != nil {
		return err
	}
	*a = parsed
	return nil
}

// ParseApproach maps a name — canonical, alias, or underscore variant, in
// any case — to its Approach. It is the inverse of String, and every cmd/
// flag parser and wire decoder goes through it.
func ParseApproach(s string) (Approach, error) {
	name := strings.ToLower(strings.TrimSpace(s))
	name = strings.ReplaceAll(name, "_", "-")
	for a, row := range approaches {
		if name == strings.ToLower(row.name) {
			return Approach(a), nil
		}
		for _, al := range row.aliases {
			if name == al {
				return Approach(a), nil
			}
		}
	}
	return 0, fmt.Errorf("core: unknown approach %q (want one of %s)", s, strings.Join(ApproachNames(), ", "))
}

// ApproachNames lists the canonical approach names in table order, for
// flag usage strings and error messages.
func ApproachNames() []string {
	out := make([]string, numApproaches)
	for a, row := range approaches {
		out[a] = row.name
	}
	return out
}

// Approaches lists the paper's approaches in presentation order.
func Approaches() []Approach { return []Approach{ST, DP, Greedy, Selective} }

// Extensions lists the approaches this repository adds beyond the paper.
func Extensions() []Approach { return []Approach{DPBackground, DBP} }

// Register installs the builder of approach a. It panics on an approach
// outside the table, a nil builder or a second registration — all
// programmer errors caught at process start by any test that imports the
// implementation packages.
func Register(a Approach, build Builder) {
	if !a.valid() || build == nil {
		panic(fmt.Sprintf("policy: Register(%v) with an unknown approach or a nil builder", a))
	}
	if builders[a] != nil {
		panic(fmt.Sprintf("policy: duplicate registration of %v", a))
	}
	builders[a] = build
}

// New builds approach a's policy. The FDThreshold default is applied
// here so every construction path sees the paper's value.
func New(a Approach, opts Options) (sim.Policy, error) {
	if !a.valid() {
		return nil, fmt.Errorf("core: unknown approach %d", int(a))
	}
	build := builders[a]
	if build == nil {
		return nil, fmt.Errorf("policy: %v is not registered", a)
	}
	if opts.FDThreshold == 0 {
		opts.FDThreshold = 1
	}
	return build(opts), nil
}
