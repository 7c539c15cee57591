package lint

import (
	"strconv"
	"strings"
)

const ruleDepDag = "depdag"

// Depdag enforces the module's package DAG from a declarative layer
// table instead of ad-hoc forbidden-import pairs. Every package maps
// (by longest path prefix) to a numbered layer; an import is legal when
// the importer's layer is strictly above the importee's, or when both
// sides fall under the same table entry (a package importing its own
// subpackages, e.g. internal/lint → internal/lint/callgraph). On top of
// the ranks, explicit deny edges carve out imports the numbers alone
// would allow — the wire schema package sits high in the DAG because
// out-of-process clients consume it, yet it must never link the engine.
//
// Packages under internal/ that are missing from the table are reported:
// a new package must take a position in the DAG before it ships.
var Depdag = &Analyzer{
	Name: ruleDepDag,
	Doc:  "package-DAG layering from a declarative table: lower layers never import higher ones; explicit deny edges for schema purity",
	Run:  runDepdag,
}

// depLayer is one row of the DAG table: every package whose
// module-relative path is under prefix sits at the given rank.
type depLayer struct {
	prefix string // module-relative dir prefix ("" = the root package only)
	rank   int
	note   string // short human name for diagnostics
}

// depLayers is the module's layer table, highest layers importing
// downward. Same-rank entries are peers: neither may import the other.
// internal/sim/policy has its own entry above the engine: policy
// packages import the sim kernel (and the memoized analysis products),
// never the reverse — the deny edge below names the rule explicitly.
var depLayers = []depLayer{
	{"internal/timeu", 10, "time utils"},
	{"internal/stats", 10, "statistics"},
	{"internal/pattern", 10, "(m,k) patterns"},
	{"internal/task", 20, "task model"},
	{"internal/fault", 20, "fault model"},
	{"internal/metrics", 20, "metrics"},
	{"internal/rta", 30, "response-time analysis"},
	{"internal/postpone", 35, "postponement policies"},
	{"internal/workload", 40, "workload generation"},
	{"internal/sim", 40, "simulation engine"},
	{"internal/trace", 45, "trace capture"},
	{"internal/analysis", 45, "cached analysis"},
	{"internal/sim/policy", 48, "scheduling policies"},
	{"internal/core", 50, "benchmark shim"},
	{"internal/experiment", 60, "experiment harness"},
	{"", 70, "public repro API"},
	{"internal/estimate", 75, "analytical estimator"},
	{"internal/serve/wire", 75, "HTTP/JSON schema"},
	{"internal/store", 75, "persistent result store"},
	{"internal/serve/client", 78, "HTTP client"},
	{"internal/serve", 80, "HTTP server"},
	{"internal/fleet", 85, "fleet orchestration"},
	{"internal/lint", 90, "static analysis"},
	{"cmd", 100, "binaries"},
	{"examples", 100, "examples"},
}

// depDeny is one explicit deny edge: packages under from must not import
// packages under to, regardless of rank, unless the importee is under
// except or the importer is under exceptFrom.
type depDeny struct {
	from string
	to   string // "" denies every module-internal import
	// except exempts importees; exceptFrom exempts importers (it carves a
	// subtree out of from — e.g. the policy packages under internal/sim
	// are not the kernel the sim→policy edge protects).
	except     string // "" = no exception
	exceptFrom string // "" = no exception
	why        string
}

var depDenies = []depDeny{
	{
		from: "internal/sim", exceptFrom: "internal/sim/policy", to: "internal/sim/policy",
		why: "the engine kernel must not know concrete policies; register new policies from internal/sim/policy sub-packages instead",
	},
	{
		from: "internal/serve/wire", to: "internal/sim",
		why: "wire is a pure schema package; translate engine types in internal/serve instead",
	},
	{
		from: "internal/serve/wire", to: "internal/core",
		why: "wire is a pure schema package; translate engine types in internal/serve instead",
	},
	{
		from: "internal/serve/wire", to: "internal/experiment",
		why: "wire is a pure schema package; translate engine types in internal/serve instead",
	},
	{
		from: "internal/serve/client", to: "internal/sim",
		why: "the out-of-process client must not link the engine",
	},
	{
		from: "internal/serve/client", to: "internal/core",
		why: "the out-of-process client must not link the engine",
	},
	{
		from: "internal/serve/client", to: "internal/experiment",
		why: "the out-of-process client must not link the engine",
	},
	{
		from: "internal/store", to: "internal/sim",
		why: "the store is a durability layer keyed on opaque bytes; it must not know the engine that produced them",
	},
	{
		from: "internal/store", to: "internal/core",
		why: "the store is a durability layer keyed on opaque bytes; it must not know the engine that produced them",
	},
	{
		from: "internal/store", to: "internal/experiment",
		why: "the store is a durability layer keyed on opaque bytes; it must not know the engine that produced them",
	},
	{
		from: "internal/lint", to: "", except: "internal/lint",
		why: "lint stays stdlib-only (plus its own callgraph) so it can load the module without importing what it analyzes",
	},
}

// layerOf resolves a module-relative package path to its longest-prefix
// table entry, or nil if uncovered.
func layerOf(rel string) *depLayer {
	var best *depLayer
	for i := range depLayers {
		l := &depLayers[i]
		if l.prefix == "" {
			if rel == "" && best == nil {
				best = l
			}
			continue
		}
		if underPath(rel, l.prefix) {
			if best == nil || len(l.prefix) > len(best.prefix) {
				best = l
			}
		}
	}
	return best
}

func runDepdag(p *Pass) {
	fromRel := p.Pkg.Rel
	fromLayer := layerOf(fromRel)
	if fromLayer == nil && strings.HasPrefix(fromRel, "internal/") {
		if len(p.Pkg.Files) > 0 {
			p.Reportf(ruleDepDag, p.Pkg.Files[0].Ast.Package,
				"package %s is not in the depdag layer table — add it to depLayers in internal/lint/depdag.go so its position in the DAG is explicit", fromRel)
		}
		return
	}
	module := p.Prog.Module
	for _, f := range p.Pkg.Files {
		for _, imp := range f.Ast.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			var toRel string
			if path == module {
				toRel = ""
			} else if rel, ok := strings.CutPrefix(path, module+"/"); ok {
				toRel = rel
			} else {
				continue // stdlib
			}
			for _, d := range depDenies {
				if !underPath(fromRel, d.from) {
					continue
				}
				if d.exceptFrom != "" && underPath(fromRel, d.exceptFrom) {
					continue
				}
				if d.to != "" && !underPath(toRel, d.to) {
					continue
				}
				if d.except != "" && underPath(toRel, d.except) {
					continue
				}
				p.Reportf(ruleDepDag, imp.Pos(),
					"%s must not import %s — %s", d.from, path, d.why)
			}
			toLayer := layerOf(toRel)
			if toLayer == nil {
				if strings.HasPrefix(toRel, "internal/") {
					p.Reportf(ruleDepDag, imp.Pos(),
						"import of %s, which is not in the depdag layer table — add it to depLayers in internal/lint/depdag.go", path)
				}
				continue
			}
			if fromLayer == nil {
				continue // importer outside the table (non-internal, e.g. scripts)
			}
			if fromLayer == toLayer {
				continue // a package importing its own subtree
			}
			if fromLayer.rank <= toLayer.rank {
				p.Reportf(ruleDepDag, imp.Pos(),
					"import violates the package DAG: %s (layer %d, %s) must not import %s (layer %d, %s); dependencies only point from higher layers to lower ones",
					fromRel, fromLayer.rank, fromLayer.note, toRel, toLayer.rank, toLayer.note)
			}
		}
	}
}

// underPath reports whether rel equals prefix or sits beneath it.
func underPath(rel, prefix string) bool {
	return rel == prefix || strings.HasPrefix(rel, prefix+"/")
}
