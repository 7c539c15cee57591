package lint

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/lint/callgraph"
)

// This file holds the whole-program facts the cross-function analyzers
// (hotpath, goleak, locks) share: the module call graph, the transitive
// hot set seeded from //mklint:hotpath tags, and per-function blocking
// facts. Everything is computed lazily on first use and cached on the
// Program, so a run restricted to purely syntactic rules never pays for
// graph construction.

// CallGraph returns the module's CHA call graph, built on first use.
func (prog *Program) CallGraph() *callgraph.Graph {
	if prog.cg == nil {
		pkgs := make([]*callgraph.Package, 0, len(prog.Packages))
		prog.cgPkg = make(map[*callgraph.Package]*Package, len(prog.Packages))
		for _, p := range prog.Packages {
			files := make([]*ast.File, len(p.Files))
			for i, f := range p.Files {
				files[i] = f.Ast
			}
			cp := &callgraph.Package{Types: p.Types, Info: p.Info, Files: files}
			pkgs = append(pkgs, cp)
			prog.cgPkg[cp] = p
		}
		prog.cg = callgraph.Build(pkgs)
	}
	return prog.cg
}

// LintPackage maps a call-graph node back to the lint Package that
// declares it.
func (prog *Program) LintPackage(n *callgraph.Node) *Package {
	prog.CallGraph()
	return prog.cgPkg[n.Pkg]
}

// FuncObj resolves a function declaration to its canonical *types.Func.
func (pkg *Package) FuncObj(decl *ast.FuncDecl) *types.Func {
	fn, _ := pkg.Info.Defs[decl.Name].(*types.Func)
	return fn
}

// hotTagged returns the set of //mklint:hotpath-tagged functions across
// the whole module, keyed by their canonical objects.
func (prog *Program) hotTagged() map[*types.Func]bool {
	if prog.hotFuncs == nil {
		prog.hotFuncs = make(map[*types.Func]bool)
		for _, pkg := range prog.Packages {
			// Only the hotpath tags count here: checking allows and
			// reporting malformed directives is Run's job.
			dirs := parseDirectives(prog, pkg, nil, func(string, token.Pos, string) {})
			for decl := range hotpathDecls(pkg, dirs) {
				if fn := pkg.FuncObj(decl); fn != nil {
					prog.hotFuncs[fn] = true
				}
			}
		}
	}
	return prog.hotFuncs
}

// HotReach returns the forward reachability sweep of the call graph
// from every //mklint:hotpath-tagged root: the transitive hot set the
// hotpath rule enforces, with shortest call chains for diagnostics.
func (prog *Program) HotReach() *callgraph.ReachResult {
	if prog.hotReach == nil {
		g := prog.CallGraph()
		var roots []*callgraph.Node
		for fn := range prog.hotTagged() {
			if n := g.Node(fn); n != nil {
				roots = append(roots, n)
			}
		}
		prog.hotReach = g.Reach(roots)
	}
	return prog.hotReach
}

// blockFact records why a function blocks: the position of the first
// directly blocking operation in its body and a short description of it.
type blockFact struct {
	pos  token.Pos
	what string
}

// blockingFacts computes, per call-graph node, whether the function's
// own body contains a directly blocking operation: a channel send or
// receive, a select without a default clause, a range over a channel,
// time.Sleep, (*sync.WaitGroup).Wait, (*sync.Cond).Wait, or a call into
// net/http (a network round trip). Code inside nested go statements is
// excluded — a spawned goroutine blocking does not block the spawner.
func (prog *Program) blockingFacts() map[*callgraph.Node]*blockFact {
	if prog.blockFacts != nil {
		return prog.blockFacts
	}
	prog.blockFacts = make(map[*callgraph.Node]*blockFact)
	g := prog.CallGraph()
	for _, n := range g.Nodes() {
		if n.Decl == nil || n.Decl.Body == nil {
			continue
		}
		pkg := prog.LintPackage(n)
		if pkg == nil {
			continue
		}
		if f := directBlock(pkg, n.Decl.Body); f != nil {
			prog.blockFacts[n] = f
		}
	}
	return prog.blockFacts
}

// directBlock scans one function body for its first directly blocking
// operation.
func directBlock(pkg *Package, body ast.Node) *blockFact {
	var found *blockFact
	ast.Inspect(body, func(n ast.Node) bool {
		if found != nil {
			return false
		}
		switch n := n.(type) {
		case *ast.GoStmt:
			return false // the goroutine blocks, not this function
		case *ast.SendStmt:
			found = &blockFact{pos: n.Pos(), what: "channel send"}
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				found = &blockFact{pos: n.Pos(), what: "channel receive"}
			}
		case *ast.RangeStmt:
			if t := pkg.Info.TypeOf(n.X); t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok {
					found = &blockFact{pos: n.Pos(), what: "range over channel"}
				}
			}
		case *ast.SelectStmt:
			if selectHasDefault(n) {
				return true // non-blocking poll
			}
			found = &blockFact{pos: n.Pos(), what: "select"}
		case *ast.CallExpr:
			if what, ok := blockingStdCall(pkg, n); ok {
				found = &blockFact{pos: n.Pos(), what: what}
			}
		}
		return found == nil
	})
	return found
}

func selectHasDefault(sel *ast.SelectStmt) bool {
	for _, c := range sel.Body.List {
		if comm, ok := c.(*ast.CommClause); ok && comm.Comm == nil {
			return true
		}
	}
	return false
}

// blockingStdCall recognizes the standard-library calls the locks rule
// treats as blocking: time.Sleep, WaitGroup.Wait, Cond.Wait, and
// anything in net/http (a network round trip).
func blockingStdCall(pkg *Package, call *ast.CallExpr) (string, bool) {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return "", false
	}
	fn, ok := pkg.Info.Uses[id].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return "", false
	}
	switch fn.Pkg().Path() {
	case "time":
		if fn.Name() == "Sleep" {
			return "time.Sleep", true
		}
	case "sync":
		if fn.Name() == "Wait" {
			return "sync." + recvTypeName(fn) + ".Wait", true
		}
	case "net/http":
		return "net/http." + fn.Name() + " network call", true
	}
	return "", false
}

// recvTypeName names a method's receiver type ("WaitGroup", "Cond").
func recvTypeName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}

// blocksWithin answers the locks rule's transitive question: starting
// from fn, is a directly blocking operation reachable within maxDepth
// call-graph hops? It returns the call chain (fn → … → blocker) and the
// blocking fact, or ok=false. The search is breadth-first, so the
// reported chain is a shortest one.
func (prog *Program) blocksWithin(fn *types.Func, maxDepth int) (chain []string, fact *blockFact, ok bool) {
	g := prog.CallGraph()
	start := g.Node(fn)
	if start == nil {
		return nil, nil, false
	}
	facts := prog.blockingFacts()
	type item struct {
		n     *callgraph.Node
		depth int
	}
	from := map[*callgraph.Node]*callgraph.Node{start: nil}
	queue := []item{{start, 0}}
	for len(queue) > 0 {
		it := queue[0]
		queue = queue[1:]
		if f, found := facts[it.n]; found {
			var rev []*callgraph.Node
			for cur := it.n; cur != nil; cur = from[cur] {
				rev = append(rev, cur)
			}
			for i := len(rev) - 1; i >= 0; i-- {
				chain = append(chain, rev[i].Name())
			}
			return chain, f, true
		}
		if it.depth == maxDepth {
			continue
		}
		for _, e := range it.n.Out {
			if e.Go {
				continue // spawned work does not block the caller
			}
			if _, seen := from[e.Callee]; seen {
				continue
			}
			from[e.Callee] = it.n
			queue = append(queue, item{e.Callee, it.depth + 1})
		}
	}
	return nil, nil, false
}
