// Package callgraph builds a whole-program, CHA-style call graph over a
// type-checked module, using nothing beyond go/ast and go/types. It is
// the substrate of internal/lint's whole-program analyzers: hotpath
// walks it forward from //mklint:hotpath roots, and locks consults the
// per-node blocking facts it derives.
//
// The construction is Class Hierarchy Analysis: a static call resolves
// to its one callee; a call through an interface method resolves to the
// matching method of every in-module named type that implements the
// interface. That over-approximates dynamic dispatch (every implementer
// is assumed callable), which is the right polarity for linting —
// reachability never under-reports. Calls through plain function values
// (fields, parameters, variables of function type) are not resolved;
// analyzers that care (hotpath) tag the functions behind such seams
// explicitly instead.
package callgraph

import (
	"go/ast"
	"go/types"
	"sort"
)

// Package is one type-checked package handed to Build — the minimal
// slice of a loader's output the graph needs.
type Package struct {
	Types *types.Package
	Info  *types.Info
	Files []*ast.File
}

// EdgeKind distinguishes how a call site was resolved.
type EdgeKind int

const (
	// KindStatic is a direct call of a package function or a method on
	// a concrete receiver.
	KindStatic EdgeKind = iota
	// KindInterface is a CHA-resolved interface method call: one edge
	// per in-module implementer.
	KindInterface
)

// Edge is one resolved call: Caller invokes Callee at Site.
type Edge struct {
	Caller *Node
	Callee *Node
	Site   *ast.CallExpr
	Kind   EdgeKind
	// Go marks a call spawned by a go statement.
	Go bool
}

// Node is one function of the module. Funcs without a body in the
// module (declared but external, or interface method stubs) still get a
// node so edges have somewhere to land, but their Decl is nil.
type Node struct {
	Func *types.Func
	// Decl is the defining declaration, nil for body-less functions.
	Decl *ast.FuncDecl
	// Pkg is the package the function is declared in.
	Pkg *Package
	Out []*Edge
	In  []*Edge
}

// Name returns a compact human form: "pkg.Func" or "pkg.(Recv).Method".
func (n *Node) Name() string {
	fn := n.Func
	pkg := ""
	if fn.Pkg() != nil {
		pkg = fn.Pkg().Name() + "."
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		recv := sig.Recv().Type()
		if p, ok := recv.(*types.Pointer); ok {
			recv = p.Elem()
		}
		if named, ok := recv.(*types.Named); ok {
			return pkg + named.Obj().Name() + "." + fn.Name()
		}
	}
	return pkg + fn.Name()
}

// Graph is the module call graph. Nodes are keyed by *types.Func
// identity (the canonical object go/types assigns each declaration).
type Graph struct {
	nodes map[*types.Func]*Node
	// methodIndex maps a method name to the concrete in-module methods
	// bearing it — the CHA candidate pool.
	methodIndex map[string][]*Node
}

// Node returns the graph node for fn, or nil if fn is not a module
// function.
func (g *Graph) Node(fn *types.Func) *Node { return g.nodes[fn] }

// Nodes returns every node in deterministic (position) order.
func (g *Graph) Nodes() []*Node {
	out := make([]*Node, 0, len(g.nodes))
	for _, n := range g.nodes {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Func.Pos() < out[j].Func.Pos() })
	return out
}

// Build constructs the call graph of the given packages. Every FuncDecl
// (including methods) becomes a node; edges are added for static calls,
// go/defer statements, and CHA-resolved interface method calls whose
// implementers are in-module.
func Build(pkgs []*Package) *Graph {
	g := &Graph{
		nodes:       make(map[*types.Func]*Node),
		methodIndex: make(map[string][]*Node),
	}
	// Pass 1: nodes for every declared function.
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				n := &Node{Func: fn, Decl: fd, Pkg: pkg}
				g.nodes[fn] = n
				if fd.Recv != nil {
					g.methodIndex[fn.Name()] = append(g.methodIndex[fn.Name()], n)
				}
			}
		}
	}
	// Pass 2: edges from every call site inside a declared body.
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				caller := g.nodes[pkg.Info.Defs[fd.Name].(*types.Func)]
				g.addCallEdges(caller, fd.Body, pkg)
			}
		}
	}
	return g
}

// addCallEdges walks body (which includes any nested function literals —
// a literal's calls are attributed to the declaring function, the
// closest named owner a diagnostic can point at) and records edges.
func (g *Graph) addCallEdges(caller *Node, body ast.Node, pkg *Package) {
	ast.Inspect(body, func(n ast.Node) bool {
		var call *ast.CallExpr
		inGo := false
		switch n := n.(type) {
		case *ast.CallExpr:
			call = n
		case *ast.GoStmt:
			call = n.Call
			inGo = true
		default:
			return true
		}
		if inGo {
			// The CallExpr child will be visited again by Inspect; mark
			// the go-ness here and skip the duplicate plain visit by
			// recording now and pruning below.
			g.resolveCall(caller, call, pkg, true)
			return false
		}
		g.resolveCall(caller, call, pkg, false)
		return true
	})
}

// resolveCall records the edge(s) for one call site.
func (g *Graph) resolveCall(caller *Node, call *ast.CallExpr, pkg *Package, inGo bool) {
	// Arguments and the go-called closure body still carry calls.
	for _, arg := range call.Args {
		if inGo {
			g.addCallEdges(caller, arg, pkg)
		}
	}
	if fl, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok && inGo {
		g.addCallEdges(caller, fl, pkg)
		return
	}
	var id *ast.Ident
	var sel *ast.SelectorExpr
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
		sel = fun
	default:
		return
	}
	fn, ok := pkg.Info.Uses[id].(*types.Func)
	if !ok {
		return // builtin, conversion, or a plain function value
	}
	if sel != nil {
		if s, ok := pkg.Info.Selections[sel]; ok && s.Kind() == types.MethodVal {
			if types.IsInterface(s.Recv()) {
				g.addInterfaceEdges(caller, call, s.Recv(), fn, inGo)
				return
			}
		}
	}
	if callee := g.nodes[origin(fn)]; callee != nil {
		g.link(caller, callee, call, KindStatic, inGo)
	}
}

// addInterfaceEdges resolves an interface method call to every
// in-module implementer (CHA) and records one edge per target.
func (g *Graph) addInterfaceEdges(caller *Node, call *ast.CallExpr, recv types.Type, m *types.Func, inGo bool) {
	iface, ok := recv.Underlying().(*types.Interface)
	if !ok {
		return
	}
	for _, cand := range g.methodIndex[m.Name()] {
		sig, ok := cand.Func.Type().(*types.Signature)
		if !ok || sig.Recv() == nil {
			continue
		}
		rt := sig.Recv().Type()
		// The method set of T may miss pointer-receiver methods; check
		// both T and *T so every implementer is found.
		if types.Implements(rt, iface) || types.Implements(types.NewPointer(rt), iface) {
			g.link(caller, cand, call, KindInterface, inGo)
		}
	}
}

// link appends one edge, deduplicating repeats of the same
// (caller, callee, site) triple.
func (g *Graph) link(caller, callee *Node, site *ast.CallExpr, kind EdgeKind, inGo bool) {
	if caller == nil || callee == nil {
		return
	}
	for _, e := range caller.Out {
		if e.Callee == callee && e.Site == site {
			return
		}
	}
	e := &Edge{Caller: caller, Callee: callee, Site: site, Kind: kind, Go: inGo}
	caller.Out = append(caller.Out, e)
	callee.In = append(callee.In, e)
}

// origin maps an instantiated generic function back to its declaration
// object, which is what the node map is keyed by.
func origin(fn *types.Func) *types.Func {
	if o := fn.Origin(); o != nil {
		return o
	}
	return fn
}

// ReachResult is the outcome of a forward reachability sweep: for every
// reached node, the edge it was first discovered through (nil for a
// root), which reconstructs a shortest call chain for diagnostics.
type ReachResult struct {
	From map[*Node]*Edge
}

// Reached reports whether n was reached (roots count).
func (r *ReachResult) Reached(n *Node) bool { _, ok := r.From[n]; return ok }

// Chain reconstructs the call chain root → ... → n as node names,
// truncating in the middle to at most max entries (min 3). The chain is
// the BFS-shortest one, so diagnostics stay readable.
func (r *ReachResult) Chain(n *Node, max int) []string {
	if max < 3 {
		max = 3
	}
	var rev []*Node
	for cur := n; cur != nil; {
		rev = append(rev, cur)
		e := r.From[cur]
		if e == nil {
			break
		}
		cur = e.Caller
	}
	names := make([]string, 0, len(rev))
	for i := len(rev) - 1; i >= 0; i-- {
		names = append(names, rev[i].Name())
	}
	if len(names) > max {
		head := names[:max-2]
		out := append(append([]string{}, head...), "…", names[len(names)-1])
		return out
	}
	return names
}

// Reach runs a breadth-first forward sweep from roots. Nodes without a
// declaration (no body in the module) are reached but not expanded.
func (g *Graph) Reach(roots []*Node) *ReachResult {
	res := &ReachResult{From: make(map[*Node]*Edge)}
	queue := make([]*Node, 0, len(roots))
	for _, r := range roots {
		if r == nil {
			continue
		}
		if _, ok := res.From[r]; ok {
			continue
		}
		res.From[r] = nil
		queue = append(queue, r)
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, e := range n.Out {
			if _, ok := res.From[e.Callee]; ok {
				continue
			}
			res.From[e.Callee] = e
			queue = append(queue, e.Callee)
		}
	}
	return res
}
