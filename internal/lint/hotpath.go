package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

const ruleHotPath = "hotpath"

// HotPath guards the allocation-free event loop. Functions (or whole
// files) tagged //mklint:hotpath — the sim engine's per-event machinery,
// the Scratch arenas, the rta k-way merge — bought Simulate down to a
// handful of allocs/op; this rule flags the constructs that silently undo
// that: fmt formatting (allocates and reflects), any reflect use,
// appends that box concrete values into interface slices, and escaping
// closures that capture locals. Formatting inside a panic call is exempt:
// a panic path never executes in a healthy run.
//
// A tagged function that calls an untagged helper would move its
// allocations one frame down, out of sight, so the rule also walks the
// module call graph forward from every tagged root and applies the same
// checks to every function reachable but not itself tagged, citing the
// (shortest) call chain that makes it hot: "engine.step → wheel.scan →
// helper". Calls spawned with go statements still propagate heat: the
// engine's budget includes work it fans out. Functions behind plain
// function values (stored callbacks) are the one blind spot — tag those
// directly.
var HotPath = &Analyzer{
	Name: ruleHotPath,
	Doc:  "no fmt, reflect, interface-boxing appends or escaping capturing closures in //mklint:hotpath functions and in every function they reach",
	Run:  runHotPath,
}

// hotChainMax bounds the reported chain length; longer chains are
// truncated in the middle ("root → a → … → leaf").
const hotChainMax = 4

func runHotPath(p *Pass) {
	reach := p.Prog.HotReach()
	for _, f := range p.Pkg.Files {
		for _, decl := range f.Ast.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			hc := &hotCheck{p: p}
			if !p.Hot(fd) {
				node := p.Prog.CallGraph().Node(p.Pkg.FuncObj(fd))
				if !reach.Reached(node) {
					continue
				}
				hc.chain = strings.Join(reach.Chain(node, hotChainMax), " → ")
			}
			hc.checkFunc(fd)
		}
	}
}

// hotCheck runs the hot-path construct checks over one function body:
// a tagged function's, or one the call graph proves reachable from a
// tagged root, with the reaching chain woven into every diagnostic.
type hotCheck struct {
	p *Pass
	// chain, when non-empty, is the call chain that put the function on
	// the hot path ("engine.step → wheel.scan → helper"); it is appended
	// to diagnostics so the propagation is auditable at a glance.
	chain string
}

// context renders the chain suffix of a diagnostic ("" for a tagged
// function).
func (hc *hotCheck) context() string {
	if hc.chain == "" {
		return ""
	}
	return " (hot call chain: " + hc.chain + ")"
}

func (hc *hotCheck) checkFunc(decl *ast.FuncDecl) {
	var stack []ast.Node
	ast.Inspect(decl, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		switch n := n.(type) {
		case *ast.CallExpr:
			hc.checkCall(n, stack)
		case *ast.FuncLit:
			hc.checkFuncLit(n, stack, decl)
		}
		return true
	})
}

func (hc *hotCheck) checkCall(call *ast.CallExpr, stack []ast.Node) {
	p := hc.p
	if p.IsBuiltin(call, "append") {
		hc.checkBoxingAppend(call)
		return
	}
	fn := p.Callee(call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	switch fn.Pkg().Path() {
	case "fmt":
		if !underPanic(p, stack) {
			p.Reportf(ruleHotPath, call.Pos(),
				"fmt.%s allocates and reflects inside a hot-path function; precompute the string or move formatting off the hot path%s", fn.Name(), hc.context())
		}
	case "reflect":
		p.Reportf(ruleHotPath, call.Pos(),
			"reflect.%s inside a hot-path function; hot paths must stay monomorphic%s", fn.Name(), hc.context())
	}
}

// underPanic reports whether the innermost enclosing call chain passes
// through a builtin panic(...) argument.
func underPanic(p *Pass, stack []ast.Node) bool {
	for i := len(stack) - 2; i >= 0; i-- {
		if call, ok := stack[i].(*ast.CallExpr); ok && p.IsBuiltin(call, "panic") {
			return true
		}
	}
	return false
}

// checkBoxingAppend flags append(s, v) where s is an interface slice and
// v a concrete value: each such append heap-boxes v.
func (hc *hotCheck) checkBoxingAppend(call *ast.CallExpr) {
	p := hc.p
	if len(call.Args) < 2 {
		return
	}
	slice, ok := typeAsSlice(p.TypeOf(call.Args[0]))
	if !ok {
		return
	}
	if _, ok := slice.Elem().Underlying().(*types.Interface); !ok {
		return
	}
	if call.Ellipsis.IsValid() {
		return // s... spread of an existing slice does not box
	}
	for _, arg := range call.Args[1:] {
		t := p.TypeOf(arg)
		if t == nil {
			continue
		}
		if _, isIface := t.Underlying().(*types.Interface); isIface {
			continue
		}
		p.Reportf(ruleHotPath, arg.Pos(),
			"append boxes concrete %s into an interface slice inside a hot-path function%s", t, hc.context())
	}
}

func typeAsSlice(t types.Type) (*types.Slice, bool) {
	if t == nil {
		return nil, false
	}
	s, ok := t.Underlying().(*types.Slice)
	return s, ok
}

// checkFuncLit flags closures that both escape (passed, returned,
// stored, deferred) and capture variables of the enclosing function: each
// event-loop pass then allocates a fresh closure + captured environment.
// Non-escaping literals stay on the stack and are free.
func (hc *hotCheck) checkFuncLit(fl *ast.FuncLit, stack []ast.Node, decl *ast.FuncDecl) {
	p := hc.p
	if len(stack) < 2 || !escapingFuncLit(fl, stack) {
		return
	}
	caps := p.captures(fl, decl)
	if len(caps) == 0 {
		return
	}
	p.Reportf(ruleHotPath, fl.Pos(),
		"escaping closure captures %s inside a hot-path function; it allocates per call — hoist the state or pass it as parameters%s", strings.Join(caps, ", "), hc.context())
}

func escapingFuncLit(fl *ast.FuncLit, stack []ast.Node) bool {
	parent := stack[len(stack)-2]
	switch par := parent.(type) {
	case *ast.CallExpr:
		if par.Fun == fl {
			// Immediately invoked: free unless deferred/spawned.
			if len(stack) >= 3 {
				switch stack[len(stack)-3].(type) {
				case *ast.DeferStmt, *ast.GoStmt:
					return true
				}
			}
			return false
		}
		return true // passed as an argument
	case *ast.ReturnStmt, *ast.CompositeLit, *ast.KeyValueExpr, *ast.SendStmt:
		return true
	case *ast.AssignStmt:
		for _, lhs := range par.Lhs {
			if _, ok := lhs.(*ast.Ident); !ok {
				return true // stored into a field, map or slice element
			}
		}
		return false
	default:
		return false
	}
}

// captures lists variables of the enclosing function the literal closes
// over (parameters, receiver and locals declared outside the literal).
func (p *Pass) captures(fl *ast.FuncLit, decl *ast.FuncDecl) []string {
	seen := make(map[*types.Var]bool)
	var names []string
	ast.Inspect(fl.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := p.Pkg.Info.Uses[id].(*types.Var)
		if !ok || v.IsField() || seen[v] {
			return true
		}
		pos := v.Pos()
		if pos >= fl.Pos() && pos < fl.End() {
			return true // declared inside the literal
		}
		if pos < decl.Pos() || pos >= decl.End() {
			return true // package-level or foreign
		}
		seen[v] = true
		names = append(names, v.Name())
		return true
	})
	return names
}
