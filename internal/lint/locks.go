package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

const ruleLocks = "locks"

// Locks enforces mutex discipline across the whole program (go vet's
// copylocks already reports lock-bearing values copied by value):
//
//  1. no Unlock without a dominating Lock in the same function (a
//     must-hold walk: a Lock that happens on only one branch does not
//     dominate);
//  2. no early return while a lock is held without a deferred unlock —
//     the classic leak when an error path grows after the happy path;
//  3. no blocking operation (channel send/receive, select, time.Sleep,
//     WaitGroup.Wait, net/http round trip) while a lock is held, checked
//     transitively through the call graph a few hops deep, with the call
//     chain in the diagnostic.
//
// The held-set analysis merges branches by intersection and drops
// terminating branches (return/panic/break), so the branch-unlock-return
// idiom — Lock; if hit { Unlock; return }; …; Unlock — is clean.
var Locks = &Analyzer{
	Name: ruleLocks,
	Doc:  "mutex discipline: dominated unlocks, no held locks across returns or blocking operations",
	Run:  runLocks,
}

// lockBlockDepth bounds the transitive blocking search from a statement
// executed under a lock.
const lockBlockDepth = 3

func runLocks(p *Pass) {
	for _, f := range p.Pkg.Files {
		for _, decl := range f.Ast.Decls {
			if d, ok := decl.(*ast.FuncDecl); ok && d.Body != nil {
				w := &lockWalker{p: p, reported: make(map[token.Pos]bool)}
				w.stmts(d.Body.List, newHeldSet())
			}
		}
	}
}

// holdInfo tracks one held lock: where it was acquired and whether a
// deferred unlock already covers every exit.
type holdInfo struct {
	pos      token.Pos
	deferred bool
	read     bool // RLock rather than Lock
}

type heldSet map[string]*holdInfo

func newHeldSet() heldSet { return make(heldSet) }

func (h heldSet) clone() heldSet {
	out := make(heldSet, len(h))
	for k, v := range h {
		cp := *v
		out[k] = &cp
	}
	return out
}

// intersect keeps only locks held in both sets — the must-hold merge.
func (h heldSet) intersect(other heldSet) heldSet {
	out := make(heldSet)
	for k, v := range h {
		if o, ok := other[k]; ok {
			cp := *v
			cp.deferred = v.deferred && o.deferred
			out[k] = &cp
		}
	}
	return out
}

type lockWalker struct {
	p *Pass
	// reported dedupes diagnostics per position so a lock held across a
	// loop body is not flagged once per iteration analysis.
	reported map[token.Pos]bool
}

func (w *lockWalker) reportf(pos token.Pos, format string, args ...any) {
	if w.reported[pos] {
		return
	}
	w.reported[pos] = true
	w.p.Reportf(ruleLocks, pos, format, args...)
}

// stmts walks a statement list with the incoming held set, returning the
// outgoing set and whether control flow terminates (return/panic/branch)
// inside the list.
func (w *lockWalker) stmts(list []ast.Stmt, held heldSet) (heldSet, bool) {
	for _, s := range list {
		var done bool
		held, done = w.stmt(s, held)
		if done {
			return held, true
		}
	}
	return held, false
}

func (w *lockWalker) stmt(s ast.Stmt, held heldSet) (heldSet, bool) {
	switch s := s.(type) {
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if key, op, ok := w.lockOp(call); ok {
				return w.applyLockOp(held, key, op, call.Pos()), false
			}
		}
		w.checkBlocking(s, held)
		return held, false
	case *ast.DeferStmt:
		if key, op, ok := w.lockOp(s.Call); ok && (op == "Unlock" || op == "RUnlock") {
			if info, exists := held[key]; exists {
				info.deferred = true
			}
		}
		return held, false
	case *ast.AssignStmt, *ast.DeclStmt, *ast.IncDecStmt, *ast.SendStmt:
		w.checkBlocking(s, held)
		return held, false
	case *ast.ReturnStmt:
		w.checkBlocking(s, held)
		for key, info := range held {
			if !info.deferred {
				w.reportf(s.Pos(),
					"return while %s is still locked (acquired at line %d) with no deferred unlock — this path leaks the lock", key, w.p.Prog.Fset.Position(info.pos).Line)
			}
		}
		return held, true
	case *ast.BranchStmt:
		// break/continue/goto ends this straight-line segment; treat as
		// terminating for merge purposes (conservative, no report).
		return held, true
	case *ast.BlockStmt:
		return w.stmts(s.List, held)
	case *ast.IfStmt:
		if s.Init != nil {
			held, _ = w.stmt(s.Init, held)
		}
		w.checkBlocking(s.Cond, held)
		thenHeld, thenDone := w.stmts(s.Body.List, held.clone())
		elseHeld, elseDone := held.clone(), false
		if s.Else != nil {
			elseHeld, elseDone = w.stmt(s.Else, held.clone())
		}
		switch {
		case thenDone && elseDone:
			return held, true
		case thenDone:
			return elseHeld, false
		case elseDone:
			return thenHeld, false
		default:
			return thenHeld.intersect(elseHeld), false
		}
	case *ast.ForStmt:
		if s.Init != nil {
			held, _ = w.stmt(s.Init, held)
		}
		if s.Cond != nil {
			w.checkBlocking(s.Cond, held)
		}
		w.stmts(s.Body.List, held.clone())
		return held, false
	case *ast.RangeStmt:
		w.checkBlocking(s.X, held)
		if len(held) > 0 {
			if t := w.p.TypeOf(s.X); t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok {
					w.blockingHeld(s.X.Pos(), "range over channel", held)
				}
			}
		}
		w.stmts(s.Body.List, held.clone())
		return held, false
	case *ast.SwitchStmt, *ast.TypeSwitchStmt:
		var body *ast.BlockStmt
		if sw, ok := s.(*ast.SwitchStmt); ok {
			if sw.Init != nil {
				held, _ = w.stmt(sw.Init, held)
			}
			body = sw.Body
		} else {
			body = s.(*ast.TypeSwitchStmt).Body
		}
		return w.mergeClauses(body, held)
	case *ast.SelectStmt:
		if len(held) > 0 && !selectHasDefault(s) {
			w.blockingHeld(s.Pos(), "select", held)
		}
		return w.mergeClauses(s.Body, held)
	case *ast.GoStmt:
		// The spawned goroutine runs on its own stack; its blocking does
		// not happen under the spawner's locks.
		return held, false
	case *ast.LabeledStmt:
		return w.stmt(s.Stmt, held)
	default:
		if s != nil {
			w.checkBlocking(s, held)
		}
		return held, false
	}
}

// mergeClauses walks each clause of a switch/select body on a cloned
// held set and intersects the survivors.
func (w *lockWalker) mergeClauses(body *ast.BlockStmt, held heldSet) (heldSet, bool) {
	var merged heldSet
	anyFall := false
	for _, c := range body.List {
		var list []ast.Stmt
		switch c := c.(type) {
		case *ast.CaseClause:
			list = c.Body
		case *ast.CommClause:
			// The comm operation's blocking-ness is the select's, already
			// judged by the caller; only the clause body is walked.
			list = c.Body
		default:
			continue
		}
		out, done := w.stmts(list, held.clone())
		if done {
			continue
		}
		anyFall = true
		if merged == nil {
			merged = out
		} else {
			merged = merged.intersect(out)
		}
	}
	if !anyFall {
		// Every clause terminated (or the body is empty); fall through
		// with the entry set — a switch without a default still falls out.
		return held, false
	}
	return merged.intersect(held.clone()), false
}

// lockOp recognizes mu.Lock / RLock / Unlock / RUnlock / TryLock calls
// on sync mutexes and returns the lock's key (the rendered receiver
// expression, "s.mu") and the operation name.
func (w *lockWalker) lockOp(call *ast.CallExpr) (key, op string, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	fn, isFn := w.p.Pkg.Info.Uses[sel.Sel].(*types.Func)
	if !isFn || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", "", false
	}
	recv := recvTypeName(fn)
	if recv != "Mutex" && recv != "RWMutex" {
		return "", "", false
	}
	switch fn.Name() {
	case "Lock", "RLock", "Unlock", "RUnlock", "TryLock", "TryRLock":
		return types.ExprString(sel.X), fn.Name(), true
	}
	return "", "", false
}

func (w *lockWalker) applyLockOp(held heldSet, key, op string, pos token.Pos) heldSet {
	switch op {
	case "Lock", "RLock":
		held[key] = &holdInfo{pos: pos, read: op == "RLock"}
	case "TryLock", "TryRLock":
		// Acquisition is conditional; without modeling the bool result we
		// cannot add it to the must-hold set.
	case "Unlock", "RUnlock":
		if _, ok := held[key]; !ok {
			w.reportf(pos,
				"%s.%s without a dominating %s in this function — either the lock is taken on only some paths or this function unlocks a lock it never acquired", key, op, lockFor(op))
		}
		delete(held, key)
	}
	return held
}

func lockFor(unlock string) string {
	if unlock == "RUnlock" {
		return "RLock"
	}
	return "Lock"
}

// checkBlocking scans one statement or expression (excluding nested
// function literals and go statements) for operations that block while a
// lock is held — directly, or transitively through called functions.
func (w *lockWalker) checkBlocking(n ast.Node, held heldSet) {
	if len(held) == 0 || n == nil {
		return
	}
	p := w.p
	ast.Inspect(n, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.FuncLit, *ast.GoStmt:
			return false
		case *ast.SendStmt:
			w.blockingHeld(x.Pos(), "channel send", held)
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				w.blockingHeld(x.Pos(), "channel receive", held)
			}
		case *ast.CallExpr:
			if _, _, isLock := w.lockOp(x); isLock {
				return true
			}
			if what, ok := blockingStdCall(p.Pkg, x); ok {
				w.blockingHeld(x.Pos(), what, held)
				return true
			}
			if fn := p.Callee(x); fn != nil {
				if chain, fact, ok := p.Prog.blocksWithin(fn, lockBlockDepth); ok {
					w.blockingHeld(x.Pos(), fact.what+" via "+strings.Join(chain, " → "), held)
				}
			}
		}
		return true
	})
}

func (w *lockWalker) blockingHeld(pos token.Pos, what string, held heldSet) {
	keys := make([]string, 0, len(held))
	for k := range held {
		keys = append(keys, k)
	}
	if len(keys) == 0 {
		return
	}
	sort.Strings(keys)
	w.reportf(pos,
		"blocking operation (%s) while %s is held — a stalled peer turns into a stalled lock; release before blocking", what, strings.Join(keys, ", "))
}
