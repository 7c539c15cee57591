package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Diagnostic is one finding, printed as "file:line: [rule] message".
type Diagnostic struct {
	File    string `json:"file"` // module-relative slash path
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Rule    string `json:"rule"`
	Message string `json:"message"`
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", d.File, d.Line, d.Rule, d.Message)
}

// Analyzer is one named rule. Run inspects a single type-checked package
// and reports findings through the Pass.
type Analyzer struct {
	// Name is the rule identifier used in diagnostics, scoping tables
	// and //mklint:allow directives.
	Name string
	// Doc is a one-line description of the invariant the rule protects.
	Doc string
	Run func(*Pass)
}

// MetaRule is the reserved rule name for problems with mklint's own
// directives (unknown rules in an allow, missing reasons, stale allows).
const MetaRule = "allow"

// exemptPaths lists, per rule, module-relative path prefixes where the
// rule does not apply: timeu owns the float tolerance helpers so it may
// compare floats, and command mains, examples and the trace renderer are
// the sanctioned homes of human-facing printing. Any other exception is
// an inline //mklint:allow with its reason at the site.
var exemptPaths = map[string][]string{
	"floateq":    {"internal/timeu/"},
	"printdebug": {"cmd/", "examples/", "internal/trace/"},
}

// Options configures one Run.
type Options struct {
	// Analyzers to execute; nil means All().
	Analyzers []*Analyzer
	// Match filters which packages are analyzed; nil analyzes all.
	Match func(*Package) bool
}

// Pass is the per-package unit of work handed to an Analyzer.
type Pass struct {
	Prog *Program
	Pkg  *Package

	hotDecls map[*ast.FuncDecl]bool
	report   func(rule string, pos token.Pos, msg string)
}

// Reportf records a diagnostic for rule at pos.
func (p *Pass) Reportf(rule string, pos token.Pos, format string, args ...any) {
	p.report(rule, pos, fmt.Sprintf(format, args...))
}

// TypeOf returns the type of e, or nil.
func (p *Pass) TypeOf(e ast.Expr) types.Type { return p.Pkg.Info.TypeOf(e) }

// Callee resolves the *types.Func a call statically invokes (package
// functions and methods; nil for builtins, conversions and indirect
// calls through function values).
func (p *Pass) Callee(call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := p.Pkg.Info.Uses[id].(*types.Func)
	return fn
}

// IsBuiltin reports whether the call invokes the named universe builtin.
func (p *Pass) IsBuiltin(call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	b, ok := p.Pkg.Info.Uses[id].(*types.Builtin)
	return ok && b.Name() == name
}

// Hot reports whether decl is tagged //mklint:hotpath (directly or via a
// file-level "//mklint:hotpath file" tag).
func (p *Pass) Hot(decl *ast.FuncDecl) bool { return p.hotDecls[decl] }

// directive is one parsed //mklint: comment.
type directive struct {
	file   string // module-relative path
	line   int
	pos    token.Pos
	verb   string // "allow" or "hotpath"
	rule   string // allow only
	reason string // allow only
	arg    string // hotpath only ("" or "file")
	used   bool   // an allow suppressed a diagnostic; a hotpath tag tagged a function
}

const directivePrefix = "//mklint:"

// parseDirectives extracts every well-formed //mklint: directive from
// pkg's files. Malformed directives are reported through report under
// MetaRule; knownRules is the full registry (an allow naming any
// registered rule is well-formed even when that rule is not part of this
// run).
func parseDirectives(prog *Program, pkg *Package, knownRules map[string]bool, report func(rule string, pos token.Pos, msg string)) []*directive {
	var out []*directive
	for _, f := range pkg.Files {
		for _, cg := range f.Ast.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, directivePrefix)
				if !ok {
					continue
				}
				d := &directive{file: f.Rel, line: prog.Fset.Position(c.Pos()).Line, pos: c.Pos()}
				verb, rest, _ := strings.Cut(text, " ")
				d.verb = verb
				switch verb {
				case "allow":
					d.rule, d.reason = splitAllow(rest)
					if d.rule == "" {
						report(MetaRule, c.Pos(), "malformed directive: want //mklint:allow <rule> — <reason>")
						continue
					}
					if !knownRules[d.rule] {
						report(MetaRule, c.Pos(), fmt.Sprintf("allow names unknown rule %q", d.rule))
						continue
					}
					if d.reason == "" {
						report(MetaRule, c.Pos(), fmt.Sprintf("allow %s is missing a reason: want //mklint:allow %s — <reason>", d.rule, d.rule))
						continue
					}
				case "hotpath":
					d.arg = strings.TrimSpace(rest)
					if d.arg != "" && d.arg != "file" {
						report(MetaRule, c.Pos(), fmt.Sprintf("malformed directive: //mklint:hotpath takes no argument or \"file\", got %q", d.arg))
						continue
					}
				default:
					report(MetaRule, c.Pos(), fmt.Sprintf("unknown mklint directive %q", verb))
					continue
				}
				out = append(out, d)
			}
		}
	}
	return out
}

// splitAllow parses "rule — reason" (also accepting "--", "-" or ":" as
// the separator, or none at all).
func splitAllow(s string) (rule, reason string) {
	s = strings.TrimSpace(s)
	rule, rest, _ := strings.Cut(s, " ")
	rest = strings.TrimSpace(rest)
	for _, sep := range []string{"—", "--", "-", ":"} {
		if r, ok := strings.CutPrefix(rest, sep); ok {
			rest = strings.TrimSpace(r)
			break
		}
	}
	return rule, rest
}

// hotpathDecls returns the function declarations of pkg that the parsed
// directives dirs tag hot, and marks each tag that tags one used: a
// "//mklint:hotpath file" tag tags every function in its file, and a
// bare "//mklint:hotpath" inside a function's doc comment tags that
// function.
func hotpathDecls(pkg *Package, dirs []*directive) map[*ast.FuncDecl]bool {
	tagged := make(map[*ast.FuncDecl]bool)
	for _, f := range pkg.Files {
		for _, decl := range f.Ast.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			for _, d := range dirs {
				if d.verb != "hotpath" || d.file != f.Rel {
					continue
				}
				if d.arg == "file" || fd.Doc != nil && fd.Doc.Pos() <= d.pos && d.pos < fd.Doc.End() {
					tagged[fd] = true
					d.used = true
				}
			}
		}
	}
	return tagged
}

// Run executes the configured analyzers over the program and returns the
// surviving diagnostics, sorted by file, line and rule:
//
//   - a diagnostic on line L is suppressed by a matching
//     "//mklint:allow <rule> — reason" on line L (trailing) or L-1
//     (preceding);
//   - allows that suppress nothing — for a rule that is part of this run
//     — are themselves reported as stale;
//   - malformed or unknown-rule directives, and hotpath tags that tag no
//     function, are reported under MetaRule.
func Run(prog *Program, opts Options) []Diagnostic {
	analyzers := opts.Analyzers
	if analyzers == nil {
		analyzers = All()
	}
	knownRules := make(map[string]bool)
	for _, a := range All() {
		knownRules[a.Name] = true
	}
	running := make(map[string]bool)
	for _, a := range analyzers {
		running[a.Name] = true
	}

	var raw []Diagnostic
	var allows []*directive
	for _, pkg := range prog.Packages {
		if opts.Match != nil && !opts.Match(pkg) {
			continue
		}
		report := func(rule string, pos token.Pos, msg string) {
			position := prog.Fset.Position(pos)
			file := relFile(prog, pkg, position.Filename)
			for _, prefix := range exemptPaths[rule] {
				if strings.HasPrefix(file, prefix) {
					return
				}
			}
			raw = append(raw, Diagnostic{
				File: file, Line: position.Line, Col: position.Column,
				Rule: rule, Message: msg,
			})
		}
		dirs := parseDirectives(prog, pkg, knownRules, report)
		pass := &Pass{Prog: prog, Pkg: pkg, hotDecls: hotpathDecls(pkg, dirs), report: report}
		for _, d := range dirs {
			switch {
			case d.verb == "allow":
				allows = append(allows, d)
			case !d.used:
				report(MetaRule, d.pos, "hotpath tag tags no function: put it in a function's doc comment, or tag the file with //mklint:hotpath file")
			}
		}
		for _, a := range analyzers {
			a.Run(pass)
		}
	}

	allowAt := make(map[string][]*directive) // "file:line" -> allows
	for _, d := range allows {
		key := fmt.Sprintf("%s:%d", d.file, d.line)
		allowAt[key] = append(allowAt[key], d)
	}
	var out []Diagnostic
	for _, diag := range raw {
		if diag.Rule != MetaRule && suppress(allowAt, diag) {
			continue
		}
		out = append(out, diag)
	}
	for _, d := range allows {
		if !d.used && running[d.rule] {
			out = append(out, Diagnostic{
				File: d.file, Line: d.line, Col: 1, Rule: MetaRule,
				Message: fmt.Sprintf("stale allow: no %s diagnostic here anymore — remove the directive", d.rule),
			})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Rule < b.Rule
	})
	return out
}

// suppress marks-and-reports whether an allow on the diagnostic's line or
// the line above covers it.
func suppress(allowAt map[string][]*directive, diag Diagnostic) bool {
	hit := false
	for _, line := range []int{diag.Line, diag.Line - 1} {
		for _, d := range allowAt[fmt.Sprintf("%s:%d", diag.File, line)] {
			if d.rule == diag.Rule {
				d.used = true
				hit = true
			}
		}
	}
	return hit
}

// relFile maps an absolute position filename back to the module-relative
// path, falling back to the raw name for positions outside the module.
func relFile(prog *Program, pkg *Package, filename string) string {
	for _, f := range pkg.Files {
		if f.Name == filename {
			return f.Rel
		}
	}
	if rel, ok := strings.CutPrefix(filename, prog.Root+"/"); ok {
		return rel
	}
	return filename
}
