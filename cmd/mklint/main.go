// Command mklint runs this repository's project-specific static analysis
// (internal/lint) over the module and reports diagnostics as
//
//	file:line: [rule] message
//
// Usage:
//
//	mklint ./...                      # whole module (the CI invocation)
//	mklint ./internal/sim/...         # one subtree
//	mklint ./internal/sim/... ./internal/rta/...   # several subtrees
//	mklint -json lint.json ./...      # also write the JSON artifact
//	mklint -json - ./...              # the JSON document alone on stdout
//	mklint -rules determinism ./...   # run a subset of rules
//	mklint -list                      # print the rule catalogue
//
// Patterns are module-relative directories, each optionally ending in
// /... to take its whole subtree; a package is linted when it matches any
// of them.
//
// Suppress an intentional violation with a trailing or preceding comment:
//
//	t0 := time.Now() //mklint:allow determinism — wall-clock bench timer
//
// The rule name must exist and the reason must be non-empty; allows that
// no longer suppress anything are themselves reported as stale, so
// suppressions cannot rot silently. An allow is the only way to excuse a
// finding.
//
// Exit status: 0 clean, 1 findings, 2 usage, load or internal error. CI
// can therefore distinguish "the code has violations" from "the linter
// itself failed to run".
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/lint"
)

// exit codes of the mklint contract.
const (
	exitClean    = 0
	exitFindings = 1
	exitInternal = 2
)

func main() {
	dir, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(os.Stderr, "mklint: %v\n", err)
		os.Exit(exitInternal)
	}
	os.Exit(run(os.Args[1:], dir, os.Stdout, os.Stderr))
}

// run lints the module enclosing dir as args ask, resolving relative
// patterns against dir, and returns the exit status.
func run(args []string, dir string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mklint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		jsonPath = fs.String("json", "", "write diagnostics as a JSON document to this path ('-' for stdout, which then carries the document alone)")
		rules    = fs.String("rules", "", "comma-separated subset of rules to run (default: all)")
		list     = fs.Bool("list", false, "print the rule catalogue and exit")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return exitClean
		}
		return exitInternal
	}
	fail := func(err error) int {
		fmt.Fprintf(stderr, "mklint: %v\n", err)
		return exitInternal
	}

	if *list {
		for _, a := range lint.All() {
			fmt.Fprintf(stdout, "%-12s %s\n", a.Name, a.Doc)
		}
		return exitClean
	}

	var opts lint.Options
	if *rules != "" {
		for _, name := range strings.Split(*rules, ",") {
			a := lint.ByName(strings.TrimSpace(name))
			if a == nil {
				return fail(fmt.Errorf("unknown rule %q (try -list)", strings.TrimSpace(name)))
			}
			opts.Analyzers = append(opts.Analyzers, a)
		}
	}
	root, err := moduleRoot(dir)
	if err != nil {
		return fail(err)
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	if opts.Match, err = matcher(root, dir, patterns); err != nil {
		return fail(err)
	}

	prog, err := lint.Load(root)
	if err != nil {
		return fail(err)
	}
	diags := lint.Run(prog, opts)

	if *jsonPath != "" {
		if err := writeJSON(*jsonPath, stdout, diags); err != nil {
			return fail(err)
		}
	}
	if *jsonPath != "-" {
		for _, d := range diags {
			fmt.Fprintln(stdout, d)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "mklint: %d diagnostic(s)\n", len(diags))
		return exitFindings
	}
	return exitClean
}

// moduleRoot walks up from dir to the enclosing go.mod.
func moduleRoot(dir string) (string, error) {
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above the working directory")
		}
		dir = parent
	}
}

// matcher converts go-style package patterns ("./...", "./internal/sim",
// "./internal/sim/..."), relative to dir, into a package filter over
// module-relative paths: a package matches when any pattern does.
func matcher(root, dir string, patterns []string) (func(*lint.Package) bool, error) {
	type pat struct {
		rel  string
		tree bool
	}
	var pats []pat
	for _, raw := range patterns {
		p := pat{rel: raw}
		if rest, ok := strings.CutSuffix(p.rel, "/..."); ok {
			p.tree = true
			p.rel = rest
			if p.rel == "." || p.rel == "" {
				pats = append(pats, pat{rel: "", tree: true})
				continue
			}
		}
		abs := p.rel
		if !filepath.IsAbs(abs) {
			abs = filepath.Join(dir, abs)
		}
		rel, err := filepath.Rel(root, abs)
		if err != nil || strings.HasPrefix(rel, "..") {
			return nil, fmt.Errorf("pattern %q lies outside the module", raw)
		}
		if rel == "." {
			rel = ""
		}
		p.rel = filepath.ToSlash(rel)
		pats = append(pats, p)
	}
	return func(pkg *lint.Package) bool {
		for _, p := range pats {
			if !p.tree && pkg.Rel == p.rel ||
				p.tree && (p.rel == "" || pkg.Rel == p.rel || strings.HasPrefix(pkg.Rel, p.rel+"/")) {
				return true
			}
		}
		return false
	}, nil
}

// jsonDoc is the machine-readable diagnostics artifact CI uploads.
type jsonDoc struct {
	Schema      string            `json:"schema"`
	Count       int               `json:"count"`
	Diagnostics []lint.Diagnostic `json:"diagnostics"`
}

// writeJSON writes the diagnostics document to path, or to stdout when
// path is "-".
func writeJSON(path string, stdout io.Writer, diags []lint.Diagnostic) error {
	doc := jsonDoc{Schema: "mklint/v1", Count: len(diags), Diagnostics: diags}
	if doc.Diagnostics == nil {
		doc.Diagnostics = []lint.Diagnostic{}
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if path == "-" {
		_, err = stdout.Write(data)
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
