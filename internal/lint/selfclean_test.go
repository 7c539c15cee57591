package lint

import (
	"path/filepath"
	"strings"
	"testing"
)

// TestRepoSelfClean asserts the module mklint ships with is clean under
// its own rules: every analyzer (the full registry, including the
// whole-program hotpath/goleak/locks/depdag rules) over every package
// yields no diagnostic. This is the same check CI's lint job runs via
// `mklint ./...`, kept as a test so `go test ./...` alone catches
// regressions. An intended exception is an inline
// //mklint:allow <rule> — <reason> at its site.
func TestRepoSelfClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the entire module; skipped in -short mode")
	}
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Load(root)
	if err != nil {
		t.Fatalf("loading module at %s: %v", root, err)
	}
	if len(prog.Packages) == 0 {
		t.Fatalf("no packages loaded from %s", root)
	}
	if diags := Run(prog, Options{}); len(diags) > 0 {
		var b strings.Builder
		for _, d := range diags {
			b.WriteString("  " + d.String() + "\n")
		}
		t.Errorf("repository has %d finding(s) (fix them, or allow each inline with a written reason):\n%s", len(diags), b.String())
	}
}
