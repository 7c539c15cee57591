package lint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRepoSelfClean asserts the module mklint ships with passes its own
// ratchet: every analyzer (the full registry, including the
// whole-program hotpath/goleak/locks/depdag rules) over every package
// yields no findings beyond the committed baseline, and no baseline
// entry is stale. This is the same check CI's lint job runs via
// `go run ./cmd/mklint -baseline results/lint_baseline.json ./...`,
// kept as a test so `go test ./...` alone catches regressions.
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
	diags := Run(prog, Options{})

	base := &Baseline{Schema: BaselineSchema}
	basePath := filepath.Join(root, "results", "lint_baseline.json")
	if _, statErr := os.Stat(basePath); statErr == nil {
		base, err = LoadBaseline(basePath)
		if err != nil {
			t.Fatalf("committed baseline is unreadable: %v", err)
		}
		if err := base.Validate(); err != nil {
			t.Errorf("committed baseline fails justification validation: %v", err)
		}
	}
	fresh, stale := base.Apply(diags)
	if len(fresh) > 0 {
		var b strings.Builder
		for _, d := range fresh {
			b.WriteString("  " + d.String() + "\n")
		}
		t.Errorf("repository has %d finding(s) beyond the baseline (fix them, or baseline them with a written why):\n%s", len(fresh), b.String())
	}
	for _, e := range stale {
		t.Errorf("stale baseline entry (the finding was fixed; refresh with -update-baseline): %s [%s] %q", e.File, e.Rule, e.Message)
	}
}
