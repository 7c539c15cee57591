package main

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/lint"
)

// fixture returns the absolute directory of one of internal/lint's
// fixture modules.
func fixture(t *testing.T, name string) string {
	t.Helper()
	dir, err := filepath.Abs(filepath.Join("..", "..", "internal", "lint", "testdata", "src", name))
	if err != nil {
		t.Fatal(err)
	}
	return dir
}

// mklint runs the command in dir and returns its exit status and output.
func mklint(dir string, args ...string) (code int, stdout, stderr string) {
	var out, errOut bytes.Buffer
	code = run(args, dir, &out, &errOut)
	return code, out.String(), errOut.String()
}

// want returns the lines mklint prints for the fixture module at dir
// when match selects the packages.
func want(t *testing.T, dir string, match func(*lint.Package) bool) string {
	t.Helper()
	prog, err := lint.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, d := range lint.Run(prog, lint.Options{Match: match}) {
		b.WriteString(d.String() + "\n")
	}
	return b.String()
}

// TestExitContract pins mklint's exit status: 0 clean, 1 findings (each
// on stdout, the count on stderr), 2 usage, load or internal error —
// including the flags the command no longer has.
func TestExitContract(t *testing.T) {
	determinism := fixture(t, "determinism")
	wantOut := want(t, determinism, nil)
	if wantOut == "" {
		t.Fatal("the determinism fixture has no findings to report")
	}
	code, stdout, stderr := mklint(determinism, "./...")
	if code != exitFindings || stdout != wantOut || !strings.Contains(stderr, "diagnostic(s)") {
		t.Errorf("mklint ./... on the determinism fixture: exit %d, stdout\n%s\nstderr %q; want exit 1, stdout\n%s", code, stdout, stderr, wantOut)
	}

	for _, args := range [][]string{
		{"-rules", "nope", "./..."},
		{"-baseline", "x", "./..."},
		{"-update-baseline", "./..."},
		{"-scope", "internal/sim", "./..."},
		{"../..."},
		{"/"},
	} {
		if code, stdout, _ := mklint(determinism, args...); code != exitInternal || stdout != "" {
			t.Errorf("mklint %q: exit %d, stdout %q; want exit 2 and no stdout", args, code, stdout)
		}
	}

	code, stdout, _ = mklint(determinism, "-list")
	if code != exitClean {
		t.Errorf("mklint -list: exit %d, want 0", code)
	}
	for _, a := range lint.All() {
		if !strings.Contains(stdout, a.Name) {
			t.Errorf("mklint -list does not name rule %s:\n%s", a.Name, stdout)
		}
	}

	if code, stdout, stderr := mklint(fixture(t, "depdag"), "-rules", "depdag", "./internal/core"); code != exitClean || stdout != "" || stderr != "" {
		t.Errorf("mklint on a clean package: exit %d, stdout %q, stderr %q; want exit 0 and no output", code, stdout, stderr)
	}
}

// TestJSONStdout pins that -json - leaves stdout to the JSON document
// alone, so it parses as one document holding every finding.
func TestJSONStdout(t *testing.T) {
	dir := fixture(t, "determinism")
	code, stdout, _ := mklint(dir, "-json", "-", "./...")
	if code != exitFindings {
		t.Errorf("exit %d, want 1", code)
	}
	var doc jsonDoc
	dec := json.NewDecoder(strings.NewReader(stdout))
	if err := dec.Decode(&doc); err != nil {
		t.Fatalf("stdout is no JSON document: %v\n%s", err, stdout)
	}
	if dec.More() {
		t.Errorf("stdout carries more than the JSON document:\n%s", stdout)
	}
	if n := strings.Count(want(t, dir, nil), "\n"); doc.Schema != "mklint/v1" || doc.Count != n || len(doc.Diagnostics) != n {
		t.Errorf("document %+v, want schema mklint/v1 and %d diagnostics", doc, n)
	}
}

// TestPatternsSelectSubtrees pins that positional patterns pick
// packages: two /... patterns lint exactly their subtrees, so the
// depdag fixture's findings outside them do not show.
func TestPatternsSelectSubtrees(t *testing.T) {
	dir := fixture(t, "depdag")
	wantOut := want(t, dir, func(p *lint.Package) bool {
		return strings.HasPrefix(p.Rel+"/", "internal/sim/") || strings.HasPrefix(p.Rel+"/", "internal/store/")
	})
	all := want(t, dir, nil)
	if wantOut == "" || wantOut == all {
		t.Fatalf("the depdag fixture's findings do not tell the subtrees apart:\n%s", all)
	}
	code, stdout, _ := mklint(dir, "./internal/sim/...", "./internal/store/...")
	if code != exitFindings || stdout != wantOut {
		t.Errorf("exit %d, stdout\n%s\nwant exit 1, stdout\n%s", code, stdout, wantOut)
	}
}
