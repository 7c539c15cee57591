package lint

import (
	"path/filepath"
	"strings"
	"testing"
)

func TestBaselineApply(t *testing.T) {
	b := &Baseline{Schema: BaselineSchema, Entries: []BaselineEntry{
		{Rule: "hotpath", File: "a.go", Message: "m1", Why: "accepted"},
		{Rule: "locks", File: "b.go", Message: "m2", Why: "accepted"},
	}}
	diags := []Diagnostic{
		{File: "a.go", Line: 7, Rule: "hotpath", Message: "m1"},  // baselined (line ignored)
		{File: "c.go", Line: 1, Rule: "goleak", Message: "new"},  // fresh
		{File: "a.go", Line: 2, Rule: "hotpath", Message: "new"}, // fresh: same rule+file, different message
	}
	fresh, stale := b.Apply(diags)
	if len(fresh) != 2 {
		t.Fatalf("fresh = %v, want 2 entries", fresh)
	}
	if len(stale) != 1 || stale[0].File != "b.go" {
		t.Fatalf("stale = %v, want the b.go entry", stale)
	}
}

func TestBaselineValidate(t *testing.T) {
	bad := &Baseline{Schema: BaselineSchema, Entries: []BaselineEntry{
		{Rule: "locks", File: "a.go", Message: "m", Why: "TODO: justify accepting this finding, or fix it"},
	}}
	if err := bad.Validate(); err == nil {
		t.Error("TODO-prefixed why must fail validation")
	}
	bad.Entries[0].Why = "   "
	if err := bad.Validate(); err == nil {
		t.Error("blank why must fail validation")
	}
	bad.Entries[0].Why = "sync.Once cold path; fast path is atomic"
	if err := bad.Validate(); err != nil {
		t.Errorf("real justification rejected: %v", err)
	}
}

func TestBaselineRefreshAndRoundTrip(t *testing.T) {
	prev := &Baseline{Schema: BaselineSchema, Entries: []BaselineEntry{
		{Rule: "hotpath", File: "a.go", Message: "m1", Why: "hand-written reason"},
	}}
	diags := []Diagnostic{
		{File: "a.go", Line: 3, Rule: "hotpath", Message: "m1"},
		{File: "b.go", Line: 9, Rule: "goleak", Message: "m2"},
	}
	b := RefreshBaseline(diags, prev)
	if len(b.Entries) != 2 {
		t.Fatalf("refreshed entries = %v, want 2", b.Entries)
	}
	byKey := map[string]BaselineEntry{}
	for _, e := range b.Entries {
		byKey[e.Rule] = e
	}
	if byKey["hotpath"].Why != "hand-written reason" {
		t.Errorf("surviving entry lost its why: %q", byKey["hotpath"].Why)
	}
	if !strings.HasPrefix(byKey["goleak"].Why, "TODO") {
		t.Errorf("new entry should get a TODO placeholder, got %q", byKey["goleak"].Why)
	}
	if b.Validate() == nil {
		t.Error("a freshly refreshed baseline with new entries must not validate until the whys are written")
	}

	path := filepath.Join(t.TempDir(), "base.json")
	if err := WriteBaseline(path, b); err != nil {
		t.Fatal(err)
	}
	back, err := LoadBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Schema != BaselineSchema || len(back.Entries) != 2 {
		t.Fatalf("round-trip mismatch: %+v", back)
	}
}
