package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro"
)

// TestRunRefusesHorizon pins that a -horizon no run can honor is an
// error, which main reports on stderr with exit status 1, both for a
// simulation and for -estimate, in text and in -json: NaN, ±Inf and
// values whose µs count overflows int64 used to run the 20 ms default
// silently. A refused run prints nothing on stdout — the task-set header
// used to come out before the run failed — and leaves the -events file
// as it was, with no temporary file beside it: the file used to be
// truncated before the run was checked.
func TestRunRefusesHorizon(t *testing.T) {
	dir := t.TempDir()
	events := filepath.Join(dir, "ev.jsonl")
	if err := os.WriteFile(events, []byte("keep\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, h := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 1e300, 9223372036854775.808} {
		for _, est := range []bool{false, true} {
			for _, js := range []bool{false, true} {
				o := options{demo: true, approach: "selective", scenario: "none", seed: 1, horizonMS: h, jsonOut: js, estimate: est, events: events}
				var stdout bytes.Buffer
				if err := run(context.Background(), o, &stdout); err == nil || !strings.Contains(err.Error(), "horizon_ms") {
					t.Errorf("-horizon %v (estimate %v, json %v): error %v, want one naming horizon_ms", h, est, js, err)
				}
				if stdout.Len() > 0 {
					t.Errorf("-horizon %v (estimate %v, json %v): stdout %q, want nothing", h, est, js, stdout.String())
				}
				if got, err := os.ReadFile(events); err != nil || string(got) != "keep\n" {
					t.Errorf("-horizon %v (estimate %v, json %v): events file %q (%v), want it kept as \"keep\\n\"", h, est, js, got, err)
				}
				onlyFile(t, dir, "ev.jsonl")
			}
		}
	}
}

// TestRunWritesEvents pins that a run that succeeds replaces the -events
// file with its trace: one JSON object per line, and no temporary file
// left beside it. A symlink is refused, not replaced by the rename.
func TestRunWritesEvents(t *testing.T) {
	dir := t.TempDir()
	events := filepath.Join(dir, "ev.jsonl")
	if err := os.WriteFile(events, []byte("old\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	o := options{demo: true, approach: "selective", scenario: "none", seed: 1, events: events}
	if err := run(context.Background(), o, io.Discard); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(events)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	if len(lines) < 2 {
		t.Fatalf("events file holds %q, want the run's trace", data)
	}
	for i, line := range lines {
		var ev map[string]any
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("events line %d %q: %v", i+1, line, err)
		}
	}
	onlyFile(t, dir, "ev.jsonl")

	link := filepath.Join(t.TempDir(), "link.jsonl")
	if err := os.Symlink(events, link); err != nil {
		t.Skipf("no symlinks here: %v", err)
	}
	o.events = link
	if err := run(context.Background(), o, io.Discard); err == nil || !strings.Contains(err.Error(), "not a regular file") {
		t.Errorf("-events naming a symlink: error %v, want one saying it is not a regular file", err)
	}
	if fi, err := os.Lstat(link); err != nil || fi.Mode()&os.ModeSymlink == 0 {
		t.Errorf("-events naming a symlink replaced the link: %v, %v", fi, err)
	}
}

// onlyFile fails unless dir holds exactly the file name.
func onlyFile(t *testing.T, dir, name string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != name {
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Errorf("%s holds %q, want only %s", dir, names, name)
	}
}

// TestUsageNamesParse pins that every name the -approach and -scenario
// usage strings list is one their parsers accept, and that each approach
// parses without its MKSS- prefix, as the usage says.
func TestUsageNamesParse(t *testing.T) {
	approaches := usageNames(t, approachUsage)
	if len(approaches) != len(repro.ApproachNames()) {
		t.Errorf("-approach usage lists %q, want all of %q", approaches, repro.ApproachNames())
	}
	for _, name := range approaches {
		for _, spelling := range []string{name, strings.ToLower(strings.TrimPrefix(name, "MKSS-"))} {
			if _, err := repro.ParseApproach(spelling); err != nil {
				t.Errorf("-approach usage lists %q: %v", spelling, err)
			}
		}
	}
	for _, name := range usageNames(t, scenarioUsage) {
		if _, err := repro.ParseScenario(name); err != nil {
			t.Errorf("-scenario usage lists %q: %v", name, err)
		}
	}
}

// usageNames returns the names a usage string lists after its colon.
func usageNames(t *testing.T, usage string) []string {
	t.Helper()
	_, list, ok := strings.Cut(usage, ": ")
	if !ok {
		t.Fatalf("usage %q lists no names", usage)
	}
	return strings.Split(list, " | ")
}
