// Tests for the public API surface hardened in this PR: LoadSet's
// field-path validation errors and the canonical approach name table.
package repro

import (
	"strings"
	"testing"
)

func TestLoadSetFieldPathErrors(t *testing.T) {
	cases := []struct {
		name string
		json string
		want string // substring of the error, anchored at the field path
	}{
		{"nan period", `{"tasks":[{"period_ms":null,"wcet_ms":1,"m":1,"k":2}]}`,
			"tasks[0].period_ms: is missing or zero"},
		{"negative period", `{"tasks":[{"period_ms":-5,"wcet_ms":1,"m":1,"k":2}]}`,
			"tasks[0].period_ms: is negative"},
		{"negative deadline", `{"tasks":[{"period_ms":5,"deadline_ms":-4,"wcet_ms":1,"m":1,"k":2}]}`,
			"tasks[0].deadline_ms: is negative"},
		{"negative wcet", `{"tasks":[{"period_ms":5,"wcet_ms":-1,"m":1,"k":2}]}`,
			"tasks[0].wcet_ms: is negative"},
		{"zero wcet", `{"tasks":[{"period_ms":5,"m":1,"k":2}]}`,
			"tasks[0].wcet_ms: is missing or zero"},
		{"zero k", `{"tasks":[{"period_ms":5,"wcet_ms":1,"m":1,"k":0}]}`,
			"tasks[0].k: must be positive"},
		{"negative k", `{"tasks":[{"period_ms":5,"wcet_ms":1,"m":1,"k":-3}]}`,
			"tasks[0].k: must be positive"},
		{"zero m", `{"tasks":[{"period_ms":5,"wcet_ms":1,"m":0,"k":2}]}`,
			"tasks[0].m: must be positive"},
		{"m exceeds k", `{"tasks":[{"period_ms":5,"wcet_ms":1,"m":3,"k":2}]}`,
			"tasks[0].m: exceeds k (3 > 2)"},
		{"second task flagged", `{"tasks":[{"period_ms":5,"wcet_ms":1,"m":1,"k":2},{"period_ms":5,"wcet_ms":1,"m":5,"k":4}]}`,
			"tasks[1].m: exceeds k (5 > 4)"},
		{"period beyond int64 microseconds", `{"tasks":[{"period_ms":1e16,"wcet_ms":1,"m":1,"k":2}]}`,
			"tasks[0].period_ms: is too large (1e+16;"},
		{"period beyond the never instant", `{"tasks":[{"period_ms":3e15,"wcet_ms":1,"m":1,"k":2}]}`,
			"tasks[0].period_ms: is too large (3e+15;"},
		{"wcet below a microsecond", `{"tasks":[{"period_ms":5,"wcet_ms":0.0001,"m":1,"k":2}]}`,
			"tasks[0].wcet_ms: rounds to zero microseconds (0.0001)"},
		{"deadline below a microsecond", `{"tasks":[{"period_ms":5,"deadline_ms":0.0004,"wcet_ms":1,"m":1,"k":2}]}`,
			"tasks[0].deadline_ms: rounds to zero microseconds (0.0004)"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := LoadSet(strings.NewReader(tc.json))
			if err == nil {
				t.Fatalf("LoadSet accepted %s", tc.json)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not contain %q", err, tc.want)
			}
		})
	}
}

// JSON can smuggle NaN/Inf only via strings, which float64 fields reject,
// so the NaN/Inf branches are exercised through the spec type directly at
// the internal boundary LoadSet uses.
func TestLoadSetLargeFiniteValuesAccepted(t *testing.T) {
	s, err := LoadSet(strings.NewReader(
		`{"tasks":[{"period_ms":1e6,"wcet_ms":1,"m":1,"k":2}]}`))
	if err != nil {
		t.Fatalf("finite large period rejected: %v", err)
	}
	if s.N() != 1 {
		t.Fatalf("n = %d", s.N())
	}
}

func TestParseApproachCanonicalTable(t *testing.T) {
	all := []Approach{ST, DP, Greedy, Selective, DPBackground, DBP}
	for _, a := range all {
		name := a.String()
		// String → Parse round-trip, case-insensitively.
		for _, form := range []string{name, strings.ToLower(name), strings.ToUpper(name), " " + name + " "} {
			got, err := ParseApproach(form)
			if err != nil {
				t.Errorf("ParseApproach(%q): %v", form, err)
				continue
			}
			if got != a {
				t.Errorf("ParseApproach(%q) = %v, want %v", form, got, a)
			}
		}
		// MarshalText/UnmarshalText round-trip.
		text, err := a.MarshalText()
		if err != nil {
			t.Fatalf("%v MarshalText: %v", a, err)
		}
		if string(text) != name {
			t.Errorf("%v MarshalText = %q, want %q", a, text, name)
		}
		var back Approach
		if err := back.UnmarshalText(text); err != nil {
			t.Fatalf("UnmarshalText(%q): %v", text, err)
		}
		if back != a {
			t.Errorf("UnmarshalText(%q) = %v, want %v", text, back, a)
		}
	}
	// Short CLI aliases, with underscore/dash interchange.
	aliases := map[string]Approach{
		"st": ST, "dp": DP, "greedy": Greedy, "selective": Selective,
		"sel": Selective, "dp-background": DPBackground, "dpbg": DPBackground,
		"dp_background": DPBackground, "MKSS_selective": Selective,
		"dbp": DBP, "distance": DBP, "mkss-dbp": DBP, "MKSS_DBP": DBP,
	}
	for in, want := range aliases {
		got, err := ParseApproach(in)
		if err != nil {
			t.Errorf("ParseApproach(%q): %v", in, err)
			continue
		}
		if got != want {
			t.Errorf("ParseApproach(%q) = %v, want %v", in, got, want)
		}
	}
	if _, err := ParseApproach("edf"); err == nil {
		t.Error("ParseApproach accepted edf")
	}
	names := ApproachNames()
	if len(names) != len(all) {
		t.Fatalf("ApproachNames = %v, want %d entries", names, len(all))
	}
	for i, a := range all {
		if names[i] != a.String() {
			t.Errorf("ApproachNames[%d] = %q, want %q", i, names[i], a)
		}
	}
}

func TestParseScenario(t *testing.T) {
	cases := map[string]Scenario{
		"":                      NoFault,
		"none":                  NoFault,
		"no-fault":              NoFault,
		"NONE":                  NoFault,
		"permanent":             PermanentOnly,
		"Permanent":             PermanentOnly,
		"permanent+transient":   PermanentAndTransient,
		"both":                  PermanentAndTransient,
		" permanent+transient ": PermanentAndTransient,
	}
	for in, want := range cases {
		got, err := ParseScenario(in)
		if err != nil {
			t.Errorf("ParseScenario(%q): %v", in, err)
			continue
		}
		if got != want {
			t.Errorf("ParseScenario(%q) = %v, want %v", in, got, want)
		}
	}
	if _, err := ParseScenario("meteor"); err == nil {
		t.Error("ParseScenario accepted meteor")
	}
}
