package repro

import (
	"bytes"
	"testing"

	"repro/internal/analysis"
	"repro/internal/timeu"
)

// FuzzLoadSet decodes arbitrary bytes as a task-set spec. LoadSet must
// never panic, and an accepted set must be one the engine can run: it
// passes Validate, every period, deadline and WCET lies in
// [1 µs, timeu.Infinity), and decoding the same bytes again gives the
// same fingerprint. The seed corpus is in testdata/fuzz/FuzzLoadSet.
func FuzzLoadSet(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := LoadSet(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("accepted set fails Validate (%v) from %q", err, data)
		}
		for i, tk := range s.Tasks {
			for _, v := range []timeu.Time{tk.Period, tk.Deadline, tk.WCET} {
				if v < timeu.Microsecond || v >= timeu.Infinity {
					t.Fatalf("task %d: accepted time %d µs outside [1, %d) from %q", i, int64(v), int64(timeu.Infinity), data)
				}
			}
		}
		again, err := LoadSet(bytes.NewReader(data))
		if err != nil || analysis.Fingerprint(again) != analysis.Fingerprint(s) {
			t.Fatalf("a second decode differs (%v) from %q", err, data)
		}
	})
}
