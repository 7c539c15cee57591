// Package engine mirrors the simulator: a tagged root whose untagged
// helpers must inherit the hot-path checks through the call graph.
package engine

import (
	"fmt"

	"fx/wheel"
)

// Step is the tagged root: its own body is checked as tagged, and what
// it reaches is checked with the call chain cited.
//
//mklint:hotpath
func Step(n int) int {
	return helper(n) + wheel.Scan(n)
}

// helper is NOT tagged, but Step calls it: a per-function check would
// miss it, the call-graph walk must not.
func helper(n int) int {
	s := fmt.Sprintf("n=%d", n) // want hotpath "hot call chain"
	return len(s)
}

// cold is never reached from a tagged root; its formatting is fine.
func cold(n int) string {
	return fmt.Sprintf("cold %d", n)
}
