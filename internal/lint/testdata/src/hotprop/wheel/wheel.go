// Package wheel is reached cross-package from engine.Step, including
// through an interface seam the CHA resolution must see through.
package wheel

import (
	"fmt"
	"reflect"
)

type picker interface{ pick(int) int }

type greedy struct{}

// pick is hot only because Scan dispatches to it through the picker
// interface — the CHA edge.
func (greedy) pick(n int) int {
	return int(reflect.ValueOf(n).Int()) // want hotpath "reflect" hotpath "reflect"
}

// Scan is reached from engine.Step (cross-package static edge).
func Scan(n int) int {
	var p picker = greedy{}
	s := fmt.Sprint(n) // want hotpath "fmt.Sprint allocates"
	return p.pick(n) + len(s)
}
