package rta

// The unexported halves of SchedulableRPattern, for the oracle tests in
// package rta_test that compare them on generated task sets.
var (
	WalkFilter       = walkFilter
	FirstJobsFit     = firstJobsFit
	FirstJobResponse = firstJobResponse
)
