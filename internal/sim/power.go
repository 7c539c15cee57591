package sim

import (
	"fmt"

	"repro/internal/timeu"
)

// PowerModel captures the paper's energy model (§II-A): a busy processor
// always consumes the active power P_act (normalized to 1, so one unit of
// energy per unit of busy time); when no job is pending the processor can
// be put into a low-power state by dynamic power-down (DPD) provided the
// idle interval exceeds the break-even time T_be.
type PowerModel struct {
	// Active is P_act, the power while executing (paper: 1, normalized).
	Active float64
	// Idle is the power while awake but not executing. The paper reports
	// *active* energy only; a small non-zero default keeps total-energy
	// comparisons honest without affecting the headline metric.
	Idle float64
	// Sleep is the power in the DPD low-power state.
	Sleep float64
	// BreakEven is T_be: an idle gap is slept through only if it is
	// strictly longer than this (paper: T_be = 1 ms).
	BreakEven timeu.Time
}

// DefaultPower returns the paper's model: P_act = 1, T_be = 1 ms, with
// idle power 0.05 and sleep power 0 as documented substitutions.
func DefaultPower() PowerModel {
	return PowerModel{Active: 1, Idle: 0.05, Sleep: 0, BreakEven: timeu.Millisecond}
}

func (p PowerModel) String() string {
	return fmt.Sprintf("power{act=%g idle=%g sleep=%g Tbe=%v}", p.Active, p.Idle, p.Sleep, p.BreakEven)
}
