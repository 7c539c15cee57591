package main

import (
	"os"
	"strconv"
	"syscall"
	"unsafe"
)

// cpuMask is a Linux CPU affinity mask (1024 CPUs).
type cpuMask [16]uint64

// cpuRotor moves every thread of the process onto one of the CPUs the
// process may use, a different one at each step, in turn. On a shared
// host each vCPU meets its own contention from other tenants, and a
// thread the kernel leaves on one vCPU for a whole run takes that vCPU's
// luck into the run's figures; rotating makes every run sample every
// vCPU (README.md has the measurements). A nil rotor, or one with fewer
// than two CPUs, does nothing.
type cpuRotor struct {
	cpus []int
	orig cpuMask
	next int
}

// newCPURotor returns a rotor over the CPUs in the process's affinity
// mask, or nil when the mask cannot be read.
func newCPURotor() *cpuRotor {
	var m cpuMask
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m))); e != 0 {
		return nil
	}
	r := &cpuRotor{orig: m}
	for c := 0; c < len(m)*64; c++ {
		if m[c/64]&(1<<(c%64)) != 0 {
			r.cpus = append(r.cpus, c)
		}
	}
	return r
}

// step pins every thread to the next CPU.
func (r *cpuRotor) step() {
	if r == nil || len(r.cpus) < 2 {
		return
	}
	c := r.cpus[r.next%len(r.cpus)]
	r.next++
	var m cpuMask
	m[c/64] = 1 << (c % 64)
	setAffinity(&m)
}

// restore gives every thread the process's original mask back.
func (r *cpuRotor) restore() {
	if r == nil || len(r.cpus) < 2 {
		return
	}
	setAffinity(&r.orig)
}

// setAffinity applies m to every thread of the process; threads created
// later inherit their creator's mask. A failure leaves a thread where it
// is, which loses some averaging but changes no result, so errors are
// dropped.
func setAffinity(m *cpuMask) {
	tasks, err := os.ReadDir("/proc/self/task")
	if err != nil {
		return
	}
	for _, t := range tasks {
		tid, err := strconv.Atoi(t.Name())
		if err != nil {
			continue
		}
		_, _, _ = syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(*m), uintptr(unsafe.Pointer(m)))
	}
}
