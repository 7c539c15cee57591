//go:build !linux

package main

// cpuRotor rotates the process's threads across CPUs on Linux only
// (see cpu_linux.go); elsewhere it does nothing.
type cpuRotor struct{}

func newCPURotor() *cpuRotor { return nil }

func (r *cpuRotor) step()    {}
func (r *cpuRotor) restore() {}
