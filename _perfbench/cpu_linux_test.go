package main

import (
	"runtime"
	"syscall"
	"testing"
	"unsafe"
)

// threadMask reads the affinity mask of the calling goroutine's thread.
func threadMask(t *testing.T) cpuMask {
	t.Helper()
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	var m cpuMask
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m))); e != 0 {
		t.Fatalf("sched_getaffinity: %v", e)
	}
	return m
}

func TestCPURotorPinsInTurnAndRestores(t *testing.T) {
	r := newCPURotor()
	if r == nil || len(r.cpus) < 2 {
		t.Skip("fewer than two CPUs to rotate over")
	}
	defer r.restore()
	for i := 0; i < 2*len(r.cpus); i++ {
		r.step()
		c := r.cpus[i%len(r.cpus)]
		var want cpuMask
		want[c/64] = 1 << (c % 64)
		if got := threadMask(t); got != want {
			t.Fatalf("step %d: thread mask %x, want only CPU %d", i, got, c)
		}
	}
	r.restore()
	if got := threadMask(t); got != r.orig {
		t.Fatalf("after restore: thread mask %x, want %x", got, r.orig)
	}
}
