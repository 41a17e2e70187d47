//go:build linux

package main

import (
	"syscall"
	"time"
	"unsafe"
)

// threadCPU returns the calling OS thread's CPU time
// (CLOCK_THREAD_CPUTIME_ID); the caller must be locked to its thread.
func threadCPU() (time.Duration, bool) {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	_, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	if errno != 0 {
		return 0, false
	}
	return time.Duration(ts.Nano()), true
}
