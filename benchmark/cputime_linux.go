package main

import (
	"syscall"
	"time"
	"unsafe"
)

// clockThreadCPUTime is Linux's CLOCK_THREAD_CPUTIME_ID.
const clockThreadCPUTime = 3

// threadCPU returns the calling OS thread's CPU time: it advances only
// while the thread runs on a CPU. realMain checks once that the clock
// can be read, so probe samples ignore the error.
func threadCPU() (time.Duration, error) {
	var ts syscall.Timespec
	_, _, errno := syscall.RawSyscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0)
	if errno != 0 {
		return 0, errno
	}
	return time.Duration(ts.Nano()), nil
}
