package main

import (
	"syscall"
	"time"
)

// The runtime's timers wake a sleeping goroutine with about a millisecond of
// slack here, which would add up to a millisecond of generator lateness to
// every open-loop request. The schedulers instead sleep their own locked OS
// thread with nanosleep and ask the kernel for minimal timer slack, which
// brings the overshoot to tens of microseconds.

// preciseTimers sets the calling thread's timer slack to 1 ns. The caller
// must hold runtime.LockOSThread.
func preciseTimers() {
	const prSetTimerSlack = 29
	syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, 1, 0)
}

// sleepUntil blocks the calling thread until t.
func sleepUntil(t time.Time) {
	d := time.Until(t)
	if d <= 0 {
		return
	}
	ts := syscall.NsecToTimespec(d.Nanoseconds())
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}
