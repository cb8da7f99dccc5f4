package main

import (
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

// The open-loop dispatcher must wake on time on a two-CPU host whose CPUs
// the daemon keeps busy. Two things make an ordinary goroutine late: the
// runtime's timers wake through epoll with millisecond resolution (half a
// millisecond late on average), and a woken thread may wait out another
// thread's time slice (milliseconds at the tail).

// sleepUntil blocks the calling thread in nanosleep until t.
func sleepUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil)
	}
}

const schedFIFO = 1 // SCHED_FIFO from <sched.h>

// onRealtimeThread runs f on a thread of its own under SCHED_FIFO at the
// lowest real-time priority, so that thread preempts the daemon's when it
// wakes, and reports whether the host allowed the policy (it needs
// CAP_SYS_NICE; without it f runs at normal priority). The thread exits
// with f, so the policy never leaks to other goroutines.
func onRealtimeThread(f func()) bool {
	done := make(chan bool)
	go func() {
		runtime.LockOSThread() // never unlocked: the thread is discarded on return
		prio := int32(1)
		_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER,
			uintptr(syscall.Gettid()), schedFIFO, uintptr(unsafe.Pointer(&prio)))
		f()
		done <- errno == 0
	}()
	return <-done
}
