package main

import (
	"math/rand"
	"runtime"
	"syscall"
	"time"
)

// poissonSchedule draws the due offsets of an open-loop arrival process:
// exponential gaps at the given mean rate, up to window.
func poissonSchedule(rng *rand.Rand, perSecond float64, window time.Duration) []time.Duration {
	var due []time.Duration
	at := time.Duration(0)
	for {
		at += time.Duration(rng.ExpFloat64() / perSecond * float64(time.Second))
		if at >= window {
			return due
		}
		due = append(due, at)
	}
}

// pacer issues requests on a fixed schedule regardless of how the system
// answers. Every request is handed its due time, which is what latency is
// measured from: a stall (of the generator or the system) makes the
// requests behind it late, and they inherit the wait instead of hiding it.
type pacer struct {
	now   func() time.Time
	sleep func(time.Duration)
}

// realPacer sleeps with nanosleep(2): time.Sleep on an idle P rounds up to
// about a millisecond, which would floor every sub-millisecond gap.
func realPacer() pacer {
	return pacer{now: time.Now, sleep: func(d time.Duration) {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // an early wake-up is absorbed by the caller's loop
	}}
}

// run issues request i at start+due[i], or as soon after as the generator
// gets there, and returns how late each issue was, in microseconds. The
// caller's goroutine is pinned to its OS thread for the duration so the
// sleep is the thread's own.
func (p pacer) run(start time.Time, due []time.Duration, issue func(i int, due time.Time)) samples {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	late := make(samples, 0, len(due))
	for i, d := range due {
		target := start.Add(d)
		now := p.now()
		for now.Before(target) {
			p.sleep(target.Sub(now))
			now = p.now()
		}
		late = append(late, float64(now.Sub(target))/float64(time.Microsecond))
		issue(i, target)
	}
	return late
}
