package main

import (
	"os"
	"os/exec"
	"runtime"
	"syscall"
	"time"
)

// The sandbox is a virtual machine whose CPUs halt when idle, and waking a
// halted virtual CPU costs tens of microseconds that vary with the host. A
// request/reply exchange on an otherwise idle machine pays that on every
// hop: the one-outstanding read took 130-250 µs from run to run with the
// CPUs left to idle and 82-92 µs with them kept awake, and CPU per
// operation fell by a quarter. None of that difference is the product's.
// So a measured run keeps every CPU out of the idle state with one spinner
// process per CPU at the lowest scheduling priority: it gives way to any
// runnable thread of the benchmark at once and is charged to no metric
// (process CPU time excludes children).

// spinArg is the hidden first argument that turns this binary into a spinner.
const spinArg = "-spin-for-parent"

// spinMaxLife bounds a spinner's life whatever happens to its parent.
const spinMaxLife = 5 * time.Minute

// spin is the spinner process: it burns one CPU at nice 19 until its parent
// goes away or its life is up.
func spin() {
	runtime.GOMAXPROCS(1)
	runtime.LockOSThread()
	_ = syscall.Setpriority(syscall.PRIO_PROCESS, 0, 19) // 0: the calling thread, which is the one that spins
	parent, end := os.Getppid(), time.Now().Add(spinMaxLife)
	for os.Getppid() == parent && time.Now().Before(end) {
		for i := 0; i < 1_000_000; i++ { // about a millisecond between looks at the parent
			spinSink++
		}
	}
}

var spinSink int

// keepAwake starts one spinner per CPU and returns the function that stops
// them and waits for each to end. A spinner that cannot be started is not
// an error: the run is then merely as noisy as the sandbox.
func keepAwake() (stop func()) {
	self, err := os.Executable()
	if err != nil {
		return func() {}
	}
	var spinners []*exec.Cmd
	for i := 0; i < runtime.NumCPU(); i++ {
		cmd := exec.Command(self, spinArg)
		if cmd.Start() == nil {
			spinners = append(spinners, cmd)
		}
	}
	return func() {
		for _, cmd := range spinners {
			_ = cmd.Process.Kill()
			_ = cmd.Wait() // reaps it; "signal: killed" is the expected outcome
		}
	}
}
