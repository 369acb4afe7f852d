package main

import (
	"os"
	"os/exec"
	"slices"
	"syscall"
	"testing"
	"time"
)

// The process CPU clock must agree with getrusage for this process, to
// well under the clock tick /proc/<pid>/stat counts in.
func TestProcessCPUMatchesRusage(t *testing.T) {
	for t0 := time.Now(); time.Since(t0) < 50*time.Millisecond; {
		calibLoop()
	}
	before := rusage(syscall.RUSAGE_SELF)
	clock, err := processCPU(os.Getpid())
	after := rusage(syscall.RUSAGE_SELF)
	if err != nil {
		t.Fatal(err)
	}
	if clock < before-time.Millisecond || clock > after+time.Millisecond {
		t.Errorf("process CPU clock %v, getrusage %v..%v", clock, before, after)
	}
	p, err := readProc(os.Getpid())
	if err != nil {
		t.Fatal(err)
	}
	if p.cpu < clock {
		t.Errorf("readProc CPU %v is below the clock read before it, %v", p.cpu, clock)
	}
}

// A child process still running must be reported by the leak check once
// a sample has seen it, and no longer once it has ended.
func TestLeakedReportsPlantedChild(t *testing.T) {
	child := exec.Command("sleep", "30")
	if err := child.Start(); err != nil {
		t.Skipf("cannot start a child process: %v", err)
	}
	defer child.Process.Kill()
	s := newProcSet(os.Getpid())
	if _, n := s.sample(); n < 1 {
		t.Fatalf("sample saw %d descendants, want the planted child", n)
	}
	if left := s.leaked(100 * time.Millisecond); !slices.Contains(left, child.Process.Pid) {
		t.Errorf("leaked = %v, want it to name the planted child %d", left, child.Process.Pid)
	}
	child.Process.Kill()
	child.Wait()
	if left := s.leaked(time.Second); len(left) > 0 {
		t.Errorf("leaked = %v after the child was killed and reaped", left)
	}
}
