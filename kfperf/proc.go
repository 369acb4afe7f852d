package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// clockTick is the unit of the CPU times in /proc/<pid>/stat (USER_HZ,
// 100 on every Linux configuration Go supports).
const clockTick = 10 * time.Millisecond

// procInfo is the part of /proc/<pid>/stat the benchmark reads.
type procInfo struct {
	pid, ppid int
	state     byte
	// cpu is user+system time of the process plus that of its reaped
	// children, so a worker that exited and was waited for stays counted
	// in its parent.
	cpu   time.Duration
	start uint64 // start time in ticks since boot: tells pid reuse apart
}

func readProc(pid int) (procInfo, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return procInfo{}, err
	}
	// The command name (field 2) may hold spaces; the fields after it
	// start past the last ')'.
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return procInfo{}, fmt.Errorf("/proc/%d/stat: no command field", pid)
	}
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 20 {
		return procInfo{}, fmt.Errorf("/proc/%d/stat: %d fields", pid, len(f))
	}
	// f[0] is field 3 (state); field k is f[k-3].
	num := func(k int) int64 { v, _ := strconv.ParseInt(f[k-3], 10, 64); return v }
	p := procInfo{pid: pid, ppid: int(num(4)), state: f[0][0], start: uint64(num(22))}
	p.cpu = time.Duration(num(14)+num(15)+num(16)+num(17)) * clockTick
	if own, err := processCPU(pid); err == nil {
		// The process's own time to the nanosecond; only its reaped
		// children stay in clock ticks.
		p.cpu = own + time.Duration(num(16)+num(17))*clockTick
	}
	return p, nil
}

// processCPU reads the CPU-time clock of process pid (all its threads,
// live and exited), which Linux lets any process read.
func processCPU(pid int) (time.Duration, error) {
	var ts syscall.Timespec
	clock := uintptr(^pid<<3 | 2) // MAKE_PROCESS_CPUCLOCK(pid, CPUCLOCK_SCHED)
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clock, uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		return 0, e
	}
	return time.Duration(ts.Nano()), nil
}

// descendants returns root and every live process below it.
func descendants(root int) []procInfo {
	kids := map[int][]procInfo{}
	var self procInfo
	dirs, _ := filepath.Glob("/proc/[0-9]*")
	for _, d := range dirs {
		pid, err := strconv.Atoi(filepath.Base(d))
		if err != nil {
			continue
		}
		p, err := readProc(pid)
		if err != nil {
			continue // exited while scanning
		}
		if pid == root {
			self = p
			continue
		}
		kids[p.ppid] = append(kids[p.ppid], p)
	}
	if self.pid == 0 {
		return nil
	}
	out := []procInfo{self}
	for i := 0; i < len(out); i++ {
		out = append(out, kids[out[i].pid]...)
	}
	return out
}

// procSet tracks a process and its descendants (the ipc workers) for the
// CPU, memory and leak metrics.
type procSet struct {
	root int
	seen map[int]uint64 // every descendant ever observed: pid -> start time
}

func newProcSet(root int) *procSet { return &procSet{root: root, seen: map[int]uint64{}} }

// sample returns the set's total CPU time and its live worker count, and
// records the workers for the leak check.
func (s *procSet) sample() (cpu time.Duration, workers int) {
	for _, p := range descendants(s.root) {
		cpu += p.cpu
		if p.pid != s.root {
			s.seen[p.pid] = p.start
			workers++
		}
	}
	return cpu, workers
}

// peakRSSMB sums the peak resident set (VmHWM) of the live processes.
func (s *procSet) peakRSSMB() float64 {
	root, rest := s.peakRSSParts()
	return root + rest
}

// peakRSSParts returns the peak resident set (VmHWM) of the root process
// and the sum of those of its live descendants, in MB.
func (s *procSet) peakRSSParts() (root, rest float64) {
	for _, p := range descendants(s.root) {
		b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.pid))
		if err != nil {
			continue
		}
		for _, line := range strings.Split(string(b), "\n") {
			if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				kb, _ := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 10, 64)
				if p.pid == s.root {
					root += float64(kb) / 1024
				} else {
					rest += float64(kb) / 1024
				}
			}
		}
	}
	return root, rest
}

// resetPeakRSS restarts this process's peak resident size (VmHWM) from
// its current size.
func resetPeakRSS() error { return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) }

// leaked waits up to grace for every observed descendant to end and
// returns those still running. A zombie has ended; a pid now held by a
// process with another start time is a reuse, not a leak.
func (s *procSet) leaked(grace time.Duration) []int {
	deadline := time.Now().Add(grace)
	for {
		var alive []int
		for pid, start := range s.seen {
			p, err := readProc(pid)
			if err == nil && p.start == start && p.state != 'Z' && p.state != 'X' {
				alive = append(alive, pid)
			}
		}
		if len(alive) == 0 || time.Now().After(deadline) {
			return alive
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// calibLoop is a fixed pure-CPU loop; its wall time tracks how much of a
// core the host gives this process at the moment.
func calibLoop() time.Duration {
	t0 := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < 2_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	calibSink = x
	return time.Since(t0)
}

var calibSink uint64

// hostRecord describes the machine a result came from, so a reader can
// tell host drift from a code change.
type hostRecord struct {
	Workload   string    `json:"workload"`
	Seed       int64     `json:"seed"`
	Trace      bool      `json:"trace"`
	NProc      int       `json:"nproc"`
	GOMAXPROCS int       `json:"gomaxprocs"`
	GoVersion  string    `json:"go_version"`
	LoadAvg    string    `json:"loadavg_start"`
	CalibMs    []float64 `json:"host.calib_ms"`
	// CalibIQR is the calibration series' quartile spread over its
	// median: how steady the host was during the run.
	CalibIQR float64 `json:"host.calib_iqr_share"`
	// StealFrac is the share of the host's CPU time the hypervisor gave
	// to other guests during the run (/proc/stat steal).
	StealFrac float64 `json:"steal_frac"`
	stat0     []int64
}

func newHostRecord(workload string, seed int64, trace bool) *hostRecord {
	load, _ := os.ReadFile("/proc/loadavg")
	f := strings.Fields(string(load))
	if len(f) > 3 {
		f = f[:3]
	}
	return &hostRecord{
		Workload: workload, Seed: seed, Trace: trace,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), LoadAvg: strings.Join(f, " "),
		stat0: cpuTicks(),
	}
}

// cpuTicks reads the host-wide CPU time counters, the first line of
// /proc/stat (user nice system idle iowait irq softirq steal ...).
func cpuTicks() []int64 {
	b, _ := os.ReadFile("/proc/stat")
	line, _, _ := strings.Cut(string(b), "\n")
	var out []int64
	for _, f := range strings.Fields(line)[1:] {
		v, _ := strconv.ParseInt(f, 10, 64)
		out = append(out, v)
	}
	return out
}

// finish records the calibration spread and the steal share since the
// record was made.
func (h *hostRecord) finish() {
	if len(h.CalibMs) > 0 {
		h.CalibIQR = iqrShare(h.CalibMs)
	}
	now := cpuTicks()
	if len(now) < 8 || len(h.stat0) < 8 {
		return
	}
	var total int64
	for i := range now {
		total += now[i] - h.stat0[i]
	}
	if total > 0 {
		h.StealFrac = float64(now[7]-h.stat0[7]) / float64(total)
	}
}

// calibrate times one calibration slice and adds it to the series.
func (h *hostRecord) calibrate() { h.CalibMs = append(h.CalibMs, ms(calibLoop())) }

// selfCPU is this process's user+system CPU time so far.
func selfCPU() time.Duration { return rusage(syscall.RUSAGE_SELF) }

func rusage(who int) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(who, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// cpu is the set's CPU time so far, as sample gives it, but with no
// part in clock ticks where it can be: when the set is rooted at this
// process, its own time and that of its reaped children come from
// getrusage.
func (s *procSet) cpu() time.Duration {
	if s.root != os.Getpid() {
		cpu, _ := s.sample()
		return cpu
	}
	t := rusage(syscall.RUSAGE_SELF) + rusage(syscall.RUSAGE_CHILDREN)
	for _, p := range descendants(s.root) {
		if p.pid != s.root {
			t += p.cpu
			s.seen[p.pid] = p.start
		}
	}
	return t
}
