package main

import (
	"fmt"
	"math"
	"os"
	"runtime/debug"
	"time"

	"repro/internal/core"
	"repro/internal/jacobi"
	"repro/internal/machine"
	"repro/internal/perfest"
	"repro/internal/progs"
)

// The jacobi-* workloads: the registered jacobi program, n=256, one sweep,
// on a warmed 32x32 System of 4 nodes with the calendar executor and
// priced inter-node links.
const (
	jacobiN     = 256
	jacobiGrid  = 32
	jacobiNodes = 4
)

func jacobiCost() machine.CostModel {
	return machine.CostModel{Latency: 1e-6, BytePeriod: 1e-9}.WithInterNode(4, 8)
}

func jacobiSystem(transport string) (*core.System, error) {
	return core.NewSystem(core.Grid(jacobiGrid, jacobiGrid), core.Transport(transport),
		core.Nodes(jacobiNodes), core.Cost(jacobiCost()), core.Executor("calendar"))
}

// oracle holds what every run of one program must reproduce bit for bit:
// the values and the census.
type oracle struct {
	values []float64
	stats  machine.Stats // only the census fields are compared
	links  *core.LinkCensus
}

// check compares a run with the oracle; the first run checked fixes the
// census the later ones must repeat.
func (o *oracle) check(run core.Run) error {
	if len(run.Values) != len(o.values) {
		return fmt.Errorf("%d values, want %d", len(run.Values), len(o.values))
	}
	for i, v := range run.Values {
		if math.Float64bits(v) != math.Float64bits(o.values[i]) {
			return fmt.Errorf("value %d = %v, want %v", i, v, o.values[i])
		}
	}
	if o.stats == (machine.Stats{}) {
		o.stats, o.links = run.Stats, run.Links
		return nil
	}
	s := run.Stats
	if s.Flops != o.stats.Flops || s.MsgsSent != o.stats.MsgsSent ||
		s.BytesSent != o.stats.BytesSent || s.MsgsRecv != o.stats.MsgsRecv {
		return fmt.Errorf("census %d flops/%d msgs/%d bytes/%d recvs, want %d/%d/%d/%d",
			s.Flops, s.MsgsSent, s.BytesSent, s.MsgsRecv,
			o.stats.Flops, o.stats.MsgsSent, o.stats.BytesSent, o.stats.MsgsRecv)
	}
	if !sameLinks(run.Links, o.links) {
		return fmt.Errorf("link census differs from the first run's")
	}
	return nil
}

func sameLinks(a, b *core.LinkCensus) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.Nodes != b.Nodes {
		return false
	}
	for i := range a.Msgs {
		for j := range a.Msgs[i] {
			if a.Msgs[i][j] != b.Msgs[i][j] || a.Bytes[i][j] != b.Bytes[i][j] {
				return false
			}
		}
	}
	return true
}

// jacobiOracle is the sequential reference for the workload's program.
func jacobiOracle() *oracle {
	x0, f := jacobi.Problem(jacobiN)
	var flat []float64
	for _, row := range jacobi.Sequential(x0, f, 1) {
		flat = append(flat, row...)
	}
	return &oracle{values: flat}
}

// checkInterNode verifies that the per-sweep link census of sys is
// exactly perfest's enumeration of the inter-node halo edges, by
// differencing a two-sweep and a one-sweep run.
func checkInterNode(sys *core.System) error {
	var runs [2]core.Run
	for i := range runs {
		p, err := progs.Jacobi(jacobiN, i+1)
		if err != nil {
			return err
		}
		if runs[i], err = sys.RunProgram(p); err != nil {
			return err
		}
	}
	msgs, bytes := runs[1].Links.Sub(runs[0].Links).Total()
	wm, wb := perfest.JacobiInterNode(jacobiN, jacobiGrid, jacobiNodes)
	if int(msgs) != wm || int(bytes) != wb {
		return fmt.Errorf("per-sweep link census %d msgs/%d bytes, perfest enumerates %d/%d", msgs, bytes, wm, wb)
	}
	return nil
}

// loop is a closed-loop jacobi workload: one warmed System running the
// registered program, every run checked against the sequential oracle.
type loop struct {
	transport string
	oracle    *oracle
	workers   int // ipc worker processes the System runs with
}

func jacobiLoop(transport string) *loop {
	l := &loop{transport: transport, oracle: jacobiOracle()}
	if transport == "ipc" {
		l.workers = jacobiNodes
	}
	return l
}

// setup builds the program and a System, and warms it with two runs: the
// first builds (and on ipc spawns the worker fleet), the second installs
// the reuse caches (on ipc, on both sides of the sockets).
func (l *loop) setup() (*core.System, *core.Program, time.Duration, error) {
	t0 := time.Now()
	prog, err := progs.Jacobi(jacobiN, 1)
	if err != nil {
		return nil, nil, 0, err
	}
	sys, err := jacobiSystem(l.transport)
	if err != nil {
		return nil, nil, 0, err
	}
	for i := 0; i < 2; i++ {
		run, err := sys.RunProgram(prog)
		if err == nil {
			err = l.oracle.check(run)
		}
		if err != nil {
			sys.Close()
			return nil, nil, 0, fmt.Errorf("warm run %d on %s: %w", i, l.transport, err)
		}
	}
	return sys, prog, time.Since(t0), nil
}

// measureLoop runs a closed-loop workload: one caller, one run at a
// time, back to back. Time is cut into half-second slices, each after a
// calibration slice, and every eighth slice the System is closed and a
// fresh one set up and warmed: setup_s is the median of these set-ups,
// spread over the run like the runs themselves so that a burst of host
// load reaches both alike, and peak_rss_mb the median over the Systems
// of the process set's peak resident size while each was alive. The
// program and its inputs are fixed; the seed is only recorded.
func measureLoop(r *run, l *loop) error {
	const slice, resetEvery = 500 * time.Millisecond, 8
	procs := newProcSet(os.Getpid())
	// Each set-up is timed twice: its CPU time over the process set is
	// setup_s (it shows work moved into set-up while holding still under
	// host load), its wall time is reported beside it.
	var setupCPU, setupWall []float64
	setup := func() (sys *core.System, prog *core.Program, err error) {
		// Each System's peak starts from a heap that holds none of the
		// previous System's freed pages, so that it does not depend on
		// when the runtime last returned memory to the system.
		debug.FreeOSMemory()
		if err := resetPeakRSS(); err != nil {
			return nil, nil, err
		}
		c0 := procs.cpu()
		sys, prog, d, err := l.setup()
		setupCPU, setupWall = append(setupCPU, (procs.cpu()-c0).Seconds()), append(setupWall, d.Seconds())
		return sys, prog, err
	}
	sys, prog, err := setup()
	if err != nil {
		return err
	}
	if err := checkInterNode(sys); err != nil {
		sys.Close()
		return err
	}
	var runs []float64
	// excluded is CPU spent on calibration and set-ups, which
	// cpu_ms_per_op leaves out.
	var excluded time.Duration
	// rss holds the peak of each System's life, from its set-up to its
	// last slice; the ipc workers live as long as their System.
	var rss []float64
	cpu0 := procs.cpu()
	start := time.Now()
	deadline := start.Add(r.seconds)
	for i := 0; time.Now().Before(deadline); i++ {
		if i > 0 && i%resetEvery == 0 {
			rss = append(rss, procs.peakRSSMB())
			c0 := procs.cpu()
			if err := sys.Close(); err != nil {
				r.fail("close: %v", err)
			}
			if sys, prog, err = setup(); err != nil {
				return err
			}
			excluded += procs.cpu() - c0
		}
		c0 := selfCPU()
		r.host.calibrate()
		excluded += selfCPU() - c0
		for end := time.Now().Add(slice); time.Now().Before(end); {
			d, _ := checkedRun(r, sys, prog, l.oracle, "core.RunProgram/"+r.workload)
			runs = append(runs, ms(d))
		}
	}
	cpu1 := procs.cpu()
	_, workers := procs.sample()
	if len(rss) == 0 { // a run too short to replace the System
		rss = append(rss, procs.peakRSSMB())
	}
	if err := sys.Close(); err != nil {
		r.fail("close: %v", err)
	}
	if workers != l.workers {
		r.fail("%d worker processes during the run, want %d", workers, l.workers)
	}
	if left := procs.leaked(3 * time.Second); len(left) > 0 {
		r.fail("worker processes %v still running after Close", left)
	}
	r.set("setup_s", median(setupCPU))
	r.set("setup_wall_s", median(setupWall))
	r.set("run_ms.p50", quantile(runs, 0.5))
	r.set("run_ms.p90", quantile(runs, 0.9))
	r.set("cpu_ms_per_op", ms(cpu1-cpu0-excluded)/float64(len(runs)))
	r.set("peak_rss_mb", median(rss))
	fmt.Fprintf(os.Stderr, "kfperf: %s: %d runs, %d set-ups in %v\n",
		r.workload, len(runs), len(setupCPU), time.Since(start).Round(time.Millisecond))
	return nil
}
