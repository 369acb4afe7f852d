package progs_test

import (
	"errors"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/adi"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/perfest"
	"repro/internal/progs"
)

// These tests run in an exec-armed binary (importing progs arms worker
// execution), so every ipc System here executes its ranks inside the
// worker processes — the relay path is covered by internal/machine's own
// tests, whose binary is not armed.

func mustSys(t *testing.T, opts ...core.Option) *core.System {
	t.Helper()
	sys, err := core.NewSystem(opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })
	return sys
}

func mustProg(t *testing.T, name string, args ...float64) *core.Program {
	t.Helper()
	p, err := core.BuildProgram(name, args...)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func ipcTransport(t *testing.T, sys *core.System) *machine.IPCTransport {
	t.Helper()
	tr, ok := sys.Machine.Transport().(*machine.IPCTransport)
	if !ok {
		t.Fatalf("system transport is %T, want *machine.IPCTransport", sys.Machine.Transport())
	}
	return tr
}

func TestRanksRunInsideWorkers(t *testing.T) {
	// The tentpole's defining property, observed directly: each rank of a
	// distributed run reports the pid of the process that hosted it, and
	// those pids are the worker fleet's — never the coordinator's.
	sys := mustSys(t, core.Grid(2, 2), core.Transport("ipc"), core.Nodes(2))
	run, err := sys.RunProgram(mustProg(t, "hostpid"))
	if err != nil {
		t.Fatal(err)
	}
	if len(run.Values) != 4 {
		t.Fatalf("hostpid values = %v, want one per rank", run.Values)
	}
	coord := float64(os.Getpid())
	pids := ipcTransport(t, sys).WorkerPIDs()
	if len(pids) != 2 {
		t.Fatalf("worker fleet pids = %v, want 2", pids)
	}
	for rank, v := range run.Values {
		if v == coord {
			t.Errorf("rank %d ran in the coordinator process", rank)
		}
		node := rank / 2
		if v != float64(pids[node]) {
			t.Errorf("rank %d ran in pid %v, want node %d worker pid %d", rank, v, node, pids[node])
		}
	}
	// The coordinator's own sub-machine never executed a rank: its clocks
	// are untouched while the assembled run carries the workers' times.
	if got := sys.Machine.Elapsed(); got != 0 {
		t.Errorf("coordinator machine elapsed = %v after a distributed run, want 0", got)
	}
}

// TestWorkerExecConformance is the transport-invariance verdict with ranks
// in the workers: values, censuses and virtual times bit-identical to a
// shared-memory run, under both the goroutine and calendar executors.
func TestWorkerExecConformance(t *testing.T) {
	par := adi.Params{N: 32, A: 1, B: 1, Iters: 2}
	jp, err := progs.Jacobi(64, 2)
	if err != nil {
		t.Fatal(err)
	}
	ap, err := progs.ADI(par, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, executor := range []string{"goroutine", "calendar"} {
		for _, prog := range []*core.Program{jp, ap} {
			t.Run(executor+"/"+prog.Name, func(t *testing.T) {
				shared := mustSys(t, core.Grid(4, 4), core.Executor(executor))
				ipc := mustSys(t, core.Grid(4, 4), core.Executor(executor), core.Transport("ipc"), core.Nodes(4))
				cmp, err := core.Compare(prog, shared, ipc)
				if err != nil {
					t.Fatal(err)
				}
				if !cmp.Identical || !cmp.TimesIdentical {
					t.Errorf("shared vs ipc(workers): values=%v census=%v times=%v",
						cmp.ValuesIdentical, cmp.CensusIdentical, cmp.TimesIdentical)
				}
				if cmp.B.Links == nil {
					t.Error("distributed run has no link census")
				}
				if len(ipcTransport(t, ipc).WorkerPIDs()) != 4 {
					t.Error("distributed run spawned no worker fleet")
				}
			})
		}
	}
}

// TestWorkerExecTCPLoopback is the same conformance row over a TCP
// listener instead of unix sockets (core.ListenAddr).
// TestDirectSchedulingConcurrentRuns pins DirectScheduling as per-machine
// state: a direct and a scheduled System run at the same time without
// seeing each other's mode, bit-identical to each other; and a direct ipc
// System ships the mode in its run spec, so its ranks still execute inside
// the workers, bit-identical to a shared run.
func TestDirectSchedulingConcurrentRuns(t *testing.T) {
	prog := mustProg(t, "jacobi", 64, 2)
	direct := mustSys(t, core.Grid(4, 4), core.DirectScheduling())
	sched := mustSys(t, core.Grid(4, 4))
	var wg sync.WaitGroup
	var runs [2]core.Run
	var errs [2]error
	for round := 0; round < 10; round++ {
		wg.Add(2)
		go func() { defer wg.Done(); runs[0], errs[0] = direct.RunProgram(prog) }()
		go func() { defer wg.Done(); runs[1], errs[1] = sched.RunProgram(prog) }()
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
		if cmp := core.CompareRuns(runs[0], runs[1]); !cmp.Identical || !cmp.TimesIdentical {
			t.Fatalf("round %d: concurrent direct vs scheduled runs differ: %+v", round, cmp)
		}
	}

	ipc := mustSys(t, core.Grid(4, 4), core.Transport("ipc"), core.Nodes(4), core.DirectScheduling())
	cmp, err := core.Compare(prog, sched, ipc)
	if err != nil {
		t.Fatal(err)
	}
	if !cmp.Identical || !cmp.TimesIdentical {
		t.Errorf("shared vs direct ipc: values=%v census=%v times=%v",
			cmp.ValuesIdentical, cmp.CensusIdentical, cmp.TimesIdentical)
	}
	run, err := ipc.RunProgram(mustProg(t, "hostpid"))
	if err != nil {
		t.Fatal(err)
	}
	pids := ipcTransport(t, ipc).WorkerPIDs()
	if len(pids) != 4 || len(run.Values) != 16 {
		t.Fatalf("worker pids %v, hostpid values %v: want 4 workers and 16 ranks", pids, run.Values)
	}
	for rank, v := range run.Values {
		if want := float64(pids[rank/4]); v != want {
			t.Errorf("direct ipc rank %d ran in pid %v, want its node's worker pid %v", rank, v, want)
		}
	}
}

func TestWorkerExecTCPLoopback(t *testing.T) {
	shared := mustSys(t, core.Grid(2, 2))
	ipc := mustSys(t, core.Grid(2, 2), core.Transport("ipc"), core.Nodes(2),
		core.ListenAddr("127.0.0.1:0"))
	cmp, err := core.Compare(mustProg(t, "jacobi", 32, 2), shared, ipc)
	if err != nil {
		t.Fatal(err)
	}
	if !cmp.Identical || !cmp.TimesIdentical {
		t.Errorf("shared vs ipc-over-tcp: values=%v census=%v times=%v",
			cmp.ValuesIdentical, cmp.CensusIdentical, cmp.TimesIdentical)
	}
}

// TestDistributedStallMatchesLocal pins the distributed stall verdict to
// the single-process one: the same deliberately deadlocked program must
// fail with the byte-identical error text, and the machine-level cause
// must survive the process boundary for errors.Is.
func TestDistributedStallMatchesLocal(t *testing.T) {
	shared := mustSys(t, core.Grid(2, 2))
	ipc := mustSys(t, core.Grid(2, 2), core.Transport("ipc"), core.Nodes(2))
	prog := mustProg(t, "stall")
	_, localErr := shared.RunProgram(prog)
	if localErr == nil || !errors.Is(localErr, machine.ErrDeadlock) {
		t.Fatalf("shared run of stall program: %v, want a deadlock", localErr)
	}
	_, distErr := ipc.RunProgram(prog)
	if distErr == nil {
		t.Fatal("distributed run of stall program succeeded")
	}
	if !errors.Is(distErr, machine.ErrDeadlock) {
		t.Errorf("distributed stall error does not wrap machine.ErrDeadlock: %v", distErr)
	}
	if localErr.Error() != distErr.Error() {
		t.Errorf("stall error text diverges across the process boundary:\n  local: %s\n  dist:  %s",
			localErr, distErr)
	}
	// The fleet survives the verdict: the same transport runs the next
	// program normally.
	if _, err := ipc.RunProgram(mustProg(t, "jacobi", 32, 1)); err != nil {
		t.Errorf("run after a distributed stall verdict: %v", err)
	}
}

// TestWorkerCrashMidRunNamesNode is the worker-loss path with ranks
// executing remotely: a worker process dying mid-run must surface a
// structured ErrWorkerLost naming the node, and Run must unblock.
func TestWorkerCrashMidRunNamesNode(t *testing.T) {
	ipc := mustSys(t, core.Grid(2, 2), core.Transport("ipc"), core.Nodes(2))
	_, err := ipc.RunProgram(mustProg(t, "crash", 3)) // rank 3 lives on node 1
	if err == nil {
		t.Fatal("run survived its worker crashing")
	}
	if !errors.Is(err, machine.ErrWorkerLost) {
		t.Errorf("crash error does not wrap ErrWorkerLost: %v", err)
	}
	if !strings.Contains(err.Error(), "node 1") {
		t.Errorf("crash error does not name the lost node: %v", err)
	}
}

// TestSystemDoubleCloseDuringRun is the Close regression: closing an ipc
// System twice, concurrently, while a distributed run is in flight must
// not hang or panic — the run aborts and both Closes return cleanly.
func TestSystemDoubleCloseDuringRun(t *testing.T) {
	ipc := mustSys(t, core.Grid(2, 2), core.Transport("ipc"), core.Nodes(2))
	runErr := make(chan error, 1)
	go func() {
		_, err := ipc.RunProgram(mustProg(t, "stall"))
		runErr <- err
	}()
	// Wait until the fleet exists — the run is past setup and in flight.
	tr := ipcTransport(t, ipc)
	for i := 0; len(tr.WorkerPIDs()) < 2 && i < 2000; i++ {
		time.Sleep(time.Millisecond)
	}
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := ipc.Close(); err != nil {
				t.Errorf("Close: %v", err)
			}
		}()
	}
	wg.Wait()
	select {
	case err := <-runErr:
		if err == nil {
			t.Error("stall run reported success")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("in-flight run never unblocked after Close")
	}
	if _, err := ipc.RunProgram(mustProg(t, "jacobi", 32, 1)); err == nil {
		t.Error("RunProgram succeeded on a closed system")
	}
}

// TestWireTrafficMatchesPerfEst is the execution-plane payoff, pinned
// exactly: with ranks inside the workers the socket link census is the
// genuine inter-node edge set, so differencing two iteration counts must
// reproduce perfest's combinatorial enumeration bit-for-bit.
func TestWireTrafficMatchesPerfEst(t *testing.T) {
	const n, p, nodes = 256, 16, 4
	ipc := mustSys(t, core.Grid(p, p), core.Transport("ipc"), core.Nodes(nodes))
	runA, err := ipc.RunProgram(mustProg(t, "jacobi", n, 3))
	if err != nil {
		t.Fatal(err)
	}
	runB, err := ipc.RunProgram(mustProg(t, "jacobi", n, 5))
	if err != nil {
		t.Fatal(err)
	}
	diff := runB.Links.Sub(runA.Links)
	if diff == nil {
		t.Fatal("distributed runs produced no link censuses")
	}
	dMsgs, dBytes := diff.Total()
	wantMsgs, wantBytes := perfest.JacobiInterNode(n, p, nodes)
	if int(dMsgs) != 2*wantMsgs || int(dBytes) != 2*wantBytes {
		t.Errorf("wire traffic per 2 iterations = %d msgs / %d bytes, want exactly %d / %d",
			dMsgs, dBytes, 2*wantMsgs, 2*wantBytes)
	}
}
