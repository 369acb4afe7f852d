// Package machine simulates a loosely coupled multicomputer: a collection of
// processors with private memories that interact only through point-to-point
// messages, in the style of the distributed-memory machines targeted by
// Mehrotra and Van Rosendale's KF1 language constructs (ICASE 89-41).
//
// Each processor runs as a goroutine and carries a virtual clock advanced by
// an explicit CostModel: computation via Compute, communication via
// Send/Recv. Message matching is point-to-point by (source, tag), so a
// program's virtual-time behaviour is a deterministic function of the program
// alone — every run of an experiment produces identical clocks, counters and
// traces regardless of host scheduling.
//
// The simulation is honest about distribution: goroutines never read each
// other's array data directly; all sharing flows through Send/Recv, which is
// what lets the higher layers (internal/darray, internal/kf) account every
// byte a real compiler-generated message-passing program would move.
//
// Message delivery itself is delegated to a pluggable Transport. Every
// bundled transport receives through one mailbox core — a per-receiver
// mailbox array with one blocking receive and one stall snapshot: the
// default SharedTransport delivers into it directly, FederatedTransport
// adds a node partition whose inter-node traffic crosses counted FIFO
// links, IPCTransport runs the nodes as worker processes joined by
// sockets, and WorkerTransport is one worker's window of an ipc machine
// whose ranks execute inside the workers. ChaosTransport wraps any of them
// with seeded faults. Programs behave bit-identically on any conforming
// transport.
package machine

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// ErrDeadlock is reported by Run when every live processor is blocked in
// Recv and no pending message can satisfy any of them.
var ErrDeadlock = errors.New("machine: deadlock: all live processors blocked in Recv")

// Machine is a simulated multicomputer with a fixed number of processors.
type Machine struct {
	n      int
	lo, hi int // the window of ranks this machine executes (see localRanker)
	cost   CostModel
	sink   Sink
	procs  []*Proc
	tr     Transport
	bufs   sharedPool // machine-wide tier of the message buffer pool

	dmu     sync.Mutex // guards blocked and live
	blocked int        // processors currently waiting in Recv
	live    int        // processors still executing the current Run body

	// exec is the engine driving Run (goroutine-per-proc by default);
	// parker holds the active engine's Parker while a parking engine's
	// run is in flight (nil otherwise) — atomic because transports read
	// it from Send/Abort/CheckStalled paths that may run on external
	// goroutines while Run publishes or clears it — and errs is the
	// pooled per-rank error slice reused across runs.
	exec   Executor
	parker atomic.Pointer[Parker]
	errs   []error

	// coord adapts the machine to the transport's Coordinator interface
	// without exposing the callbacks as Machine methods (and without
	// allocating: &m.coord shares the machine's allocation).
	coord coordinator

	// DirectScheduling makes the distributed-array collectives derive
	// their communication inline on every call instead of replaying
	// compiled schedules — the verification mode of the
	// inspector/executor split, bit-identical to replay. Every processor
	// reads it, so it may change only outside Run.
	DirectScheduling bool
}

// coordinator implements Coordinator on behalf of its Machine.
type coordinator struct{ m *Machine }

// Blocked counts a processor parked in Recv; when every live processor is
// parked the stall check runs. Under a parking engine the count still
// feeds ConfirmStall, but the trigger moves to the engine's quiescence
// detection: with k workers multiplexing n ranks, blocked >= live is the
// steady state, not a suspicion.
func (c *coordinator) Blocked() {
	m := c.m
	m.dmu.Lock()
	m.blocked++
	suspicious := m.parker.Load() == nil && m.blocked >= m.live
	m.dmu.Unlock()
	if suspicious {
		m.tr.CheckStalled()
	}
}

// Parker exposes the active run's parking engine to the transports (nil
// when the reference engine is driving); see the Parker interface.
func (c *coordinator) Parker() Parker {
	if p := c.m.parker.Load(); p != nil {
		return *p
	}
	return nil
}

// Unblocked counts a parked processor's resume.
func (c *coordinator) Unblocked() {
	m := c.m
	m.dmu.Lock()
	m.blocked--
	m.dmu.Unlock()
}

// ConfirmStall is called by the transport's CheckStalled with all transport
// locks held: it re-checks, under the machine's counter lock, that every
// live processor is currently counted as blocked, returning the live count
// (or -1 to veto).
func (c *coordinator) ConfirmStall() int {
	m := c.m
	m.dmu.Lock()
	defer m.dmu.Unlock()
	if m.live > 0 && m.blocked >= m.live {
		return m.live
	}
	return -1
}

// RecheckStall re-runs the stall decision on behalf of a transport whose
// delivery pipeline just drained (the IPC transport's watcher; see
// stallRechecker): the rank whose Blocked() ran the previous check could
// not see frames still in flight, so the drain gets another look. Unlike
// Blocked, the trigger is not gated on the parking engine being absent —
// under a parking engine, blocked >= live is the steady state, but the
// transport's CheckStalled re-confirms every condition (including the
// engine's own quiescence through ConfirmStall's counters), so a false
// trigger is a no-op. Routing through m.tr enters at the top of the
// transport stack: with a chaos wrapper, the recheck drives fault recovery
// too.
func (c *coordinator) RecheckStall() {
	m := c.m
	m.dmu.Lock()
	suspicious := m.live > 0 && m.blocked >= m.live
	m.dmu.Unlock()
	if suspicious {
		m.tr.CheckStalled()
	}
}

// acquirePooled and releasePooled expose the machine-wide buffer pool tier
// to the transport (see bufPool): a transport that serializes payloads onto
// a wire returns the sender's buffer here on encode and draws the
// receiver's buffer on decode, keeping the two-process round trip as
// allocation-free as the in-memory handoff it replaces.
func (c *coordinator) acquirePooled(n int) []float64 {
	if n == 0 {
		return nil
	}
	cl := sizeClass(n)
	if cl < numClasses {
		if buf, ok := c.m.bufs.take(cl); ok {
			return buf[:n]
		}
		return make([]float64, n, 1<<cl)
	}
	return make([]float64, n)
}

func (c *coordinator) releasePooled(buf []float64) {
	if cl := capClass(cap(buf)); cl >= 0 {
		c.m.bufs.put(cl, buf[:0])
	}
}

// New returns a machine with n processors governed by the given cost model,
// communicating over a shared-memory mailbox transport.
func New(n int, cost CostModel) *Machine {
	return NewWithTransport(NewSharedTransport(n), cost)
}

// NewFederated returns a machine whose n processors are partitioned into
// nodes equal nodes communicating over counted inter-node links; see
// FederatedTransport. Programs produce bit-identical results and message
// censuses on New and NewFederated machines of the same size; virtual
// times are also bit-identical under a flat cost model, while a
// hierarchical one (CostModel.InterNode) prices inter-node messages at
// their link's latency and bandwidth, so federated clocks honestly exceed
// shared ones by the interconnect surcharge.
func NewFederated(n, nodes int, cost CostModel) *Machine {
	return NewWithTransport(NewFederatedTransport(n, nodes), cost)
}

// localRanker is implemented by transports that host only a window of the
// machine's rank space locally (the IPC worker's sub-machine): ranks in
// [lo, hi) execute here, the rest exist only as message endpoints reached
// through the transport. Executors then drive only the local window, and
// the deadlock live-count covers local ranks alone — remote progress is
// the transport's to observe.
type localRanker interface {
	LocalRanks() (lo, hi int)
}

// NewWithTransport returns a machine over an explicit transport; the
// processor count is the transport's endpoint count. The transport must be
// exclusive to this machine (Bind is called here).
func NewWithTransport(t Transport, cost CostModel) *Machine {
	n := t.Size()
	if n <= 0 {
		panic(fmt.Sprintf("machine: processor count must be positive, got %d", n))
	}
	m := &Machine{n: n, lo: 0, hi: n, cost: cost, tr: t, exec: goroutineExecutor{}}
	if lr, ok := t.(localRanker); ok {
		lo, hi := lr.LocalRanks()
		if lo < 0 || hi > n || lo >= hi {
			panic(fmt.Sprintf("machine: transport's local rank window [%d, %d) invalid for %d processors", lo, hi, n))
		}
		m.lo, m.hi = lo, hi
	}
	m.coord.m = m
	t.Bind(&m.coord)
	m.procs = make([]*Proc, n)
	for i := range m.procs {
		m.procs[i] = newProc(m, i)
	}
	return m
}

// SetSink installs a trace sink. It must be called before Run; a nil sink
// disables tracing.
func (m *Machine) SetSink(s Sink) { m.sink = s }

// Size returns the number of processors.
func (m *Machine) Size() int { return m.n }

// Cost returns the machine's cost model.
func (m *Machine) Cost() CostModel { return m.cost }

// Transport returns the machine's message transport, so callers can reach
// transport-specific observability (for example FederatedTransport's link
// traffic counters).
func (m *Machine) Transport() Transport { return m.tr }

// SetExecutor selects the engine driving Run (see Executor); nil restores
// the default goroutine-per-processor engine. It must not be called while
// a Run is in flight, and the executor must be exclusive to this machine.
func (m *Machine) SetExecutor(e Executor) {
	if e == nil {
		e = goroutineExecutor{}
	}
	m.exec = e
}

// ExecutorName returns the registry name of the engine driving Run.
func (m *Machine) ExecutorName() string { return m.exec.Name() }

// setParker publishes the active run's parking engine to the transports
// (nil clears it). Atomic so coordinator.Parker sees a consistent value
// from any goroutine, including transport callbacks running outside the
// rank goroutines.
func (m *Machine) setParker(p Parker) {
	if p == nil {
		m.parker.Store(nil)
		return
	}
	m.parker.Store(&p)
}

// Run executes body once per processor under the machine's executor — one
// goroutine per processor on the default engine, a virtual-time-ordered
// worker pool on the calendar engine (see SetExecutor) — and waits for all
// of them. It returns the first non-nil error produced by any body (by
// rank order), or an error wrapping ErrDeadlock if the processors
// deadlock. Clocks, counters and the transport are reset at the start of
// each Run, so a Machine may be reused for successive independent programs.
//
// A panic inside body on any processor is recovered and returned as an
// error; the remaining processors are woken and terminated.
func (m *Machine) Run(body func(p *Proc) error) error {
	m.dmu.Lock()
	m.blocked = 0
	m.live = m.hi - m.lo
	m.dmu.Unlock()
	m.tr.Reset()
	for _, p := range m.procs {
		p.reset()
	}

	if m.errs == nil {
		m.errs = make([]error, m.n)
	} else {
		for i := range m.errs {
			m.errs[i] = nil
		}
	}
	// The engine publishes a Parker (via setParker) before spawning rank
	// goroutines if it parks continuations; the reference engine leaves
	// it nil.
	m.setParker(nil)
	m.exec.Execute(m, body, m.errs)
	m.setParker(nil)
	for _, err := range m.errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Elapsed returns the maximum processor clock reached during the most recent
// Run — the virtual wall-clock time of the parallel program.
func (m *Machine) Elapsed() float64 {
	var max float64
	for _, p := range m.procs {
		if p.clock > max {
			max = p.clock
		}
	}
	return max
}

// TotalStats returns the element-wise sum of all processors' statistics from
// the most recent Run.
func (m *Machine) TotalStats() Stats {
	var t Stats
	for _, p := range m.procs {
		t = t.Add(p.stats)
	}
	return t
}

// ProcStats returns the statistics of processor rank from the most recent
// Run.
func (m *Machine) ProcStats(rank int) Stats { return m.procs[rank].stats }

// ProcClock returns the final clock of processor rank from the most recent
// Run.
func (m *Machine) ProcClock(rank int) float64 { return m.procs[rank].clock }

// RankErrors returns the per-rank error slice of the most recent Run
// (index = rank; nil for ranks that finished cleanly and for ranks
// outside the machine's local window). The slice is owned by the machine
// and reused across runs: callers must not retain it past the next Run.
// Run itself surfaces only the first error by rank order; a host that
// reports per-rank outcomes — the IPC worker shipping one RankResult per
// local rank — reads the rest from here.
func (m *Machine) RankErrors() []error { return m.errs }

// retire marks the calling processor's body as finished and re-checks the
// deadlock condition: processors still blocked can never be satisfied by a
// processor that has exited. Under a parking engine the trigger is the
// engine's quiescence detection instead (see coordinator.Blocked).
func (m *Machine) retire() {
	m.dmu.Lock()
	m.live--
	suspicious := m.parker.Load() == nil && m.live > 0 && m.blocked >= m.live
	m.dmu.Unlock()
	if suspicious {
		m.tr.CheckStalled()
	}
}

// procAbort carries a structured per-processor failure through the panic
// machinery inside Run; it never escapes the package.
type procAbort struct{ err error }
