package machine

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/wire"
)

// ErrWorkerLost is wrapped into the abort reason when an IPC worker process
// dies (crash, kill, unexpected close) while the transport is live; the
// wrapping error names the node, and Machine.Run surfaces it through the
// failing processor's error.
var ErrWorkerLost = errors.New("machine: ipc worker process lost")

// stallRechecker is the optional coordinator extension the IPC transport
// uses to re-run the machine's stall decision from its own delivery
// goroutines: when the last in-flight frame drains, whichever transport
// stack the machine actually runs (the chaos wrapper when present, so
// retransmission fires too) must get another CheckStalled look, because the
// rank whose Blocked() triggered the previous look could not see frames
// that were still crossing the socket.
type stallRechecker interface {
	RecheckStall()
}

// Worker probe-ack status flags (the Tag field of a wire.KindProbeAck
// frame) and the distinguished abort sequence of the execution protocol.
const (
	probeStalled       uint64 = 1 << 0 // every live local rank blocked, no pending message matches
	probeFinished      uint64 = 1 << 1 // every local rank finished; results streamed or streaming
	abortStallDeclared uint64 = 1      // KindAbort Seq: coordinator declared a distributed stall
)

// bufPool is the optional coordinator extension giving transports access to
// the machine-wide message buffer pool, so a transport that unpacks
// payloads off a wire (rather than handing over the sender's own buffer)
// can keep its steady state allocation-free: every serialized send releases
// its buffer here and every decoded delivery reacquires one.
type bufPool interface {
	acquirePooled(n int) []float64
	releasePooled(buf []float64)
}

// IPCTransport is the cross-process transport: the paper's loosely coupled
// machine with the looseness made real. The coordinator process (the one
// running Machine.Run) keeps every rank's mailbox and goroutine local —
// rank bodies are Go closures and cannot cross a process boundary — and
// forks one worker process per node (a hidden re-exec of the current
// binary, see ipc_worker.go), each acting as that node's network daemon.
// Every inter-node message is serialized into a wire.Frame, crosses a Unix
// domain socket (TCP loopback where UDS is unavailable) to the destination
// node's worker, and is reflected back as a Deliver frame before it can
// enter the destination mailbox — so inter-node traffic pays two real
// socket crossings and a full encode/decode round trip, while intra-node
// traffic stays in process memory. Frames on one socket are FIFO, which
// preserves the per-(src, tag) stream ordering the Transport contract
// demands; per-stream determinism then makes values, censuses and virtual
// times bit-identical to the shared and federated transports under a flat
// cost model (MessageTime prices node pairs exactly as FederatedTransport
// does, so a hierarchical CostModel.InterNode diverges identically too).
//
// Stall detection cannot take a global-lock snapshot across processes, so
// CheckStalled runs a coordinator-driven two-phase probe; see stalledCheck.
// Workers spawn lazily on the first inter-node send: a transport that never
// crosses nodes (or is used standalone via Bind(nil)) costs no processes.
type IPCTransport struct {
	hostBoxes
	nodeLinks

	startMu    sync.Mutex // serializes start; guards startDone/startErr/cmds/listenAddr
	startDone  bool
	startErr   error
	started    atomic.Bool // true once workers are up; read on hot paths
	dir        string
	listenAddr string // explicit TCP listen address (SetListenAddr / KF_IPC_ADDR)
	conns      []*ipcConn
	cmds       []*exec.Cmd

	// Distributed-execution state (see RunDistributed): runMu serializes
	// runs, execGen numbers them, and exec publishes the in-flight run to
	// the read loops and the watcher. execClean records that the previous
	// distributed run completed cleanly and nothing touched the transport
	// since — the precondition for folding the next run's fence into its
	// spec broadcast (see RunDistributed).
	runMu     sync.Mutex
	execGen   uint64
	exec      atomic.Pointer[execRun]
	execClean atomic.Bool

	// pmu guards the ack/fence/liveness fields of every ipcConn and pairs
	// with pcond for the probe and reset fence waits.
	pmu   sync.Mutex
	pcond *sync.Cond

	// probeMu serializes two-phase stall probes (and excludes them from
	// reset fences); probeEpoch and resetGen advance under it and under
	// the single-threaded Reset respectively.
	probeMu    sync.Mutex
	probeEpoch uint64
	resetGen   uint64
	snap1      []uint64 // probe snapshot scratch
	snap2      []uint64

	watch  chan struct{} // reader -> watcher: in-flight count hit zero
	stopc  chan struct{}
	closed atomic.Bool
	wg     sync.WaitGroup // readers + watcher
	procWg sync.WaitGroup // worker process reapers

	reasonMu sync.Mutex
	reason   error
}

// ipcConn is the coordinator's endpoint of one worker's socket.
type ipcConn struct {
	node int
	c    net.Conn

	// wmu serializes frame writes; sent is the per-socket Data sequence
	// (incremented under wmu, read atomically by the in-flight check) and
	// delivered counts frames this worker originated that the coordinator
	// has fully absorbed — Deliver frames inserted into mailboxes in relay
	// mode, worker Data frames routed onward in execution mode
	// (incremented by the reader). Data writes go through the buffered
	// writer bw without flushing: each write kicks the connection's flusher
	// goroutine (fch), which flushes whatever accumulated once it gets the
	// CPU — so a burst of small Data frames coalesces into one socket write
	// even when the writers run strictly one after another, the common case
	// on a small host. Control frames flush inline, pushing any batched
	// frames ahead of them on the FIFO, which is what keeps every control
	// exchange (probes, fences) consistent with the data stream it rides.
	wmu       sync.Mutex
	bw        *bufio.Writer
	wscratch  []byte
	dirty     bool // unflushed frames in bw, under wmu
	wclosed   bool // fch closed, under wmu
	fch       chan struct{}
	sent      atomic.Uint64
	delivered atomic.Uint64

	// Guarded by the transport's pmu.
	ackEpoch uint64 // latest probe epoch acknowledged
	ackRecv  uint64 // worker's received-frame counter at that epoch
	ackFwd   uint64 // worker's forwarded-frame counter at that epoch
	ackFlags uint64 // worker's run status flags at that epoch (probeStalled/probeFinished)
	resetAck uint64 // latest reset generation acknowledged
	dead     bool   // socket lost; skip fences, fail probes
}

// writeData writes one Data frame, stamping the per-socket sequence under
// the write lock so the FIFO carries each (src, tag) stream in program
// order. The frame stays in the buffered writer; the flusher goroutine
// pushes it out once the writing goroutine yields, coalescing bursts.
func (cn *ipcConn) writeData(f *wire.Frame) error {
	cn.wmu.Lock()
	f.Seq = cn.sent.Add(1)
	err := wire.WriteFrame(cn.bw, &cn.wscratch, f)
	cn.dirty = true
	cn.kick()
	cn.wmu.Unlock()
	return err
}

// kick schedules a flush; the single-slot channel never blocks the writer
// and never loses a wakeup (the kick follows the frame into the buffer, so
// the flusher's next pass sees it). Callers hold wmu, which excludes the
// channel close in Close.
func (cn *ipcConn) kick() {
	if cn.wclosed {
		return
	}
	select {
	case cn.fch <- struct{}{}:
	default:
	}
}

// writeCtrl writes one control frame and flushes immediately — along with
// any batched Data frames ahead of it in the buffer, which keeps every
// control exchange consistent with the data stream it rides. A nonzero
// deadline bounds the write (abort and shutdown paths must not hang on a
// wedged socket).
func (cn *ipcConn) writeCtrl(f *wire.Frame, deadline time.Duration) error {
	cn.wmu.Lock()
	if deadline > 0 {
		cn.c.SetWriteDeadline(time.Now().Add(deadline))
	}
	err := wire.WriteFrame(cn.bw, &cn.wscratch, f)
	if err == nil {
		err = cn.bw.Flush()
		cn.dirty = false
	}
	if deadline > 0 {
		cn.c.SetWriteDeadline(time.Time{})
	}
	cn.wmu.Unlock()
	return err
}

// flushLoop drains one connection's flush kicks. A flush failure means the
// socket is gone; report it and stop (the read loop is about to hit the
// same broken socket).
func (t *IPCTransport) flushLoop(cn *ipcConn) {
	defer t.wg.Done()
	for range cn.fch {
		// Yield once before draining so a read loop mid-burst can route
		// the rest of the burst into the buffer first; the burst then
		// leaves in one socket write.
		runtime.Gosched()
		cn.wmu.Lock()
		var err error
		if cn.dirty {
			cn.dirty = false
			err = cn.bw.Flush()
		}
		cn.wmu.Unlock()
		if err != nil {
			if !t.closed.Load() {
				t.workerFailed(cn, fmt.Errorf("flush to node %d: %w", cn.node, err))
			}
			return
		}
	}
}

// NewIPCTransport returns a cross-process transport with n endpoints
// partitioned into nnodes equal nodes (nnodes must divide n). Worker
// processes spawn on the first inter-node send; Close tears them down.
func NewIPCTransport(n, nnodes int) *IPCTransport {
	t := &IPCTransport{
		watch: make(chan struct{}, 1),
		stopc: make(chan struct{}),
	}
	t.hostBoxes.init(0, n)
	t.nodeLinks.init(n, nnodes)
	t.pcond = sync.NewCond(&t.pmu)
	return t
}

// DownReason returns the structured cause of the current down state (a
// wrapped ErrWorkerLost when a worker process died), or nil.
func (t *IPCTransport) DownReason() error {
	t.reasonMu.Lock()
	defer t.reasonMu.Unlock()
	return t.reason
}

// WorkerPIDs returns the process IDs of the spawned workers, in node order;
// empty before the first inter-node send. It exists for observability and
// for the crash-hardening tests, which kill a worker and assert the
// structured failure.
func (t *IPCTransport) WorkerPIDs() []int {
	t.startMu.Lock()
	defer t.startMu.Unlock()
	pids := make([]int, 0, len(t.cmds))
	for _, cmd := range t.cmds {
		pids = append(pids, cmd.Process.Pid)
	}
	return pids
}

// Send routes a message: intra-node traffic goes straight to the mailbox;
// inter-node traffic is serialized into a Data frame and written to the
// destination node's worker socket (spawning the workers on first use).
// The write and the sequence number are issued under the connection's write
// lock, so the per-socket FIFO carries each (src, tag) stream in program
// order; the sender's payload buffer is recycled through the machine pool
// once encoded, balancing the buffers the readers acquire for deliveries.
func (t *IPCTransport) Send(src, dst int, tag Tag, data []float64, arrival float64) {
	sn, dn := src/t.perNode, dst/t.perNode
	if sn == dn {
		t.deliver(src, dst, tag, data, arrival)
		return
	}
	if err := t.ensureStarted(); err != nil {
		panic(fmt.Sprintf("machine: ipc transport failed to start workers: %v", err))
	}
	t.linkFor(sn, dn).count(1, int64(len(data)*wordBytes))

	cn := t.conns[dn]
	f := wire.Frame{
		Kind:    wire.KindData,
		Src:     int32(src),
		Dst:     int32(dst),
		Tag:     uint64(tag),
		Arrival: arrival,
		Payload: data,
	}
	err := cn.writeData(&f)
	if err != nil {
		if !t.closed.Load() {
			t.workerFailed(cn, fmt.Errorf("send to node %d: %w", dn, err))
		}
		return
	}
	t.release(data)
}

// Reset clears all transport state between runs. With workers live it first
// runs a reset fence: every worker receives a Reset frame, zeroes its frame
// counters and acknowledges; socket FIFO guarantees any straggler Deliver
// frames from the previous run land in the mailboxes before the ack, so
// clearing the mailboxes after the fence leaves no stale message anywhere
// in the pipeline and the counters on both sides restart aligned.
func (t *IPCTransport) Reset() {
	t.execClean.Store(false)
	t.probeMu.Lock() // exclude stall probes while counters rewind
	defer t.probeMu.Unlock()
	if t.started.Load() {
		t.resetGen++
		gen := t.resetGen
		f := wire.Frame{Kind: wire.KindReset, Seq: gen}
		for _, cn := range t.conns {
			t.pmu.Lock()
			dead := cn.dead
			t.pmu.Unlock()
			if dead {
				continue
			}
			if err := cn.writeCtrl(&f, 0); err != nil && !t.closed.Load() {
				t.workerFailed(cn, fmt.Errorf("reset fence to node %d: %w", cn.node, err))
			}
		}
		t.pmu.Lock()
		for _, cn := range t.conns {
			for cn.resetAck < gen && !cn.dead && !t.closed.Load() {
				t.pcond.Wait()
			}
		}
		t.pmu.Unlock()
	}
	t.rewind()
}

// rewind zeroes the coordinator's frame counters and clears the mailboxes,
// barrier, link counters, down flag and down reason — the tail of every
// fence, once both sides' counters are known to restart aligned. Callers
// hold probeMu.
func (t *IPCTransport) rewind() {
	t.pmu.Lock()
	for _, cn := range t.conns {
		cn.sent.Store(0)
		cn.delivered.Store(0)
		cn.ackEpoch, cn.ackRecv, cn.ackFwd, cn.ackFlags = 0, 0, 0, 0
	}
	t.pmu.Unlock()
	t.hostBoxes.Reset()
	t.resetLinks()
	t.reasonMu.Lock()
	t.reason = nil
	t.reasonMu.Unlock()
}

// Abort marks the transport down and wakes every blocked receiver, barrier
// waiter, probe waiter and parked rank; workers are notified best-effort.
func (t *IPCTransport) Abort() {
	t.hostBoxes.Abort()
	if t.started.Load() {
		f := wire.Frame{Kind: wire.KindAbort}
		for _, cn := range t.conns {
			_ = cn.writeCtrl(&f, time.Second)
		}
	}
	t.pmu.Lock()
	t.pcond.Broadcast()
	t.pmu.Unlock()
}

// inFlight returns the number of frames somewhere between a Send's socket
// write and a reader's mailbox insert, across all workers. Nonzero means
// the machine cannot be stalled yet: a delivery is coming, and the reader
// that completes it re-triggers the stall check through the watcher.
func (t *IPCTransport) inFlight() uint64 {
	var inflight uint64
	for _, cn := range t.conns {
		inflight += cn.sent.Load() - cn.delivered.Load()
	}
	return inflight
}

// CheckStalled decides whether the machine has deadlocked; see stalledCheck
// for the distributed protocol.
func (t *IPCTransport) CheckStalled() bool {
	if !t.stalledCheck(true) {
		return false
	}
	t.bar.wake()
	return true
}

// probeStalled evaluates the stall condition without declaring it — the
// chaos layer's non-destructive confirmation hook.
func (t *IPCTransport) probeStalled() bool { return t.stalledCheck(false) }

// stalledCheck is the distributed stall decision. Before workers exist the
// transport is a plain shared mailbox array and the local global-lock
// snapshot is exact. With workers live, a local snapshot can miss frames
// crossing the sockets, so a stall is declared only at a consistent
// quiescent cut, established coordinator-driven in two phases:
//
//  1. Probe every worker (probeSnapshot) and require quiescence — each
//     socket's written-frame count equals the worker's received count and
//     the worker's forwarded count equals the coordinator's delivered
//     count, i.e. zero frames in flight in either direction.
//  2. Evaluate the local stall condition (all mailbox locks held, live
//     count confirmed by the machine, no waiter has a matching pending
//     message), then probe again and require the second snapshot to be
//     quiescent and identical to the first.
//
// Two identical quiescent snapshots bracket the local evaluation: no frame
// moved on any socket in the interval containing it, so the local snapshot
// was complete — nothing was in flight that could still satisfy a waiter.
// Any traffic between the snapshots changes a monotonic counter and forces
// a retry (by returning false; the delivery that changed the counter wakes
// a rank or re-triggers the check through the watcher). The final local
// evaluation under declare re-verifies the condition before marking the
// transport down, exactly like the single-process transports.
func (t *IPCTransport) stalledCheck(declare bool) bool {
	if t.coord == nil || t.down.Load() {
		return false
	}
	if !t.started.Load() {
		return t.stalled(declare)
	}
	if t.inFlight() != 0 {
		return false
	}
	t.probeMu.Lock()
	defer t.probeMu.Unlock()
	return t.stableCut(true) && t.stalled(declare)
}

// stableCut runs the two probe rounds both stall verdicts rest on and
// reports whether they produced identical quiescent snapshots (left in
// snap1 and snap2). With local set, the coordinator's own mailboxes must
// also be stalled between the rounds — the relay-mode verdict, where the
// ranks block here; in execution mode they block in the workers, whose
// verdicts ride in the snapshots' status flags. Callers hold probeMu.
func (t *IPCTransport) stableCut(local bool) bool {
	var ok bool
	t.snap1, ok = t.probeSnapshot(t.snap1[:0])
	if !ok || (local && !t.stalled(false)) {
		return false
	}
	t.snap2, ok = t.probeSnapshot(t.snap2[:0])
	return ok && slices.Equal(t.snap1, t.snap2)
}

// probeSnapshot runs one probe round: a Probe frame to every worker, a wait
// for every acknowledgement, then a counter cut appended to dst — per
// worker, the socket's sent/delivered counters, the worker's
// received/forwarded counters and its run status flags (five values per
// connection; see execProbe for how the flags decide the distributed
// verdict). ok is false when the cut is not quiescent
// (some frame was in flight at ack time) or when a worker is unreachable,
// the transport went down, or it was closed. Callers hold probeMu.
func (t *IPCTransport) probeSnapshot(dst []uint64) ([]uint64, bool) {
	t.probeEpoch++
	epoch := t.probeEpoch
	f := wire.Frame{Kind: wire.KindProbe, Seq: epoch}
	for _, cn := range t.conns {
		t.pmu.Lock()
		dead := cn.dead
		t.pmu.Unlock()
		if dead {
			return dst, false
		}
		if err := cn.writeCtrl(&f, 0); err != nil {
			if !t.closed.Load() {
				t.workerFailed(cn, fmt.Errorf("stall probe to node %d: %w", cn.node, err))
			}
			return dst, false
		}
	}
	quiescent := true
	t.pmu.Lock()
	for _, cn := range t.conns {
		for cn.ackEpoch < epoch && !cn.dead && !t.closed.Load() && !t.down.Load() {
			t.pcond.Wait()
		}
		if cn.dead || t.closed.Load() || t.down.Load() {
			t.pmu.Unlock()
			return dst, false
		}
		sent, delivered := cn.sent.Load(), cn.delivered.Load()
		if sent != cn.ackRecv || delivered != cn.ackFwd {
			quiescent = false
		}
		dst = append(dst, sent, delivered, cn.ackRecv, cn.ackFwd, cn.ackFlags)
	}
	t.pmu.Unlock()
	return dst, quiescent
}

// SetListenAddr selects an explicit TCP address (host:port, port 0 for
// ephemeral) for the coordinator's worker listener instead of the default
// Unix domain socket — the deployment knob for hosts where UDS is
// unavailable or a fixed port must be allowed through. The KF_IPC_ADDR
// environment variable sets the same default for processes that are not
// themselves IPC workers. It must be called before the workers spawn (the
// first inter-node send or distributed run).
func (t *IPCTransport) SetListenAddr(addr string) {
	t.startMu.Lock()
	defer t.startMu.Unlock()
	if t.startDone {
		panic("machine: SetListenAddr after the ipc workers started")
	}
	t.listenAddr = addr
}

// ensureStarted spawns the worker processes exactly once; a failed start is
// sticky (the environment is not going to improve between sends).
func (t *IPCTransport) ensureStarted() error {
	if t.started.Load() {
		return nil
	}
	t.startMu.Lock()
	defer t.startMu.Unlock()
	if t.startDone {
		return t.startErr
	}
	t.startDone = true
	t.startErr = t.start()
	if t.startErr == nil {
		t.started.Store(true)
	}
	return t.startErr
}

// start launches one worker per node and wires up the sockets: a listener
// in a private temp directory (UDS, falling back to TCP loopback), a
// re-exec of the current binary per node with the coordinates in the
// environment, then an accept/Hello handshake mapping connections to
// nodes. On success it starts the per-connection readers and the stall
// watcher; on any failure it tears everything down and reports.
func (t *IPCTransport) start() (err error) {
	exe, err := os.Executable()
	if err != nil {
		return fmt.Errorf("resolve executable for worker re-exec: %w", err)
	}
	dir, err := os.MkdirTemp("", "kfipc")
	if err != nil {
		return fmt.Errorf("ipc socket dir: %w", err)
	}
	laddr := t.listenAddr
	if laddr == "" && os.Getenv(ipcEnvNode) == "" {
		// The env default is ignored inside worker processes: there
		// KF_IPC_ADDR is the coordinator's address to dial, not a listen
		// address for a nested transport.
		laddr = os.Getenv(ipcEnvAddr)
	}
	var network, addr string
	var ln net.Listener
	if laddr != "" {
		network = "tcp"
		ln, err = net.Listen(network, laddr)
		if err != nil {
			os.RemoveAll(dir)
			return fmt.Errorf("ipc listener on %q: %w", laddr, err)
		}
		addr = ln.Addr().String()
	} else {
		network, addr = "unix", filepath.Join(dir, "coord.sock")
		ln, err = net.Listen(network, addr)
		if err != nil {
			network = "tcp"
			ln, err = net.Listen(network, "127.0.0.1:0")
			if err != nil {
				os.RemoveAll(dir)
				return fmt.Errorf("ipc listener: %w", err)
			}
			addr = ln.Addr().String()
		}
	}
	t.dir = dir

	// Scrub any inherited worker coordinates (a worker can itself host an
	// ipc machine in tests) before installing ours.
	env := make([]string, 0, len(os.Environ())+4)
	for _, kv := range os.Environ() {
		switch {
		case len(kv) > len(ipcEnvNet) && kv[:len(ipcEnvNet)+1] == ipcEnvNet+"=",
			len(kv) > len(ipcEnvAddr) && kv[:len(ipcEnvAddr)+1] == ipcEnvAddr+"=",
			len(kv) > len(ipcEnvNode) && kv[:len(ipcEnvNode)+1] == ipcEnvNode+"=",
			len(kv) > len(ipcEnvExec) && kv[:len(ipcEnvExec)+1] == ipcEnvExec+"=":
		default:
			env = append(env, kv)
		}
	}
	env = append(env, ipcEnvNet+"="+network, ipcEnvAddr+"="+addr)
	if WorkerExecEnabled() {
		// Exec-armed coordinators spawn exec-capable workers: the worker
		// defers its daemon entry until its own EnableWorkerExec runs, so
		// the program registry it will build runs from is fully populated.
		env = append(env, ipcEnvExec+"=1")
	}

	t.cmds = make([]*exec.Cmd, 0, t.nnodes)
	t.conns = make([]*ipcConn, t.nnodes)
	fail := func(err error) error {
		for _, cmd := range t.cmds {
			cmd.Process.Kill()
		}
		t.procWg.Wait()
		for _, cn := range t.conns {
			if cn != nil {
				cn.c.Close()
			}
		}
		ln.Close()
		os.RemoveAll(dir)
		t.cmds, t.conns = nil, nil
		return err
	}
	for node := 0; node < t.nnodes; node++ {
		cmd := exec.Command(exe)
		cmd.Env = append(env[:len(env):len(env)], ipcEnvNode+"="+strconv.Itoa(node))
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			return fail(fmt.Errorf("spawn worker for node %d: %w", node, err))
		}
		t.cmds = append(t.cmds, cmd)
		t.procWg.Add(1)
		go func() {
			defer t.procWg.Done()
			cmd.Wait()
		}()
	}
	deadline := time.Now().Add(30 * time.Second)
	for i := 0; i < t.nnodes; i++ {
		type deadliner interface{ SetDeadline(time.Time) error }
		if d, ok := ln.(deadliner); ok {
			d.SetDeadline(deadline)
		}
		c, err := ln.Accept()
		if err != nil {
			return fail(fmt.Errorf("accept worker %d of %d: %w", i+1, t.nnodes, err))
		}
		c.SetReadDeadline(deadline)
		var hello wire.Frame
		var scratch []byte
		if err := wire.ReadFrame(c, &hello, &scratch, nil); err != nil || hello.Kind != wire.KindHello {
			c.Close()
			return fail(fmt.Errorf("worker handshake: kind=%v err=%v", hello.Kind, err))
		}
		c.SetReadDeadline(time.Time{})
		node := int(hello.Seq)
		if node < 0 || node >= t.nnodes || t.conns[node] != nil {
			c.Close()
			return fail(fmt.Errorf("worker handshake: bad or duplicate node %d", node))
		}
		t.conns[node] = &ipcConn{node: node, c: c, bw: bufio.NewWriterSize(c, 1<<16), fch: make(chan struct{}, 1)}
	}
	ln.Close() // all workers connected; nothing else may dial in
	for _, cn := range t.conns {
		t.wg.Add(2)
		go t.readLoop(cn)
		go t.flushLoop(cn)
	}
	t.wg.Add(1)
	go t.watchLoop()
	return nil
}

// readLoop drains one worker's socket. Relay mode: Deliver frames complete
// inter-node message crossings into the local mailboxes. Execution mode:
// Data frames are worker-originated inter-node sends routed onward to the
// destination node's socket — the coordinator never opens their payloads,
// and never even decodes them: the routing fields live at fixed header
// offsets, so the raw body is forwarded as read, with only the per-socket
// sequence restamped in place (the same pass-through idiom the relay
// worker uses for the reflected direction). Control frames —
// RunAck/RankResult/StallHint/Barrier driving the in-flight execRun,
// ProbeAck and ResetAck feeding the waiters under pmu — are rare enough to
// pay for a full decode. It never evaluates the stall condition itself — a
// reader blocked in a stall check could not drain the very acks the
// check's probe waits for — delegating re-checks to the watcher.
func (t *IPCTransport) readLoop(cn *ipcConn) {
	defer t.wg.Done()
	br := bufio.NewReaderSize(cn.c, 1<<16)
	var prefix [4]byte
	var body, rbuf []byte
	var f wire.Frame
	for {
		if _, err := io.ReadFull(br, prefix[:]); err != nil {
			if !t.closed.Load() {
				t.workerFailed(cn, err)
			}
			return
		}
		n := binary.LittleEndian.Uint32(prefix[:])
		if n < wire.HeaderLen || n > wire.MaxBody {
			t.workerFailed(cn, fmt.Errorf("frame body of %d bytes out of range from node %d", n, cn.node))
			return
		}
		if cap(body) < int(n) {
			body = make([]byte, n)
		}
		b := body[:n]
		if _, err := io.ReadFull(br, b); err != nil {
			if !t.closed.Load() {
				t.workerFailed(cn, fmt.Errorf("%w: connection closed inside frame body", wire.ErrTruncated))
			}
			return
		}
		if wire.Kind(b[0]) == wire.KindData {
			// A worker rank's inter-node send (execution mode): route it to
			// the destination node without decoding. Stale generations drain
			// silently — a run one node rejected leaves the other nodes
			// executing (and emitting) until the next spec or reset fences
			// them, so an off-generation frame is expected traffic, not a
			// protocol violation.
			er := t.exec.Load()
			if er == nil || binary.LittleEndian.Uint64(b[25:33]) != er.gen {
				continue
			}
			src := int(int32(binary.LittleEndian.Uint32(b[1:5])))
			dst := int(int32(binary.LittleEndian.Uint32(b[5:9])))
			if src < 0 || src >= t.Size() || src/t.perNode != cn.node || dst < 0 || dst >= t.Size() || dst/t.perNode == cn.node {
				t.workerFailed(cn, fmt.Errorf("misrouted data frame (src=%d, dst=%d) from node %d", src, dst, cn.node))
				return
			}
			// Per-link traffic accounting stays message-exact without a
			// payload walk: a routed frame carries its message count in B
			// and the messages' summed payload bytes in Tag (see the
			// worker's pendBatch).
			dn := dst / t.perNode
			t.linkFor(cn.node, dn).count(int64(binary.LittleEndian.Uint64(b[33:41])), int64(binary.LittleEndian.Uint64(b[9:17])))
			cnDst := t.conns[dn]
			cnDst.wmu.Lock()
			binary.LittleEndian.PutUint64(b[17:25], cnDst.sent.Add(1))
			_, err1 := cnDst.bw.Write(prefix[:])
			_, err2 := cnDst.bw.Write(b)
			cnDst.dirty = true
			cnDst.kick()
			cnDst.wmu.Unlock()
			// Count the frame absorbed only after the onward write holds
			// its sequence slot: quiescence must never be observable with
			// the routing half-done.
			cn.delivered.Add(1)
			if err1 == nil {
				err1 = err2
			}
			if err1 != nil && !t.closed.Load() {
				t.workerFailed(cnDst, fmt.Errorf("route to node %d: %w", dn, err1))
				return
			}
			continue
		}
		rbuf = append(append(rbuf[:0], prefix[:]...), b...)
		if _, err := wire.DecodeFrame(rbuf, &f, t.acquire); err != nil {
			if !t.closed.Load() {
				t.workerFailed(cn, err)
			}
			return
		}
		switch f.Kind {
		case wire.KindDeliver:
			t.deliver(int(f.Src), int(f.Dst), Tag(f.Tag), f.Payload, f.Arrival)
			cn.delivered.Add(1)
			if t.inFlight() == 0 {
				// The pipeline just drained: whoever ran a stall check
				// while this frame was in flight bailed on it, so have the
				// watcher take another look.
				select {
				case t.watch <- struct{}{}:
				default:
				}
			}
		case wire.KindRunAck:
			// Only rejections are acked; a worker that accepts a spec goes
			// straight to executing it.
			er := t.exec.Load()
			if er == nil || f.Seq != er.gen || f.A == 0 {
				t.release(f.Payload)
				break // straggler from a fenced run
			}
			text, _ := wire.UnpackBytes(f.Payload, int(f.B))
			t.release(f.Payload)
			er.failWith(fmt.Errorf("machine: ipc node %d rejected run spec: %s", cn.node, text))
		case wire.KindRankResult:
			er := t.exec.Load()
			if er == nil || f.Seq != er.gen {
				t.release(f.Payload)
				break // straggler from a fenced or abandoned run
			}
			// One frame carries all (or a maxResultBatchWords-bounded span
			// of) the node's rank records; see executeRun for the layout.
			p := f.Payload
			complete := false
			er.mu.Lock()
			for rec := uint64(0); rec < f.A; rec++ {
				if len(p) < 4 {
					er.mu.Unlock()
					t.release(f.Payload)
					t.workerFailed(cn, fmt.Errorf("rank result batch truncated (node %d)", cn.node))
					return
				}
				rank := int(int64(math.Float64bits(p[0])))
				errClass := math.Float64bits(p[1])
				errLen := math.Float64bits(p[2])
				plen := math.Float64bits(p[3])
				errWords := (errLen + 7) / 8
				if plen > uint64(len(p)-4) || errWords > uint64(len(p)-4)-plen {
					er.mu.Unlock()
					t.release(f.Payload)
					t.workerFailed(cn, fmt.Errorf("rank result record overruns batch (node %d)", cn.node))
					return
				}
				if rank < 0 || rank >= t.Size() || rank/t.perNode != cn.node {
					er.mu.Unlock()
					t.release(f.Payload)
					t.workerFailed(cn, fmt.Errorf("rank result for rank %d from node %d", rank, cn.node))
					return
				}
				var errText string
				if errLen > 0 {
					b, err := wire.UnpackBytes(p[4+plen:4+plen+errWords], int(errLen))
					if err != nil {
						er.mu.Unlock()
						t.release(f.Payload)
						t.workerFailed(cn, fmt.Errorf("rank result from node %d: %v", cn.node, err))
						return
					}
					errText = string(b)
				}
				if !er.got[rank] {
					recPayload := make([]float64, plen)
					copy(recPayload, p[4:4+plen])
					er.got[rank] = true
					er.results[rank] = RankResult{Rank: rank, Payload: recPayload, ErrClass: errClass, ErrText: errText}
					er.count++
					complete = er.count == len(er.results)
				}
				p = p[4+plen+errWords:]
			}
			er.mu.Unlock()
			t.release(f.Payload)
			if complete {
				close(er.done)
			} else if er.hint.Load() {
				// A node finishing can complete the stall condition (every
				// other node already blocked): give the armed probe another
				// look, since no further hint will arrive — workers hint on
				// stalling, not on finishing.
				select {
				case t.watch <- struct{}{}:
				default:
				}
			}
		case wire.KindStallHint:
			if er := t.exec.Load(); er != nil && f.Seq == er.gen {
				er.hint.Store(true)
				select {
				case t.watch <- struct{}{}:
				default:
				}
			}
		case wire.KindBarrier:
			// A worker node announcing that all its local ranks reached
			// host-barrier generation f.Seq; the last node's arrival
			// releases the generation on every node.
			er := t.exec.Load()
			if er == nil || f.A != er.gen {
				break // straggler from a fenced run
			}
			er.mu.Lock()
			er.barArr[f.Seq]++
			full := er.barArr[f.Seq] == t.nnodes
			er.mu.Unlock()
			if full {
				rel := wire.Frame{Kind: wire.KindBarrier, Seq: f.Seq}
				for _, c2 := range t.conns {
					if err := c2.writeCtrl(&rel, 0); err != nil && !t.closed.Load() {
						t.workerFailed(c2, fmt.Errorf("barrier release to node %d: %w", c2.node, err))
						return
					}
				}
			}
		case wire.KindProbeAck:
			t.pmu.Lock()
			cn.ackEpoch, cn.ackRecv, cn.ackFwd, cn.ackFlags = f.Seq, f.A, f.B, f.Tag
			t.pcond.Broadcast()
			t.pmu.Unlock()
		case wire.KindResetAck:
			t.pmu.Lock()
			cn.resetAck = f.Seq
			t.pcond.Broadcast()
			t.pmu.Unlock()
		default:
			t.workerFailed(cn, fmt.Errorf("unexpected %v frame from node %d", f.Kind, cn.node))
			return
		}
	}
}

// watchLoop re-runs the machine's stall decision whenever a reader reports
// the in-flight count hitting zero. Routing through the coordinator makes
// the check enter at the top of the machine's transport stack — the chaos
// wrapper when present — so a drain can also trigger fault recovery, not
// just deadlock declaration. Spurious triggers are harmless: the check
// confirms every condition from scratch.
func (t *IPCTransport) watchLoop() {
	defer t.wg.Done()
	for {
		select {
		case <-t.stopc:
			return
		case <-t.watch:
			if er := t.exec.Load(); er != nil {
				// Execution mode: the ranks run inside the workers, so the
				// machine-side recheck has nothing to look at — the
				// coordinator drives the distributed verdict itself.
				t.execProbe(er)
			} else if t.recheck != nil {
				t.recheck.RecheckStall()
			}
		}
	}
}

// workerFailed records a lost worker and takes the transport down with a
// structured reason naming the node; first failure wins.
func (t *IPCTransport) workerFailed(cn *ipcConn, cause error) {
	t.pmu.Lock()
	cn.dead = true
	t.pcond.Broadcast()
	t.pmu.Unlock()
	t.reasonMu.Lock()
	if t.reason == nil {
		t.reason = fmt.Errorf("%w: node %d: %v", ErrWorkerLost, cn.node, cause)
	}
	t.reasonMu.Unlock()
	t.Abort()
	if er := t.exec.Load(); er != nil {
		er.failWith(t.DownReason())
	}
}

// Close shuts the worker fleet down (Shutdown frames, then socket close —
// either is sufficient for a worker to exit; EOF alone covers a killed
// coordinator) and releases sockets, goroutines and the temp directory.
// The transport must not be used after Close. Close is idempotent and safe
// to call concurrently with an in-flight Run or abort: it first takes the
// transport down, so ranks blocked in Recv or Barrier unwind instead of
// hanging on sockets that are about to disappear.
func (t *IPCTransport) Close() error {
	if !t.closed.CompareAndSwap(false, true) {
		return nil
	}
	t.reasonMu.Lock()
	if t.reason == nil {
		t.reason = errors.New("machine: ipc transport closed")
	}
	t.reasonMu.Unlock()
	t.Abort()
	close(t.stopc)
	if t.started.Load() {
		f := wire.Frame{Kind: wire.KindShutdown}
		for _, cn := range t.conns {
			_ = cn.writeCtrl(&f, time.Second)
			cn.c.Close()
			cn.wmu.Lock()
			cn.wclosed = true
			close(cn.fch)
			cn.wmu.Unlock()
		}
		t.pmu.Lock()
		t.pcond.Broadcast()
		t.pmu.Unlock()
	}
	t.wg.Wait()
	t.procWg.Wait()
	if t.dir != "" {
		os.RemoveAll(t.dir)
	}
	return nil
}

func init() {
	RegisterTransport("ipc", func(n, nodes int) (Transport, error) {
		if n <= 0 {
			return nil, fmt.Errorf("machine: transport needs a positive endpoint count, got %d", n)
		}
		if nodes <= 0 {
			nodes = 1
		}
		if n%nodes != 0 {
			return nil, fmt.Errorf("machine: an ipc federation of %d processors needs a node count dividing it, got %d", n, nodes)
		}
		return NewIPCTransport(n, nodes), nil
	})
}
