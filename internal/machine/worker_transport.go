package machine

import (
	"fmt"
	"sync"
)

// workerIO is the WorkerTransport's face toward the IPC worker hosting it:
// the three frame emissions a worker-local run needs. sendRemote queues an
// inter-node send for the destination node dstNode — the worker batches
// queued sends per destination into multi-message Data frames at its next
// flush point, appending under its write lock so each (src, tag) stream
// keeps program order on the wire; sendStallHint tells the coordinator
// this node's live ranks are all blocked (the distributed probe's
// trigger); sendBarrierArrive announces that every local rank reached
// host-barrier generation barrier. All three stamp gen, the run
// generation, so the coordinator can discard stragglers from an aborted
// run.
type workerIO interface {
	sendRemote(gen uint64, src, dst, dstNode int, tag Tag, data []float64, arrival float64)
	sendStallHint(gen uint64)
	sendBarrierArrive(gen, barrier uint64)
}

// WorkerTransport is the transport a worker-hosted sub-machine runs on: the
// execution-plane half of the IPC transport. The machine above it owns the
// full rank space [0, n) but executes only this node's window [lo, hi) (see
// localRanker); intra-node sends go straight to the local mailbox array —
// the same 0-alloc fast path as SharedTransport, no wire, no syscall — and
// only sends whose destination lives on another node become frames on the
// worker's coordinator socket. Deliveries arrive from the worker's read
// loop (the coordinator routes each inter-node frame to the destination
// node) into the same mailboxes.
//
// A WorkerTransport serves one run at a time: built fresh via
// WorkerHost.NewTransport, or rebound to a new run generation
// (WorkerHost.Rebind) when the execution hook reuses a cached
// sub-machine. Reset is a no-op either way — the machine's unconditional
// start-of-run Reset must not discard inter-node frames the coordinator
// routed ahead of the run-start signal; the between-runs rewind happens
// in rebind, before the worker acknowledges the spec. Stall handling is
// split: the local quiescence triggers (executor quiescence, blocked-count
// crossings) call CheckStalled here, which never declares anything — a
// single node cannot distinguish "deadlocked" from "waiting on a frame
// another node has yet to send" — but reports the local stall to the
// coordinator as a StallHint frame. The coordinator's two-phase probe
// establishes the global quiescent cut and broadcasts the verdict back,
// which lands here as declareStall (unwinding blocked ranks with the exact
// deadlock cause the single-process transports produce) or hostDown with
// a reason. The host barrier is machine-wide the same way: the last local
// arrival announces the generation to the coordinator, which releases it
// (releaseBarrier) once every node has announced.
type WorkerTransport struct {
	// The mailboxes and barrier cover this node's rank window [lo, hi).
	hostBoxes
	n       int // global rank-space size
	perNode int
	node    int
	gen     uint64 // run generation, fixed at construction
	host    workerIO

	reasonMu sync.Mutex
	reason   error
}

// newWorkerTransport wires a transport for one node's window of an n-rank,
// nnodes-node machine at the given run generation.
func newWorkerTransport(host workerIO, node, n, nnodes int, gen uint64) (*WorkerTransport, error) {
	if n <= 0 || nnodes <= 0 || n%nnodes != 0 {
		return nil, fmt.Errorf("machine: worker transport of %d processors needs a positive node count dividing it, got %d", n, nnodes)
	}
	if node < 0 || node >= nnodes {
		return nil, fmt.Errorf("machine: worker transport node %d out of range [0, %d)", node, nnodes)
	}
	perNode := n / nnodes
	t := &WorkerTransport{n: n, perNode: perNode, node: node, gen: gen, host: host}
	t.init(node*perNode, perNode)
	t.bar.announce = func(g uint64) { t.host.sendBarrierArrive(t.gen, g) }
	return t, nil
}

// Size returns the global rank-space size (not the local window): ranks on
// other nodes are legal message endpoints.
func (t *WorkerTransport) Size() int { return t.n }

// LocalRanks returns the window of ranks executing on this node; see
// localRanker.
func (t *WorkerTransport) LocalRanks() (lo, hi int) { return t.lo, t.lo + len(t.boxes) }

// DownReason returns the structured cause of the down state, or nil — nil
// after a declared distributed stall, so blocked receivers unwind with
// exactly the ErrDeadlock cause the single-process transports produce.
func (t *WorkerTransport) DownReason() error {
	t.reasonMu.Lock()
	defer t.reasonMu.Unlock()
	return t.reason
}

// MessageTime prices a message by the node pair it crosses, identically to
// IPCTransport and FederatedTransport — the workers must price with the
// same table as the coordinator-resident transports or virtual times would
// diverge across execution modes.
func (t *WorkerTransport) MessageTime(cost CostModel, src, dst, b int) float64 {
	return cost.LinkMessageTime(src/t.perNode, dst/t.perNode, b)
}

// deliverRemote completes an inter-node crossing: the worker's read loop
// hands over a routed Data frame's fields. It errors on a destination
// outside this node's window — the coordinator misrouted, which the worker
// treats as a protocol failure.
func (t *WorkerTransport) deliverRemote(src, dst int, tag Tag, data []float64, arrival float64) error {
	if lo, hi := t.LocalRanks(); dst < lo || dst >= hi {
		return fmt.Errorf("machine: routed frame for rank %d outside node %d's window [%d, %d)", dst, t.node, lo, hi)
	}
	t.deliver(src, dst, tag, data, arrival)
	if t.recheck != nil {
		// A delivery that wakes no rank must still re-run the local stall
		// decision: the hint that armed the coordinator's probe predates
		// this frame, and if the node is still stalled with it consumed,
		// only a fresh hint keeps the probe live.
		t.recheck.RecheckStall()
	}
	return nil
}

// Send routes a message: intra-node to the mailbox fast path, inter-node
// onto the worker's coordinator socket as a Data frame. The sender's
// payload buffer is recycled through the pool once encoded, exactly
// balancing the buffers the read loop acquires for deliveries.
func (t *WorkerTransport) Send(src, dst int, tag Tag, data []float64, arrival float64) {
	if dst/t.perNode == t.node {
		t.deliver(src, dst, tag, data, arrival)
		return
	}
	t.host.sendRemote(t.gen, src, dst, dst/t.perNode, tag, data, arrival)
	t.release(data)
}

// releaseBarrier applies the coordinator's release of host-barrier
// generation g (every node announced it); called from the worker's read
// loop.
func (t *WorkerTransport) releaseBarrier(g uint64) { t.bar.release(g, parkerOf(t.coord)) }

// rebind readies a cached transport for another run at a new generation.
// The fence that ended the previous run took the transport down
// (hostDown), so the down flag, reason, mailboxes and barrier ladder all
// rewind here. Called from the worker's read loop between the
// coordinator's RunSpec and its ack — no rank goroutine is live and the
// coordinator routes no Data frame before the ack, so nothing races the
// rewind, and frames routed after the ack land in the cleared mailboxes
// exactly as they would in a freshly built transport.
func (t *WorkerTransport) rebind(gen uint64) {
	t.gen = gen
	t.hostBoxes.Reset()
	t.reasonMu.Lock()
	t.reason = nil
	t.reasonMu.Unlock()
}

// Reset is a no-op: a WorkerTransport serves one run per (re)bind, and
// the coordinator may route inter-node frames here between the run's
// installation and the machine's Run call — the machine's unconditional
// start-of-run Reset must not discard them. Fence semantics between runs
// belong to the coordinator's reset protocol plus rebind.
func (t *WorkerTransport) Reset() {}

// hostDown takes the run down on the coordinator's order with a structured
// reason (worker-side of IPCTransport's abort broadcast); first reason
// wins. Like Abort, it is local to this node: the coordinator learns of
// the run's failure from the rank errors in the RankResult frames.
func (t *WorkerTransport) hostDown(reason error) {
	if reason != nil {
		t.reasonMu.Lock()
		if t.reason == nil {
			t.reason = reason
		}
		t.reasonMu.Unlock()
	}
	t.Abort()
}

// declareStall applies the coordinator's distributed-deadlock verdict: the
// transport goes down with no reason recorded, so blocked receivers unwind
// with the ErrDeadlock cause — byte-identical error text to a deadlock on
// the single-process transports.
func (t *WorkerTransport) declareStall() { t.Abort() }

// CheckStalled never declares a stall — one node cannot tell a deadlock
// from a frame another node has yet to send — but forwards a locally
// quiescent state to the coordinator as a StallHint, arming the two-phase
// distributed probe. Always false: the verdict arrives asynchronously as
// declareStall. The local condition (stalled(false)) is the per-node half
// of the distributed probe; the worker also reports it in ProbeAck status
// flags.
func (t *WorkerTransport) CheckStalled() bool {
	if t.stalled(false) {
		t.host.sendStallHint(t.gen)
	}
	return false
}
