package machine

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/wire"
)

// This file is the coordinator half of the IPC execution plane. In relay
// mode (ipc.go's default) every rank runs in the coordinator and each
// inter-node message crosses two sockets; in execution mode each worker
// process hosts its node's ranks as a real sub-machine (WorkerTransport +
// Machine over the node's rank window), so intra-node sends never leave the
// worker and sockets carry only genuinely inter-node edges. The coordinator
// stops simulating and starts orchestrating: it broadcasts the run spec,
// routes worker-to-worker frames, arbitrates host barriers, drives the
// distributed stall verdict, and gathers per-rank results.
//
// The protocol, over the same framed sockets as relay mode:
//
//	coordinator                            workers
//	  Reset ─────────────────────────────▶   (fence: join stale run, zero counters)
//	  RunSpec{gen, spec} ────────────────▶   build run via the exec hook, execute ranks
//	  ◀────────────────── RunAck{gen, A:1}   only on rejection; fails the run
//	  ◀─ Data{A:gen} ─▶ routed onward ───▶   inter-node sends, batched per socket
//	  ◀──────────────────── StallHint{gen}   local quiescence; arms execProbe
//	  Abort{Seq:1} (verdict) ────────────▶   declareStall: ranks unwind with ErrDeadlock
//	  ◀─────────────────── RankResult{gen}   one per rank; completes the run
//
// The spec doubles as the start signal. What keeps a Data frame from ever
// reaching a worker before its spec — the write-order race a RunSpec/
// RunStart split with an ack barrier used to close — is the broadcast
// discipline: the coordinator holds every socket's write lock while it
// writes and flushes all the specs, so the read loops, which route
// worker-to-worker frames into those same sockets, cannot interleave an
// early starter's sends ahead of a later socket's spec. Per-socket FIFO
// does the rest. Success is never acknowledged; a rejection (RunAck{A:1})
// fails the run, and any nodes already executing are fenced by the next
// run's spec or reset — which is why the read loop drains stale-generation
// Data and RankResult frames silently instead of treating them as
// protocol violations.
type execRun struct {
	gen uint64

	mu      sync.Mutex
	results []RankResult // indexed by rank
	got     []bool
	count   int
	barArr  map[uint64]int // host-barrier generation -> nodes arrived

	done chan struct{} // every rank's result arrived

	failOnce sync.Once
	failErr  error
	fail     chan struct{}

	// hint arms the watcher's execProbe: at least one worker reported all
	// its live ranks blocked since the last failed verdict.
	hint atomic.Bool
}

// failWith records the run's terminal failure; first cause wins.
func (er *execRun) failWith(err error) {
	er.failOnce.Do(func() {
		er.failErr = err
		close(er.fail)
	})
}

// RunDistributed executes one run inside the worker fleet: spec is an
// opaque description of the program (the core layer serializes program
// name, grid, cost model and executor) that every worker's execution hook
// (EnableWorkerExec) turns into a local sub-machine over its rank window.
// It returns one RankResult per rank of the whole machine, in rank order,
// or the structured failure (a wrapped ErrWorkerLost when a worker process
// died mid-run). Runs are serialized; the transport may be reused for
// further runs, distributed or relay, afterwards.
func (t *IPCTransport) RunDistributed(spec []byte) ([]RankResult, error) {
	if !WorkerExecEnabled() {
		return nil, errors.New("machine: distributed run needs an exec-armed binary (EnableWorkerExec)")
	}
	t.runMu.Lock()
	defer t.runMu.Unlock()
	if t.closed.Load() {
		return nil, errors.New("machine: ipc transport closed")
	}
	if err := t.ensureStarted(); err != nil {
		return nil, fmt.Errorf("machine: ipc transport failed to start workers: %v", err)
	}
	// The fence: stale frames drained, counters zeroed on both sides, any
	// leftover run from a failed predecessor joined and discarded. After a
	// clean run (execClean) every socket is provably drained — each worker
	// wrote nothing after its last RankResult, which the coordinator has
	// read, and the coordinator routed nothing since — so the fence needs
	// no round trip: the workers rewind their counters on receiving the
	// RunSpec itself (the spec FIFO-follows any residue, so the cuts
	// align), and the worker-side fence duties (ending the previous run,
	// taking its transport down) move into the RunSpec handler too.
	// Anything else — first run, failed run, relay traffic in between —
	// pays for the full Reset exchange.
	if t.execClean.CompareAndSwap(true, false) {
		t.probeMu.Lock()
		t.rewind()
		t.probeMu.Unlock()
	} else {
		t.Reset()
	}

	t.execGen++
	er := &execRun{
		gen:     t.execGen,
		results: make([]RankResult, t.Size()),
		got:     make([]bool, t.Size()),
		barArr:  make(map[uint64]int),
		done:    make(chan struct{}),
		fail:    make(chan struct{}),
	}
	t.exec.Store(er)
	defer t.exec.Store(nil)

	// Broadcast the spec while holding every socket's write lock: each
	// worker starts executing the moment it reads its spec, and its
	// inter-node sends are routed by the read loops into these same
	// sockets — blocking those writers until every spec is flushed is what
	// guarantees spec-before-data on every FIFO (see the protocol comment
	// above).
	f := wire.Frame{Kind: wire.KindRunSpec, Seq: er.gen, A: uint64(len(spec)), Payload: wire.PackBytes(spec)}
	var werr error
	var wconn *ipcConn
	for _, cn := range t.conns {
		cn.wmu.Lock()
	}
	for _, cn := range t.conns {
		err := wire.WriteFrame(cn.bw, &cn.wscratch, &f)
		if err == nil {
			err = cn.bw.Flush()
			cn.dirty = false
		}
		if err != nil && werr == nil {
			werr, wconn = err, cn
		}
	}
	for _, cn := range t.conns {
		cn.wmu.Unlock()
	}
	if werr != nil && !t.closed.Load() {
		t.workerFailed(wconn, fmt.Errorf("run spec to node %d: %w", wconn.node, werr))
	}

	select {
	case <-er.done:
		// A worker loss can race the last result onto er.done; the
		// structured failure must win over a result set assembled from a
		// fleet that was falling apart.
		select {
		case <-er.fail:
			return nil, er.failErr
		default:
		}
	case <-er.fail:
		return nil, er.failErr
	case <-t.stopc:
		return nil, errors.New("machine: ipc transport closed during distributed run")
	}
	t.execClean.Store(true)
	return er.results, nil
}

// execProbe is the execution-mode distributed stall verdict, run by the
// watcher when a StallHint armed it. The frame counters alone cannot
// distinguish "deadlocked" from "every rank computing locally" — sockets
// are quiet either way — so quiescence is combined with the per-worker
// status flags the probe acks carry: two identical quiescent snapshots
// whose flags show every node either stalled or finished, with at least one
// stalled, bracket a cut where no frame was in flight anywhere and no rank
// could ever proceed. The verdict is broadcast as Abort{Seq:1}; each worker
// unwinds its blocked ranks with the exact ErrDeadlock cause the
// single-process transports produce, and the run completes through the
// normal RankResult path.
func (t *IPCTransport) execProbe(er *execRun) {
	if !er.hint.Load() || t.down.Load() || t.closed.Load() {
		return
	}
	t.probeMu.Lock()
	if !t.stableCut(false) {
		t.probeMu.Unlock()
		return
	}
	// Five values per connection; flags are the fifth (see probeSnapshot).
	anyStalled, allSettled := false, true
	for i := 4; i < len(t.snap2); i += 5 {
		switch {
		case t.snap2[i]&probeStalled != 0:
			anyStalled = true
		case t.snap2[i]&probeFinished == 0:
			allSettled = false
		}
	}
	t.probeMu.Unlock()
	if !allSettled || !anyStalled {
		// Not a deadlock (some node is still computing, or everything
		// finished). Leave the hint armed: the next delivery or hint
		// re-triggers the probe, and a finished fleet completes through
		// RankResult frames regardless.
		return
	}
	er.hint.Store(false)
	verdict := wire.Frame{Kind: wire.KindAbort, Seq: abortStallDeclared}
	for _, cn := range t.conns {
		_ = cn.writeCtrl(&verdict, time.Second)
	}
}
