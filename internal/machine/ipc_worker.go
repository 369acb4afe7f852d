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
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/wire"
)

// The IPC transport re-executes the running binary as its worker processes
// (os.Executable with these variables set), so any program that imports this
// package — kfbench, a test binary, a user tool — can host a node daemon
// without a dedicated worker command. The hook below intercepts process
// startup before main (or the test runner) ever runs.
const (
	ipcEnvNet  = "KF_IPC_NET"  // listener network: "unix" or "tcp"
	ipcEnvAddr = "KF_IPC_ADDR" // listener address the worker dials back to (or, on a coordinator, the TCP address to listen on — see SetListenAddr)
	ipcEnvNode = "KF_IPC_NODE" // this worker's node index
	ipcEnvExec = "KF_IPC_EXEC" // non-empty: defer worker entry until EnableWorkerExec (program registrations must run first)
)

func init() { maybeRunIPCWorker() }

// pendingIPCWorker holds a deferred worker entry: an exec-capable
// coordinator spawns its workers with KF_IPC_EXEC set, telling the worker
// process to finish package initialization (program registrations live in
// init functions of packages initialized after this one) before entering
// the daemon loop via EnableWorkerExec.
var pendingIPCWorker *struct {
	node          int
	network, addr string
}

// maybeRunIPCWorker turns the process into an IPC node worker when the
// coordinator's environment variables are present; it never returns in that
// case (with KF_IPC_EXEC set, entry is deferred to EnableWorkerExec, which
// then never returns). A plain process (no KF_IPC_NODE) returns immediately.
func maybeRunIPCWorker() {
	nodeStr, ok := os.LookupEnv(ipcEnvNode)
	if !ok {
		return
	}
	node, err := strconv.Atoi(nodeStr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "kf-ipc-worker: bad %s=%q: %v\n", ipcEnvNode, nodeStr, err)
		os.Exit(1)
	}
	if os.Getenv(ipcEnvExec) != "" {
		pendingIPCWorker = &struct {
			node          int
			network, addr string
		}{node, os.Getenv(ipcEnvNet), os.Getenv(ipcEnvAddr)}
		return
	}
	os.Exit(runIPCWorker(node, os.Getenv(ipcEnvNet), os.Getenv(ipcEnvAddr)))
}

// RankResult is one rank's outcome of a distributed run, as shipped from
// the worker that executed it to the coordinator in a RankResult frame.
// Payload is an opaque record the execution hook composes worker-side and
// its counterpart decodes coordinator-side (the core layer packs output
// values, stats and clocks); ErrClass coarsely classifies Err for
// structured reconstruction across the process boundary (see the
// RankErr* constants) with ErrText carrying the exact message.
type RankResult struct {
	Rank     int
	Payload  []float64
	ErrClass uint64
	ErrText  string
}

// The RankResult error classes.
const (
	RankErrNone     uint64 = 0 // rank finished cleanly
	RankErrGeneric  uint64 = 1 // opaque failure; only the text survives the wire
	RankErrDeadlock uint64 = 2 // error wraps ErrDeadlock (errors.Is must keep holding after reconstruction)
)

// WorkerRun is what the execution hook hands the worker for one distributed
// run: the transport the worker delivers routed frames into (installed
// before the run is acknowledged, so early-routed traffic has a home), and
// Execute, which runs the node's ranks to completion and returns one
// RankResult per local rank.
type WorkerRun interface {
	Transport() *WorkerTransport
	Execute() []RankResult
}

// WorkerHost is the worker's face toward the execution hook while it
// constructs a run from a RunSpec.
type WorkerHost struct {
	w   *ipcWorker
	gen uint64
}

// Node returns the worker's node index.
func (h *WorkerHost) Node() int { return h.w.node }

// NewTransport builds the WorkerTransport for this node's window of an
// n-rank, nnodes-node machine, bound to the worker's socket and the
// current run generation.
func (h *WorkerHost) NewTransport(n, nnodes int) (*WorkerTransport, error) {
	return newWorkerTransport(h.w, h.w.node, n, nnodes, h.gen)
}

// Rebind readies a transport this worker built in an earlier run
// (NewTransport) for the current run generation, so an execution hook can
// hand back a cached sub-machine instead of rebuilding one per run — the
// worker-side half of warm-pool serving: a pooled coordinator System
// keeps its worker processes alive, and rebinding keeps their
// sub-machines warm too. The transport must belong to this worker.
func (h *WorkerHost) Rebind(t *WorkerTransport) error {
	if t == nil || t.host != workerIO(h.w) {
		return fmt.Errorf("machine: Rebind of a transport from another worker")
	}
	t.rebind(h.gen)
	return nil
}

// WorkerExecHook builds a WorkerRun from a coordinator's serialized run
// spec. The hook must install every resource a run needs (transport via
// h.NewTransport, machine, executor) before returning: the worker
// acknowledges the spec the moment the hook returns, and inter-node frames
// may arrive immediately after.
type WorkerExecHook func(h *WorkerHost, spec []byte) (WorkerRun, error)

var (
	workerExecMu   sync.Mutex
	workerExecHook WorkerExecHook
)

// EnableWorkerExec arms worker-side execution: coordinators in this process
// spawn exec-capable workers, and worker processes build runs through hook.
// It must be called at most once, from an init path that runs after every
// RegisterProgram-style registration the hook depends on — in a process
// spawned as an exec worker, EnableWorkerExec enters the daemon loop and
// never returns.
func EnableWorkerExec(hook WorkerExecHook) {
	if hook == nil {
		panic("machine: EnableWorkerExec with nil hook")
	}
	workerExecMu.Lock()
	if workerExecHook != nil {
		workerExecMu.Unlock()
		panic("machine: EnableWorkerExec called twice")
	}
	workerExecHook = hook
	p := pendingIPCWorker
	pendingIPCWorker = nil
	workerExecMu.Unlock()
	if p != nil {
		os.Exit(runIPCWorker(p.node, p.network, p.addr))
	}
}

// WorkerExecEnabled reports whether this process can host (and therefore
// spawn) execution-plane workers.
func WorkerExecEnabled() bool {
	workerExecMu.Lock()
	defer workerExecMu.Unlock()
	return workerExecHook != nil
}

func loadWorkerExecHook() WorkerExecHook {
	workerExecMu.Lock()
	defer workerExecMu.Unlock()
	return workerExecHook
}

// runIPCWorker dials the coordinator and runs the node daemon loop,
// returning the process exit code: 0 for an orderly end (Shutdown frame,
// coordinator EOF, or a write error — both mean the coordinator is gone,
// and a dead coordinator must never leave orphans hanging or stderr
// noise), 1 for a protocol violation, 2 for a FIFO sequence gap.
func runIPCWorker(node int, network, addr string) int {
	conn, err := net.Dial(network, addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "kf-ipc-worker: node %d: dial %s %s: %v\n", node, network, addr, err)
		return 1
	}
	defer conn.Close()
	w := &ipcWorker{
		node: node,
		br:   bufio.NewReaderSize(conn, 1<<16),
		bw:   bufio.NewWriterSize(conn, 1<<16),
		fch:  make(chan struct{}, 1),
	}
	if err := wire.WriteFrame(w.bw, &w.wscratch, &wire.Frame{Kind: wire.KindHello, Seq: uint64(node)}); err != nil {
		return 1
	}
	if err := w.bw.Flush(); err != nil {
		return 1
	}
	go w.flushLoop()
	return w.loop()
}

// ipcWorker is one node's daemon. With no active run it is a relay: Data
// frames reflect back to the coordinator as Deliver frames (raw byte
// passthrough — only the kind byte changes, so that hot path never decodes
// a payload). With a run active (RunSpec accepted, see the exec protocol
// in ipc.go) it is an execution host: routed Data frames deliver into the
// run's WorkerTransport, the node's ranks execute locally, and their
// inter-node sends leave through sendRemote. Either way it answers the
// control protocol (stall probes, reset fences, shutdown).
//
// Writes are shared between the read loop and the run's rank goroutines,
// so they serialize under wmu and batch through the buffered writer: data
// and result frames stay in the buffer and kick the flusher goroutine,
// which pushes whatever accumulated once it gets the CPU — back-to-back
// sends coalesce into one socket write even from a single goroutine.
// Control frames (acks, hints) flush inline, carrying any batched frames
// ahead of them on the FIFO.
type ipcWorker struct {
	node int
	br   *bufio.Reader
	body []byte // read-loop frame body buffer
	rbuf []byte // read-loop full-decode buffer

	wmu      sync.Mutex
	bw       *bufio.Writer
	wscratch []byte // frame encode buffer, under wmu
	txData   uint64 // Data/Deliver frames written since the last reset fence, under wmu
	dirty    bool   // unflushed frames in bw, under wmu
	fch      chan struct{}
	pend     []pendBatch // per-destination-node queued sends, under wmu (index = node)

	rxData uint64 // Data frames received since the last reset fence (read loop only)

	// Exec-mode run state, owned by the read loop.
	active     *WorkerTransport
	runner     WorkerRun
	activeGen  uint64
	runStarted bool // spec accepted; executeRun is (or was) in flight
	runDone    chan struct{}
	finished   atomic.Bool // all local ranks done; results written or being written
}

// errFencedBySpec is the fixed reason an in-flight run is unwound when a
// new run spec arrives (hoisted: it is on the per-run warm path).
var errFencedBySpec = errors.New("machine: ipc run fenced by new run spec")

// pendBatch accumulates one destination node's queued inter-node sends
// between flush points. Each message contributes five header words — src,
// dst, tag, arrival, payload word count; all but arrival are bit
// containers in the PackBytes sense — followed by its payload words. The
// batch leaves as a single Data frame: Src/Dst carry the first message's
// ranks (the coordinator routes on Dst and sanity-checks Src against the
// sending node), B the message count, Tag the summed payload bytes so the
// coordinator's per-link traffic accounting stays message-exact without
// walking the payload.
type pendBatch struct {
	words    []float64
	msgs     uint64
	bytes    uint64
	gen      uint64
	src, dst int32
}

// maxDataBatchWords bounds one batch frame's payload; a fuller batch is
// encoded early. One oversized message still fits in its own frame (the
// wire codec allows 1<<24 words).
const maxDataBatchWords = 1 << 20

func (w *ipcWorker) fail(code int, format string, args ...any) int {
	fmt.Fprintf(os.Stderr, "kf-ipc-worker: node %d: %s\n", w.node, fmt.Sprintf(format, args...))
	return code
}

// writeBatched writes one frame under wmu without flushing; the kicked
// flusher goroutine coalesces the burst into one socket write. Pending
// sends encode first so the frame (a result record) never overtakes the
// run's own data on the FIFO.
func (w *ipcWorker) writeBatched(f *wire.Frame) error {
	w.wmu.Lock()
	w.encodePendingLocked()
	err := wire.WriteFrame(w.bw, &w.wscratch, f)
	w.dirty = true
	w.kick()
	w.wmu.Unlock()
	return err
}

// kick schedules a flush (single-slot, never blocks, never loses a wakeup:
// the kick follows the frame into the buffer). Callers hold wmu.
func (w *ipcWorker) kick() {
	select {
	case w.fch <- struct{}{}:
	default:
	}
}

// flushLoop drains flush kicks for the worker's socket. Flush errors are
// swallowed for the same reason sendRemote swallows them: a dead socket
// means the coordinator is gone and the read loop is about to exit.
func (w *ipcWorker) flushLoop() {
	for range w.fch {
		// Step to the back of the run queue once before draining: the
		// kick usually comes from the first rank of a burst, and the
		// yield lets the node's remaining runnable ranks add their sends
		// so the whole burst leaves as one batch in one socket write.
		runtime.Gosched()
		w.wmu.Lock()
		w.encodePendingLocked()
		if w.dirty {
			w.dirty = false
			w.bw.Flush()
		}
		w.wmu.Unlock()
	}
}

// writeControl writes one frame and flushes immediately (acks, hints,
// results-complete boundaries — anything the coordinator blocks on).
// Pending sends encode first: a barrier announcement or stall hint must
// ride behind every message this node emitted before it.
func (w *ipcWorker) writeControl(f *wire.Frame) error {
	w.wmu.Lock()
	w.encodePendingLocked()
	err := wire.WriteFrame(w.bw, &w.wscratch, f)
	if err == nil {
		err = w.bw.Flush()
		w.dirty = false
	}
	w.wmu.Unlock()
	return err
}

// flushIfIdle flushes the write buffer only when no further input is already
// buffered, so a burst of reflected Data frames leaves in one socket write
// but the last frame of a burst is never left sitting in the buffer.
func (w *ipcWorker) flushIfIdle() error {
	if w.br.Buffered() != 0 {
		return nil
	}
	w.wmu.Lock()
	defer w.wmu.Unlock()
	w.encodePendingLocked()
	w.dirty = false
	return w.bw.Flush()
}

// sendRemote implements workerIO: one local rank's inter-node send joins
// the destination node's pending batch under wmu (so the per-socket FIFO
// carries each (src, tag) stream in program order) and kicks the flusher,
// which turns each pending batch into a single multi-message Data frame.
// A burst of fine-grained sends to one neighbor node thus costs one frame
// and one socket write instead of one per message. Write errors on the
// eventual encode are deliberately swallowed: they mean the coordinator
// is gone and the read loop is about to hit the same broken socket.
func (w *ipcWorker) sendRemote(gen uint64, src, dst, dstNode int, tag Tag, data []float64, arrival float64) {
	w.wmu.Lock()
	if dstNode >= len(w.pend) {
		w.pend = append(w.pend, make([]pendBatch, dstNode+1-len(w.pend))...)
	}
	b := &w.pend[dstNode]
	if b.msgs > 0 && len(b.words)+5+len(data) > maxDataBatchWords {
		w.encodeBatchLocked(b)
	}
	if b.msgs == 0 {
		b.gen, b.src, b.dst = gen, int32(src), int32(dst)
	}
	b.words = append(b.words,
		math.Float64frombits(uint64(src)),
		math.Float64frombits(uint64(dst)),
		math.Float64frombits(uint64(tag)),
		arrival,
		math.Float64frombits(uint64(len(data))))
	b.words = append(b.words, data...)
	b.msgs++
	b.bytes += uint64(len(data) * wordBytes)
	w.kick()
	w.wmu.Unlock()
}

// encodeBatchLocked turns one pending batch into a Data frame in the write
// buffer and rearms it. Callers hold wmu.
func (w *ipcWorker) encodeBatchLocked(b *pendBatch) {
	w.txData++
	f := wire.Frame{
		Kind:    wire.KindData,
		Src:     b.src,
		Dst:     b.dst,
		Tag:     b.bytes,
		Seq:     w.txData,
		A:       b.gen,
		B:       b.msgs,
		Payload: b.words,
	}
	_ = wire.WriteFrame(w.bw, &w.wscratch, &f)
	w.dirty = true
	b.words = b.words[:0]
	b.msgs, b.bytes = 0, 0
}

// encodePendingLocked drains every pending batch into the write buffer —
// the step every flush point takes first, so queued sends always precede
// whatever control frame or flush triggered it on the FIFO. Callers hold
// wmu.
func (w *ipcWorker) encodePendingLocked() {
	for i := range w.pend {
		if b := &w.pend[i]; b.msgs > 0 {
			w.encodeBatchLocked(b)
		}
	}
}

// clearPendingLocked drops queued sends (reset and spec fences: the run
// they belong to is being unwound and its traffic must not leak into the
// next epoch's counters). Callers hold wmu.
func (w *ipcWorker) clearPendingLocked() {
	for i := range w.pend {
		b := &w.pend[i]
		b.words = b.words[:0]
		b.msgs, b.bytes = 0, 0
	}
}

// sendStallHint implements workerIO: report local quiescence. The flush
// pushes out any batched Data frames first (same buffer, FIFO), so the
// coordinator's probe sees counters consistent with everything this node
// has sent.
func (w *ipcWorker) sendStallHint(gen uint64) {
	_ = w.writeControl(&wire.Frame{Kind: wire.KindStallHint, Src: int32(w.node), Seq: gen})
}

// sendBarrierArrive implements workerIO: every local rank reached
// host-barrier generation barrier.
func (w *ipcWorker) sendBarrierArrive(gen, barrier uint64) {
	_ = w.writeControl(&wire.Frame{Kind: wire.KindBarrier, Src: int32(w.node), Seq: barrier, A: gen})
}

// maxResultBatchWords bounds one result frame's payload so a node with
// huge per-rank records splits into several frames well short of the wire
// codec's MaxPayloadWords guard.
const maxResultBatchWords = 1 << 20

// executeRun drives one distributed run to completion off the read loop:
// run the node's ranks, then ship the results and flush. All local ranks'
// records pack into one RankResult frame (split only past
// maxResultBatchWords), so a node's results cost one encode and one decode
// instead of one frame per rank. Record layout: four header words — rank,
// error class, error byte length, payload word count, each a bit container
// in the PackBytes sense — then the payload words, then the packed error
// text. Closing done lets a reset fence join in-flight runs.
func (w *ipcWorker) executeRun(run WorkerRun, gen uint64, done chan struct{}) {
	defer close(done)
	results := run.Execute()
	w.finished.Store(true)
	var words []float64
	var count uint64
	ship := func() error {
		if count == 0 {
			return nil
		}
		f := wire.Frame{Kind: wire.KindRankResult, Src: int32(w.node), Seq: gen, A: count, Payload: words}
		err := w.writeBatched(&f)
		words, count = nil, 0
		return err
	}
	for i := range results {
		r := &results[i]
		var errWords []float64
		if r.ErrText != "" {
			errWords = wire.PackBytes([]byte(r.ErrText))
		}
		if len(words) > 0 && len(words)+4+len(r.Payload)+len(errWords) > maxResultBatchWords {
			if err := ship(); err != nil {
				return
			}
		}
		words = append(words,
			math.Float64frombits(uint64(r.Rank)),
			math.Float64frombits(r.ErrClass),
			math.Float64frombits(uint64(len(r.ErrText))),
			math.Float64frombits(uint64(len(r.Payload))))
		words = append(words, r.Payload...)
		words = append(words, errWords...)
		count++
	}
	if err := ship(); err != nil {
		return
	}
	w.wmu.Lock()
	w.encodePendingLocked()
	w.bw.Flush()
	w.dirty = false
	w.wmu.Unlock()
}

// endRun aborts and joins the active run (reset fence, shutdown): take the
// transport down with the given reason, wait for every local rank to unwind
// and the result stream to complete. Any frames the dying run wrote reach
// the socket before whatever the caller writes next.
func (w *ipcWorker) endRun(reason error) {
	if w.active == nil {
		return
	}
	w.active.hostDown(reason)
	if w.runStarted {
		// Only a started run has an executeRun goroutine to join; a spec
		// that was accepted but never started (another node rejected it)
		// is simply discarded.
		<-w.runDone
	}
	w.active, w.runner, w.runDone, w.runStarted = nil, nil, nil, false
}

func (w *ipcWorker) loop() int {
	var prefix [4]byte
	for {
		if _, err := io.ReadFull(w.br, prefix[:]); err != nil {
			// EOF, connection reset, or any other socket-level failure: the
			// coordinator is gone. Exit quietly — don't linger as an orphan.
			return 0
		}
		n := binary.LittleEndian.Uint32(prefix[:])
		if n < wire.HeaderLen || n > wire.MaxBody {
			return w.fail(1, "frame body of %d bytes out of range", n)
		}
		if cap(w.body) < int(n) {
			w.body = make([]byte, n)
		}
		body := w.body[:n]
		if _, err := io.ReadFull(w.br, body); err != nil {
			return 0 // socket died mid-frame: coordinator is gone
		}
		kind := wire.Kind(body[0])
		switch kind {
		case wire.KindData:
			seq := binary.LittleEndian.Uint64(body[17:25])
			if seq != w.rxData+1 {
				return w.fail(2, "FIFO gap: data frame seq %d after %d", seq, w.rxData)
			}
			w.rxData++
			if w.active != nil {
				// Exec mode: a routed multi-message Data frame holding
				// another node's batched inter-node sends (B messages; see
				// pendBatch for the record layout). Decode once, then peel
				// each message into its own pooled buffer and make the
				// mailbox delivery every intra-node send uses.
				var f wire.Frame
				if err := w.decode(prefix[:], body, &f, w.active.acquire); err != nil {
					return w.fail(1, "routed data: %v", err)
				}
				p := f.Payload
				for m := uint64(0); m < f.B; m++ {
					if len(p) < 5 {
						return w.fail(1, "routed data batch truncated")
					}
					src := int(int64(math.Float64bits(p[0])))
					dst := int(int64(math.Float64bits(p[1])))
					tag := Tag(math.Float64bits(p[2]))
					arrival := p[3]
					plen := math.Float64bits(p[4])
					if plen > uint64(len(p)-5) {
						return w.fail(1, "routed data message overruns batch")
					}
					data := w.active.acquire(int(plen))
					copy(data, p[5:5+plen])
					if err := w.active.deliverRemote(src, dst, tag, data, arrival); err != nil {
						return w.fail(1, "%v", err)
					}
					p = p[5+plen:]
				}
				w.active.release(f.Payload)
				break
			}
			// Relay mode hot path: flip the kind byte and reflect the
			// identical bytes back.
			body[0] = byte(wire.KindDeliver)
			w.wmu.Lock()
			_, err1 := w.bw.Write(prefix[:])
			_, err2 := w.bw.Write(body)
			w.txData++
			w.dirty = true
			w.wmu.Unlock()
			if err1 != nil || err2 != nil {
				return 0 // write failed: coordinator is gone
			}
			if err := w.flushIfIdle(); err != nil {
				return 0
			}
		case wire.KindProbe:
			var f wire.Frame
			if err := w.decode(prefix[:], body, &f, nil); err != nil {
				return w.fail(1, "probe: %v", err)
			}
			var flags uint64
			if w.active != nil {
				if w.finished.Load() {
					flags |= probeFinished
				} else if w.active.stalled(false) {
					flags |= probeStalled
				}
			}
			w.wmu.Lock()
			// Queued sends encode first so the counters the ack reports are
			// settled: a probe that lands between a rank's send and the
			// flusher's pass must not see "quiescent" with messages still
			// waiting in a pending batch. txData is read under wmu.
			w.encodePendingLocked()
			ack := wire.Frame{Kind: wire.KindProbeAck, Src: int32(w.node), Seq: f.Seq, A: w.rxData, B: w.txData, Tag: flags}
			err := wire.WriteFrame(w.bw, &w.wscratch, &ack)
			if err == nil {
				err = w.bw.Flush()
				w.dirty = false
			}
			w.wmu.Unlock()
			if err != nil {
				return 0
			}
		case wire.KindReset:
			var f wire.Frame
			if err := w.decode(prefix[:], body, &f, nil); err != nil {
				return w.fail(1, "reset: %v", err)
			}
			// A fence joins any in-flight run first: its ranks unwind, its
			// last frames reach the socket, and only then do the counters
			// rewind and the ack release the coordinator.
			w.endRun(fmt.Errorf("machine: ipc run fenced by coordinator reset"))
			w.finished.Store(false)
			seen := w.rxData
			w.rxData = 0
			ack := wire.Frame{Kind: wire.KindResetAck, Src: int32(w.node), Seq: f.Seq, A: seen}
			w.wmu.Lock()
			w.clearPendingLocked()
			w.txData = 0
			err := wire.WriteFrame(w.bw, &w.wscratch, &ack)
			if err == nil {
				err = w.bw.Flush()
				w.dirty = false
			}
			w.wmu.Unlock()
			if err != nil {
				return 0
			}
		case wire.KindBarrier:
			var f wire.Frame
			if err := w.decode(prefix[:], body, &f, nil); err != nil {
				return w.fail(1, "barrier: %v", err)
			}
			if w.active != nil {
				w.active.releaseBarrier(f.Seq)
			}
		case wire.KindAbort:
			// Exec mode: the coordinator's verdict on the active run —
			// Seq 1 is a declared distributed stall (ranks unwind with the
			// deadlock cause), anything else a generic abort. The run is
			// not joined here: its ranks unwind concurrently and the
			// results still stream back. Relay mode: the abort is between
			// the coordinator's ranks; the daemon just keeps relaying.
			var f wire.Frame
			if err := w.decode(prefix[:], body, &f, nil); err != nil {
				return w.fail(1, "abort: %v", err)
			}
			if w.active != nil {
				if f.Seq == abortStallDeclared {
					w.active.declareStall()
				} else {
					w.active.hostDown(fmt.Errorf("machine: ipc run aborted by coordinator"))
				}
			}
		case wire.KindRunSpec:
			var f wire.Frame
			if err := w.decode(prefix[:], body, &f, nil); err != nil {
				return w.fail(1, "run spec: %v", err)
			}
			// The spec doubles as the fence for back-to-back runs (the
			// coordinator skips the Reset exchange when the previous run
			// completed cleanly): join any prior run and rewind the frame
			// counters exactly here — everything earlier in the FIFO was
			// counted in the old epoch on both sides, so the cuts align
			// with the coordinator's pre-broadcast rewind.
			w.endRun(errFencedBySpec)
			w.finished.Store(false)
			w.rxData = 0
			w.wmu.Lock()
			w.clearPendingLocked()
			w.txData = 0
			w.wmu.Unlock()
			spec, err := wire.UnpackBytes(f.Payload, int(f.A))
			if err == nil {
				if hook := loadWorkerExecHook(); hook == nil {
					err = fmt.Errorf("worker binary is not armed for execution (EnableWorkerExec never ran)")
				} else {
					var run WorkerRun
					run, err = hook(&WorkerHost{w: w, gen: f.Seq}, spec)
					if err == nil && (run == nil || run.Transport() == nil) {
						err = fmt.Errorf("execution hook returned no transport")
					}
					if err == nil {
						// Install, then execute straight away: the spec is
						// also the start signal (the coordinator broadcasts
						// it under every socket's write lock, so any Data
						// frame another node's ranks emit is routed behind
						// this node's spec on the FIFO and finds the
						// mailboxes ready). Success is never acked — the
						// first RankResult says it all.
						w.active, w.runner, w.activeGen = run.Transport(), run, f.Seq
						w.finished.Store(false)
						w.runDone = make(chan struct{})
						w.runStarted = true
						go w.executeRun(w.runner, w.activeGen, w.runDone)
						break
					}
				}
			}
			text := err.Error()
			ack := wire.Frame{Kind: wire.KindRunAck, Src: int32(w.node), Seq: f.Seq,
				A: 1, B: uint64(len(text)), Payload: wire.PackBytes([]byte(text))}
			if werr := w.writeControl(&ack); werr != nil {
				return 0
			}
		case wire.KindShutdown:
			return 0
		default:
			return w.fail(1, "unexpected %v frame", kind)
		}
	}
}

// decode re-assembles the already-read prefix and body into a full decode
// for control frames and routed Data (the relay hot path never pays for
// this).
func (w *ipcWorker) decode(prefix, body []byte, f *wire.Frame, acquire func(n int) []float64) error {
	w.rbuf = append(append(w.rbuf[:0], prefix...), body...)
	_, err := wire.DecodeFrame(w.rbuf, f, acquire)
	return err
}
