package machine

import (
	"sync"
	"sync/atomic"
)

// Transport is the communication substrate of a Machine: it moves message
// payloads between processor endpoints and implements the blocked-receiver
// bookkeeping the machine's deadlock detector relies on. The Machine layers
// virtual-time accounting (clocks, overheads, stats, tracing) on top; a
// Transport only stores, matches and delivers.
//
// Message matching follows the machine's tag discipline: a receive matches
// the oldest pending message with the same (source, tag) pair addressed to
// the receiving endpoint, so every (src, dst, tag) stream is FIFO and
// distinct streams never interact. Any implementation holding that contract
// (and the rest of the conformance battery in transport_conformance_test.go)
// can carry the whole runtime — compiled communication schedules replay
// unchanged, with bit-identical virtual times, on every conforming
// transport.
//
// Four implementations ship with the package, all built on one mailbox
// core (mailboxes: deliver, the blocking receive, the stall snapshot):
// SharedTransport (the per-receiver mailbox array, the single-machine fast
// path), FederatedTransport (the same mailboxes with processors
// partitioned into nodes and inter-node traffic counted on per-node-pair
// ordered links), IPCTransport (the federation's nodes as worker
// processes joined by sockets) and WorkerTransport (one worker's window of
// an ipc machine whose ranks run inside the workers). ChaosTransport wraps
// any of them with seeded faults.
type Transport interface {
	// Size returns the number of processor endpoints.
	Size() int

	// Send delivers data from endpoint src to endpoint dst on the
	// (src, tag) stream, with the given virtual arrival time. It never
	// blocks indefinitely and may be called concurrently from every
	// endpoint. Ownership of data passes to the transport (and then to
	// the receiver).
	Send(src, dst int, tag Tag, data []float64, arrival float64)

	// MessageTime returns the end-to-end transfer time (excluding sender
	// and receiver overheads) for a message of b bytes from endpoint src
	// to endpoint dst under cost — the arrival-time computation the
	// machine threads through every Send. The transport knows which link
	// the message crosses; the cost model knows what each link charges.
	// Flat transports return cost.MessageTime(b) for every pair;
	// FederatedTransport prices inter-node messages with the cost model's
	// per-link table. Implementations must be pure and deterministic.
	MessageTime(cost CostModel, src, dst, b int) float64

	// Recv blocks until a message on the (src, tag) stream addressed to
	// dst is available and returns its payload and arrival time. The ok
	// result is false when the transport went down (abort or detected
	// stall) while waiting. Only dst's goroutine may receive for dst.
	Recv(dst, src int, tag Tag) (data []float64, arrival float64, ok bool)

	// Barrier blocks the calling endpoint until every endpoint has
	// entered the same barrier generation, then releases them together.
	// It is a host-level fence with no virtual-time cost — the hook a
	// networked transport needs for epoch alignment — and reports false
	// when the transport went down while waiting. Virtual-time barriers
	// belong to the coll package.
	//
	// A processor parked in Barrier is not counted by the machine's
	// deadlock detector: a program in which some processors sit in a
	// Barrier that others will never reach (because they are stuck in an
	// unsatisfiable Recv) hangs rather than returning ErrDeadlock. Only
	// every endpoint entering the same barrier is a correct use.
	Barrier(rank int) bool

	// Reset clears all in-flight messages, waiter state, traffic
	// counters and the down flag, keeping allocated capacity, so a
	// transport can be reused across Machine.Run calls.
	Reset()

	// Abort marks the transport down and wakes every blocked receiver
	// and barrier waiter; their calls return ok=false. Subsequent
	// receives fail fast until Reset.
	Abort()

	// Down reports whether the transport has been aborted (or has
	// detected a stall) since the last Reset.
	Down() bool

	// CheckStalled decides, atomically with respect to all sends and
	// receives, whether the machine has deadlocked. With every internal
	// lock held it asks the bound coordinator's ConfirmStall, which
	// returns the number of live processors if all of them are counted
	// as blocked (and -1 to veto the check). If at least that many
	// receivers are parked with no pending message matching their
	// awaited stream, no future send can ever occur: the transport marks
	// itself down, wakes everyone, and returns true. With no coordinator
	// bound it reports false.
	CheckStalled() bool

	// Bind installs the machine's coordinator. It is called once, before
	// any traffic; nil is legal for standalone (testing) use.
	Bind(c Coordinator)
}

// Coordinator is the owning machine's face toward its transport: the
// callbacks a Transport must invoke around blocking waits so parked
// processors can be counted for deadlock detection. Machine implements it
// without per-call allocation; a standalone transport may run with none.
type Coordinator interface {
	// Blocked is called after a receiver has published the stream it is
	// waiting for, before it parks. No transport locks are held.
	Blocked()
	// Unblocked is called after a parked receiver resumes (with a
	// message or on a down transport). No transport locks are held.
	Unblocked()
	// ConfirmStall is called by CheckStalled with every transport lock
	// held: it returns the live processor count if all live processors
	// are currently counted as blocked, and -1 to veto the stall check.
	ConfirmStall() int
}

// hostBarrier is the generation-counted barrier shared by the bundled
// transports. It synchronizes host goroutines, not virtual clocks.
type hostBarrier struct {
	mu       sync.Mutex
	cond     *sync.Cond
	size     int    // endpoints arriving at this barrier
	arrived  int    // arrivals in the current generation
	gen      uint64 // generations every endpoint has entered
	released uint64 // generations released
	// waiters lists the ranks parked through a Parker on the current
	// generation; the release wakes each one. Under a parking engine a
	// barrier waiter must yield its worker token — with one worker, a
	// cond-blocked waiter would hold the only token and no later endpoint
	// could ever arrive.
	waiters []int
	// announce, when set, makes the release remote: the last arrival of
	// generation g calls announce(g) under the barrier lock, and the
	// generation stays closed until release(g) — the ipc worker's half of
	// a machine-wide barrier, whose other endpoints live on other nodes.
	// When nil, the last arrival releases the generation itself.
	announce func(gen uint64)
}

func (b *hostBarrier) init(size int) {
	b.size = size
	b.cond = sync.NewCond(&b.mu)
}

// await parks the caller until its generation is released, reporting false
// if down was raised while waiting. With a non-nil Parker the wait parks
// through the engine (releasing the worker token) instead of the condition
// variable; the down path needs no barrier-local wakeup for parked waiters
// because whatever raised down broadcasts a WakeAll.
func (b *hostBarrier) await(rank int, down *atomic.Bool, pk Parker) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if down.Load() {
		return false
	}
	g := b.gen + 1
	b.arrived++
	if b.arrived == b.size {
		b.arrived = 0
		b.gen = g
		if b.announce == nil {
			b.releaseLocked(g, pk)
			return true
		}
		b.announce(g)
	}
	if pk != nil && b.released < g {
		b.waiters = append(b.waiters, rank)
	}
	for b.released < g && !down.Load() {
		if pk != nil {
			b.mu.Unlock()
			pk.Park(rank)
			b.mu.Lock()
		} else {
			b.cond.Wait()
		}
	}
	return b.released >= g
}

// release opens generation g (and every earlier one) and wakes its
// waiters.
func (b *hostBarrier) release(g uint64, pk Parker) {
	b.mu.Lock()
	b.releaseLocked(g, pk)
	b.mu.Unlock()
}

func (b *hostBarrier) releaseLocked(g uint64, pk Parker) {
	b.released = max(b.released, g)
	b.cond.Broadcast()
	if pk != nil {
		// Waking under b.mu keeps this generation's waiter list intact:
		// a woken rank cannot re-enter await (and append to waiters)
		// until the unlock.
		for _, w := range b.waiters {
			pk.Wake(w)
		}
		b.waiters = b.waiters[:0]
	}
}

// wake releases barrier waiters after the down flag is set (parked waiters
// are woken by the abort/stall WakeAll broadcast).
func (b *hostBarrier) wake() {
	b.mu.Lock()
	b.cond.Broadcast()
	b.mu.Unlock()
}

// reset rewinds the barrier to generation zero (waiters from an aborted
// Run have all exited by the time a Machine resets its transport).
func (b *hostBarrier) reset() {
	b.mu.Lock()
	b.arrived, b.gen, b.released = 0, 0, 0
	b.waiters = b.waiters[:0]
	b.mu.Unlock()
}
