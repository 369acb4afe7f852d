package machine

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// message is a delivered-but-not-yet-received payload with its virtual
// arrival time at the destination.
type message struct {
	data    []float64
	arrival float64
}

// msgKey matches receives to sends: point-to-point by source and tag.
type msgKey struct {
	src int
	tag Tag
}

// mailbox is one processor's incoming message state. Each mailbox has its
// own lock, so senders targeting different receivers never contend — the
// post office is sharded by destination. Only the owning processor's
// goroutine receives from a mailbox; any processor may put into it.
type mailbox struct {
	mu     sync.Mutex
	cond   *sync.Cond
	queues map[msgKey][]message
	// spare recycles drained per-key queue slices so steady-state
	// traffic performs no allocation: a phase's keys are used once and
	// deleted, but their backing arrays live on here.
	spare [][]message
	// await/waiting describe the receive the owner is blocked on, for
	// targeted wakeups and deadlock detection.
	await   msgKey
	waiting bool
}

// putLocked appends a message to the mailbox. Caller holds mb.mu.
func (mb *mailbox) putLocked(k msgKey, msg message) {
	q, ok := mb.queues[k]
	if !ok && len(mb.spare) > 0 {
		q = mb.spare[len(mb.spare)-1]
		mb.spare = mb.spare[:len(mb.spare)-1]
	}
	mb.queues[k] = append(q, msg)
}

// takeLocked removes the oldest message matching k, reporting whether one
// was present. Drained queues return their backing array to the spare list.
// Caller holds mb.mu.
func (mb *mailbox) takeLocked(k msgKey) (message, bool) {
	q := mb.queues[k]
	if len(q) == 0 {
		return message{}, false
	}
	msg := q[0]
	copy(q, q[1:])
	q[len(q)-1] = message{} // drop the payload reference
	q = q[:len(q)-1]
	if len(q) == 0 {
		delete(mb.queues, k)
		mb.spare = append(mb.spare, q)
	} else {
		mb.queues[k] = q
	}
	return msg, true
}

// reset clears the mailbox between Runs, keeping the allocated map and
// spare queue capacity for reuse.
func (mb *mailbox) reset() {
	for k, q := range mb.queues {
		for i := range q {
			q[i] = message{}
		}
		delete(mb.queues, k)
		mb.spare = append(mb.spare, q[:0])
	}
	mb.waiting = false
	mb.await = msgKey{}
}

// mailboxes is the one receive protocol of every transport in this
// package: a per-receiver mailbox array over the rank window
// [lo, lo+len(boxes)), the down flag, and the bound coordinator. It is the
// only code that parks a receiver or snapshots waiters; the transports
// differ only in how a message reaches deliver (in memory, through a
// counted node link, across a socket) and in how a stall is confirmed
// beyond this process.
type mailboxes struct {
	lo    int
	boxes []mailbox
	coord Coordinator
	// pool and recheck are the coordinator's optional capabilities (see
	// bufPool and stallRechecker), used by the transports that decode
	// payloads off a wire and re-run stall checks from their own
	// goroutines.
	pool    bufPool
	recheck stallRechecker
	down    atomic.Bool
}

// init allocates n mailboxes for the ranks [lo, lo+n).
func (m *mailboxes) init(lo, n int) {
	m.lo = lo
	m.boxes = make([]mailbox, n)
	for i := range m.boxes {
		mb := &m.boxes[i]
		mb.cond = sync.NewCond(&mb.mu)
		mb.queues = make(map[msgKey][]message)
	}
}

// Bind installs the machine's coordinator (nil for standalone use) and
// picks up its optional capabilities.
func (m *mailboxes) Bind(c Coordinator) {
	m.coord = c
	m.pool, _ = c.(bufPool)
	m.recheck, _ = c.(stallRechecker)
}

// acquire supplies a payload buffer for a message decoded off a wire, from
// the machine pool when bound.
func (m *mailboxes) acquire(n int) []float64 {
	if m.pool != nil {
		return m.pool.acquirePooled(n)
	}
	return make([]float64, n)
}

// release recycles a payload buffer through the machine pool when bound:
// a sender's buffer once its message is encoded onto a wire, or a decoded
// container once its messages are copied out.
func (m *mailboxes) release(buf []float64) {
	if m.pool != nil && buf != nil {
		m.pool.releasePooled(buf)
	}
}

// Down reports whether the transport has been aborted (or has detected a
// stall) since the last Reset.
func (m *mailboxes) Down() bool { return m.down.Load() }

// deliver places a message in dst's mailbox and wakes dst if it is waiting
// for exactly this stream — through the machine's Parker when a parking
// engine is driving (moving dst from parked to runnable on the calendar),
// through the mailbox condition variable otherwise. Only the destination's
// mailbox lock is taken, so concurrent deliveries to different receivers
// proceed in parallel.
func (m *mailboxes) deliver(src, dst int, tag Tag, data []float64, arrival float64) {
	mb := &m.boxes[dst-m.lo]
	k := msgKey{src: src, tag: tag}
	mb.mu.Lock()
	mb.putLocked(k, message{data: data, arrival: arrival})
	if mb.waiting && mb.await == k {
		if pk := parkerOf(m.coord); pk != nil {
			pk.Wake(dst)
		} else {
			mb.cond.Signal()
		}
	}
	mb.mu.Unlock()
}

// Recv blocks the calling endpoint until a message matching (src, tag) is
// available in dst's mailbox, then returns it. ok is false if the transport
// went down (deadlock or abort) while waiting.
func (m *mailboxes) Recv(dst, src int, tag Tag) ([]float64, float64, bool) {
	mb := &m.boxes[dst-m.lo]
	k := msgKey{src: src, tag: tag}
	mb.mu.Lock()
	if msg, ok := mb.takeLocked(k); ok {
		mb.mu.Unlock()
		return msg.data, msg.arrival, true
	}
	if m.down.Load() {
		mb.mu.Unlock()
		return nil, 0, false
	}
	// Slow path: publish what we are waiting for, then report ourselves
	// blocked. The order matters: once the machine's blocked count
	// reaches its live count, a stall check must be able to see every
	// blocked processor's awaited key.
	mb.await = k
	mb.waiting = true
	mb.mu.Unlock()

	if m.coord != nil {
		m.coord.Blocked()
	}

	pk := parkerOf(m.coord)
	mb.mu.Lock()
	for {
		msg, ok := mb.takeLocked(k)
		if ok || m.down.Load() {
			mb.waiting = false
			mb.mu.Unlock()
			if m.coord != nil {
				m.coord.Unblocked()
			}
			return msg.data, msg.arrival, ok
		}
		if pk != nil {
			// Park the rank's continuation with no locks held; a Wake
			// that raced ahead (the message arrived between the checks
			// above and here) returns immediately, and the loop
			// re-checks either way.
			mb.mu.Unlock()
			pk.Park(dst)
			mb.mu.Lock()
		} else {
			mb.cond.Wait()
		}
	}
}

// stalled reports a deadlock when every live processor is blocked and none
// of them has a pending message matching its awaited key. It takes all
// mailbox locks (in rank order) for a consistent snapshot; with every lock
// held, "all live processors waiting and no matches anywhere" is a true
// deadlock: no future send can occur. With declare set, a stall also takes
// the mailboxes down and wakes every receiver; without it the check only
// evaluates — the non-destructive confirmation the chaos layer and the
// distributed probe use.
//
// A processor that has been woken but not yet re-counted shows
// waiting==false, which keeps the waiting count below live and prevents a
// false positive while it finishes proceeding.
func (m *mailboxes) stalled(declare bool) bool {
	if m.coord == nil {
		return false
	}
	for i := range m.boxes {
		m.boxes[i].mu.Lock()
	}
	stalled := false
	if !m.down.Load() {
		if live := m.coord.ConfirmStall(); live > 0 {
			waiting := 0
			canProceed := false
			for i := range m.boxes {
				mb := &m.boxes[i]
				if !mb.waiting {
					continue
				}
				waiting++
				if len(mb.queues[mb.await]) > 0 {
					canProceed = true
				}
			}
			stalled = waiting >= live && !canProceed
		}
	}
	if stalled && declare {
		m.down.Store(true)
		for i := range m.boxes {
			m.boxes[i].cond.Broadcast()
		}
	}
	for i := range m.boxes {
		m.boxes[i].mu.Unlock()
	}
	if stalled && declare {
		if pk := parkerOf(m.coord); pk != nil {
			pk.WakeAll()
		}
	}
	return stalled
}

// abort marks the mailboxes down and wakes every blocked receiver.
func (m *mailboxes) abort() {
	m.down.Store(true)
	for i := range m.boxes {
		mb := &m.boxes[i]
		mb.mu.Lock()
		mb.cond.Broadcast()
		mb.mu.Unlock()
	}
	if pk := parkerOf(m.coord); pk != nil {
		pk.WakeAll()
	}
}

// clear empties every mailbox and lowers the down flag, keeping capacity.
// Each mailbox lock is held while it is cleared, so a concurrent stall
// check never observes a torn mixture of old and cleared state.
func (m *mailboxes) clear() {
	for i := range m.boxes {
		mb := &m.boxes[i]
		mb.mu.Lock()
		mb.reset()
		mb.mu.Unlock()
	}
	m.down.Store(false)
}

// hostBoxes is the mailbox core plus the host barrier: every part of a
// transport short of Send and MessageTime. Every transport in the package
// embeds it; the ipc worker's barrier is the one whose release is remote
// (see hostBarrier.announce).
type hostBoxes struct {
	mailboxes
	bar hostBarrier
}

func (t *hostBoxes) init(lo, n int) {
	if n <= 0 {
		panic(fmt.Sprintf("machine: transport endpoint count must be positive, got %d", n))
	}
	t.mailboxes.init(lo, n)
	t.bar.init(n)
}

// Size returns the number of endpoints.
func (t *hostBoxes) Size() int { return len(t.boxes) }

// Barrier parks the calling endpoint until all endpoints arrive.
func (t *hostBoxes) Barrier(rank int) bool {
	if rank < t.lo || rank >= t.lo+len(t.boxes) {
		panic(fmt.Sprintf("machine: barrier from rank %d outside [%d, %d)", rank, t.lo, t.lo+len(t.boxes)))
	}
	return t.bar.await(rank, &t.down, parkerOf(t.coord))
}

// Reset clears all mailboxes, the barrier and the down flag, keeping
// capacity.
func (t *hostBoxes) Reset() {
	t.clear()
	t.bar.reset()
}

// Abort marks the transport down and wakes every blocked receiver and
// barrier waiter.
func (t *hostBoxes) Abort() {
	t.abort()
	t.bar.wake()
}

// CheckStalled flags a deadlock (see mailboxes.stalled), taking the
// transport down and waking every receiver and barrier waiter.
func (t *hostBoxes) CheckStalled() bool {
	if !t.stalled(true) {
		return false
	}
	t.bar.wake()
	return true
}

// probeStalled evaluates the stall condition without declaring it; see
// stallProber.
func (t *hostBoxes) probeStalled() bool { return t.stalled(false) }

// SharedTransport is the single-machine message substrate: one individually
// locked mailbox per receiving processor, shared-memory delivery with no
// intermediate hops. It is the default transport of machine.New and the
// zero-allocation fast path — a warmed ping-pong performs no heap
// allocation, which the conformance suite pins.
type SharedTransport struct {
	hostBoxes
}

// NewSharedTransport returns a shared-memory transport with n endpoints.
func NewSharedTransport(n int) *SharedTransport {
	t := &SharedTransport{}
	t.init(0, n)
	return t
}

// MessageTime prices every processor pair at the flat cost: the shared
// transport is one node, so no message ever crosses an inter-node link.
func (t *SharedTransport) MessageTime(cost CostModel, src, dst, b int) float64 {
	return cost.MessageTime(b)
}

// Send delivers a message straight into the destination's mailbox.
func (t *SharedTransport) Send(src, dst int, tag Tag, data []float64, arrival float64) {
	t.deliver(src, dst, tag, data, arrival)
}
