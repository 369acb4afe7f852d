package machine

import (
	"fmt"
	"sync"
)

// FederatedTransport partitions a machine's processors into nodes of equal
// size — the NUMA-style multi-machine federation past the reach of one
// shared mailbox array. It is the shared transport plus node links:
// intra-node messages go straight to the receiver's mailbox (one lock per
// receiver, as on SharedTransport); inter-node messages are delivered under
// a per-ordered-node-pair link lock that serializes them, so each directed
// node pair behaves like one FIFO network channel and carries byte/message
// counters — the numbers a performance estimator needs to price node
// interconnect traffic.
//
// Under a flat cost model a program's clocks, statistics and results are
// bit-identical on a FederatedTransport and a SharedTransport; the
// conformance suite and the S2 experiment hold both transports to that.
// With a hierarchical cost model (CostModel.InterNode) the federation
// additionally prices inter-node messages at their link's latency and
// bandwidth through MessageTime, so values and message counts stay
// identical while virtual times honestly diverge — the NUMA effect the
// paper's performance-estimation story needs the clock to see.
type FederatedTransport struct {
	hostBoxes
	nodeLinks
}

// nodeLinks is the node partition of a multi-node transport and the
// counted directed links between its nodes, shared by the federated and
// ipc transports.
type nodeLinks struct {
	nnodes  int
	perNode int
	links   []link // directed node pairs, row-major [src*nnodes+dst]
}

// link is one directed inter-node channel. Its counters census every byte
// that would cross the interconnect; the federated transport also holds
// the lock across delivery, so messages crossing the same node pair are
// handed to the destination in send order — an honest stand-in for a FIFO
// network link.
type link struct {
	mu    sync.Mutex
	msgs  int64
	bytes int64
}

// init partitions n processors into nnodes equal nodes.
func (nl *nodeLinks) init(n, nnodes int) {
	if nnodes <= 0 || n%nnodes != 0 {
		panic(fmt.Sprintf("machine: a federation of %d processors needs a positive node count dividing it, got %d", n, nnodes))
	}
	nl.nnodes = nnodes
	nl.perNode = n / nnodes
	nl.links = make([]link, nnodes*nnodes)
}

// Nodes returns the number of nodes.
func (nl *nodeLinks) Nodes() int { return nl.nnodes }

// ProcsPerNode returns the number of processors on each node.
func (nl *nodeLinks) ProcsPerNode() int { return nl.perNode }

// NodeOf returns the node owning the given rank.
func (nl *nodeLinks) NodeOf(rank int) int { return rank / nl.perNode }

// MessageTime prices a message by the link it crosses: intra-node messages
// pay the flat cost, inter-node messages pay the cost model's per-link
// price. With a flat cost model (no InterNode table) every pair prices
// identically to SharedTransport — the degenerate case the conformance
// suite's bit-identical-times battery pins — and every node-partitioned
// transport prices identically to every other, which keeps virtual times
// bit-identical across federated, ipc and the ipc workers.
func (nl *nodeLinks) MessageTime(cost CostModel, src, dst, b int) float64 {
	return cost.LinkMessageTime(src/nl.perNode, dst/nl.perNode, b)
}

// linkFor returns the directed link from node sn to node dn.
func (nl *nodeLinks) linkFor(sn, dn int) *link { return &nl.links[sn*nl.nnodes+dn] }

// count adds msgs messages of bytes total payload bytes to the link's
// counters.
func (l *link) count(msgs, bytes int64) {
	l.mu.Lock()
	l.msgs += msgs
	l.bytes += bytes
	l.mu.Unlock()
}

// LinkTraffic returns the message and byte counts carried by the directed
// link from node src to node dst since the last Reset. Counts are a
// deterministic function of the program (every inter-node message crosses
// exactly one link), so they can be asserted exactly.
func (nl *nodeLinks) LinkTraffic(src, dst int) (msgs, bytes int64) {
	l := nl.linkFor(src, dst)
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.msgs, l.bytes
}

// InterNodeTraffic returns the total message and byte counts that crossed
// node boundaries since the last Reset.
func (nl *nodeLinks) InterNodeTraffic() (msgs, bytes int64) {
	for i := range nl.links {
		l := &nl.links[i]
		l.mu.Lock()
		msgs += l.msgs
		bytes += l.bytes
		l.mu.Unlock()
	}
	return msgs, bytes
}

// resetLinks zeroes every link counter, each under its lock, so a
// concurrent reader (a stress harness, a monitoring goroutine) observes
// either the old counts or the cleared ones, never a torn mixture.
func (nl *nodeLinks) resetLinks() {
	for i := range nl.links {
		l := &nl.links[i]
		l.mu.Lock()
		l.msgs, l.bytes = 0, 0
		l.mu.Unlock()
	}
}

// NewFederatedTransport returns a transport with n endpoints partitioned
// into nnodes equal nodes (nnodes must divide n). Node k owns ranks
// [k*n/nnodes, (k+1)*n/nnodes).
func NewFederatedTransport(n, nnodes int) *FederatedTransport {
	t := &FederatedTransport{}
	t.hostBoxes.init(0, n)
	t.nodeLinks.init(n, nnodes)
	return t
}

// Send routes a message: directly into the destination's mailbox for
// intra-node traffic, through the (srcNode, dstNode) link — counted and
// order-preserved under the link lock — for inter-node traffic.
func (t *FederatedTransport) Send(src, dst int, tag Tag, data []float64, arrival float64) {
	sn, dn := src/t.perNode, dst/t.perNode
	if sn == dn {
		t.deliver(src, dst, tag, data, arrival)
		return
	}
	l := t.linkFor(sn, dn)
	l.mu.Lock()
	l.msgs++
	l.bytes += int64(len(data) * wordBytes)
	t.deliver(src, dst, tag, data, arrival)
	l.mu.Unlock()
}

// Reset clears all mailboxes, waiter state, link counters and the down
// flag, keeping allocated capacity.
func (t *FederatedTransport) Reset() {
	t.hostBoxes.Reset()
	t.resetLinks()
}
