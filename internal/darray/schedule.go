package darray

import (
	"fmt"
	"strings"

	"repro/internal/dist"
	"repro/internal/machine"
	"repro/internal/sched"
)

// scheduled selects between the two implementations of every collective:
// compile a communication schedule once and replay it (the
// inspector/executor path a KF1 compiler would generate for iterative
// loops), or derive the communication inline on every call (the reference
// path the schedules were compiled from). The two produce bit-identical
// traffic — same messages, same order, same bytes, same virtual times —
// which the equivalence suite and the 64-processor scaling experiment
// verify by flipping the machine's DirectScheduling flag. Production code
// leaves it off, so collectives replay.
func scheduled(p *machine.Proc) bool { return !p.Machine().DirectScheduling }

// appendRun extends runs with storage offset off, merging with the last run
// when adjacent — the generic run-coalescing step every inspector uses.
func appendRun(runs []sched.Run, off int) []sched.Run {
	if k := len(runs); k > 0 {
		if last := &runs[k-1]; last.Off+last.Len == off {
			last.Len++
			return runs
		}
	}
	return append(runs, sched.Run{Off: off, Len: 1})
}

// --- Halo exchange -------------------------------------------------------

// haloSchedule returns the compiled halo-exchange schedule for the given
// free dimensions (all haloed dimensions when empty), compiling and caching
// it on first use. The schedule depends only on the view's immutable layout
// (extents, distributions, halo widths, grid, fixed indices), so a cached
// schedule is never invalidated; arrays with new layouts are new views with
// empty caches.
func (a *Array) haloSchedule(dims []int) *sched.Schedule {
	key := -1
	if len(dims) > 0 {
		key = 0
		for _, d := range dims {
			key = key*(maxInlineDims*4) + a.storeDim(d) + 1
		}
	}
	if s, ok := a.haloScheds[key]; ok {
		return s
	}
	s := a.compileHalo(dims)
	if a.haloScheds == nil {
		a.haloScheds = make(map[int]*sched.Schedule)
	}
	a.haloScheds[key] = s
	return s
}

// compileHalo is the halo-exchange inspector: it walks the same owner
// windows and hyperplanes as the direct path (sendHalo/recvHalo) and
// records, instead of performing, every pack and unpack.
func (a *Array) compileHalo(dims []int) *sched.Schedule {
	st := a.st
	s := &sched.Schedule{
		Sends: make([]sched.Msg, 0, 4),
		Recvs: make([]sched.Msg, 0, 4),
	}
	var sdsBuf [maxInlineDims]int
	sds := sdsBuf[:0]
	if len(dims) == 0 {
		for k := range a.acc {
			sd := a.acc[k].sd
			if st.halo[sd] > 0 && st.axisOf[sd] >= 0 {
				sds = append(sds, sd)
			}
		}
	} else {
		for _, d := range dims {
			sd := a.storeDim(d)
			if st.halo[sd] == 0 {
				panic(fmt.Sprintf("darray: ExchangeHalo on dim %d with zero halo", d))
			}
			sds = append(sds, sd)
		}
	}
	for _, sd := range sds {
		a.compileHaloSends(s, sd)
	}
	for _, sd := range sds {
		a.compileHaloRecvs(s, sd)
	}
	return s
}

// compileHaloSends mirrors sendHalo: for every other processor along the
// dimension's axis, the ghost windows falling in this processor's owned
// range become one send message of pack runs per (peer, side).
func (a *Array) compileHaloSends(s *sched.Schedule, sd int) {
	st := a.st
	ax := st.axisOf[sd]
	n := st.extents[sd]
	P := st.rootGrid.Extent(ax)
	q := st.coord[ax]
	h := st.halo[sd]
	myLo, myHi := st.lower[sd], st.lower[sd]+st.lsize[sd]-1
	if a.planeSize(sd) == 0 || st.lsize[sd] == 0 {
		return // an empty dimension: peers mirror this skip
	}
	b := st.dists[sd].(dist.Contiguous)
	for qq := 0; qq < P; qq++ {
		if qq == q {
			continue
		}
		qlo, qhi := b.Lower(qq, n, P), b.Upper(qq, n, P)
		if lo, hi := maxI(qlo-h, myLo), minI(qlo-1, myHi); lo <= hi {
			a.compileSendRun(s, sd, uint16(sd<<2|0), ax, qq, lo, hi)
		}
		if lo, hi := maxI(qhi+1, myLo), minI(qhi+h, myHi); lo <= hi {
			a.compileSendRun(s, sd, uint16(sd<<2|1), ax, qq, lo, hi)
		}
	}
}

func (a *Array) compileSendRun(s *sched.Schedule, sd int, part uint16, ax, qq, lo, hi int) {
	st := a.st
	s.BeginSend(st.rankAlongAxis(ax, qq), part)
	for g := lo; g <= hi; g++ {
		a.appendPlaneRuns(s, sd, g-st.lower[sd]+st.halo[sd], true)
	}
}

// compileHaloRecvs mirrors recvHalo/recvSide: this processor's ghost
// windows, grouped into one receive message of unpack runs per owner run.
func (a *Array) compileHaloRecvs(s *sched.Schedule, sd int) {
	st := a.st
	ax := st.axisOf[sd]
	h := st.halo[sd]
	myLo, myHi := st.lower[sd], st.lower[sd]+st.lsize[sd]-1
	if a.planeSize(sd) == 0 {
		return // some other dimension is empty here: no cells at all
	}
	a.compileRecvSide(s, sd, ax, 0, myLo-h, myLo-1)
	a.compileRecvSide(s, sd, ax, 1, myHi+1, myHi+h)
}

func (a *Array) compileRecvSide(s *sched.Schedule, sd, ax, side, lo, hi int) {
	st := a.st
	for _, run := range a.ghostRuns(sd, lo, hi) {
		s.BeginRecv(st.rankAlongAxis(ax, run.ownerCoord), uint16(sd<<2|side))
		for g := run.lo; g <= run.hi; g++ {
			a.appendPlaneRuns(s, sd, g-st.lower[sd]+st.halo[sd], false)
		}
	}
}

// appendPlaneRuns records the storage runs of the hyperplane at
// halo-relative position l of store dim sd, in the exact order
// packPlane/unpackPlane move them, onto the schedule's current send or
// receive message.
func (a *Array) appendPlaneRuns(s *sched.Schedule, sd, l int, send bool) {
	st := a.st
	if !a.planeBounds(sd, l) {
		return
	}
	nd := len(st.extents)
	base := 0
	for d := 0; d < nd; d++ {
		base += st.itLo[d] * st.stride[d]
	}
	runLen := st.itHi[nd-1] - st.itLo[nd-1] + 1 // stride[nd-1] == 1
	for {
		if send {
			s.AddSendRun(base, runLen)
		} else {
			s.AddRecvRun(base, runLen)
		}
		d := nd - 2
		for d >= 0 {
			st.itIdx[d]++
			base += st.stride[d]
			if st.itIdx[d] <= st.itHi[d] {
				break
			}
			base -= (st.itIdx[d] - st.itLo[d]) * st.stride[d]
			st.itIdx[d] = st.itLo[d]
			d--
		}
		if d < 0 {
			return
		}
	}
}

// --- GatherTo ------------------------------------------------------------

// gatherPlan is a compiled GatherTo: the calling processor's pack runs and,
// on the root, every member's unpack runs into the dense result.
type gatherPlan struct {
	n        int         // values this member contributes
	packRuns []sched.Run // storage runs of owned cells, in OwnedEach order
	root     bool
	size     int            // dense result length (root only)
	members  []memberUnpack // per grid member, in rank order (root only)
}

// memberUnpack holds one member's contribution layout on the root: the runs
// of the dense result its pack fills, in the member's pack order.
type memberUnpack struct {
	n    int
	runs []sched.Run
}

// gatherPlanFor compiles (or returns the cached) gather plan of this view
// for the given root index.
func (a *Array) gatherPlanFor(me, rootIdx int) *gatherPlan {
	if pl, ok := a.gatherPlans[rootIdx]; ok {
		return pl
	}
	pl := &gatherPlan{}
	a.ownedWalk(func(idx []int, off int) {
		pl.packRuns = appendRun(pl.packRuns, off)
		pl.n++
	})
	if me == rootIdx {
		pl.root = true
		nd := a.Dims()
		ext := make([]int, nd)
		pl.size = 1
		for d := 0; d < nd; d++ {
			ext[d] = a.Extent(d)
			pl.size *= ext[d]
		}
		pl.members = make([]memberUnpack, a.grid.Size())
		for m := range pl.members {
			mu := &pl.members[m]
			mu.runs = make([]sched.Run, 0, 8)
			a.memberOwnedEach(m, func(idx []int) {
				off := 0
				for d := 0; d < nd; d++ {
					off = off*ext[d] + idx[d]
				}
				mu.runs = appendRun(mu.runs, off)
				mu.n++
			})
		}
	}
	if a.gatherPlans == nil {
		a.gatherPlans = make(map[int]*gatherPlan)
	}
	a.gatherPlans[rootIdx] = pl
	return pl
}

// gatherToScheduled replays the compiled gather plan: members pack owned
// runs into a pooled buffer and ship it; the root unpacks every member's
// message (and its own staged pack) into the dense result via the compiled
// runs. Traffic is bit-identical to gatherToDirect.
func (a *Array) gatherToScheduled(sc machine.Scope, rootIdx int) []float64 {
	st := a.st
	g := a.grid
	p := st.p
	me, ok := g.Index(p.Rank())
	if !ok {
		panic("darray: GatherTo caller not in the array's grid")
	}
	pl := a.gatherPlanFor(me, rootIdx)
	pack := func() []float64 {
		buf := p.AcquireBuf(pl.n)
		k := 0
		for _, r := range pl.packRuns {
			k += copy(buf[k:], st.data[r.Off:r.Off+r.Len])
		}
		return buf
	}
	if me != rootIdx {
		p.SendOwned(g.RankAt(rootIdx), sc.Tag(uint16(me)), pack())
		return nil
	}
	out := make([]float64, pl.size)
	for m := 0; m < g.Size(); m++ {
		mu := &pl.members[m]
		var buf []float64
		if m == me {
			buf = pack()
		} else {
			buf = p.Recv(g.RankAt(m), sc.Tag(uint16(m)))
		}
		if len(buf) != mu.n {
			panic(fmt.Sprintf("darray: GatherTo: member %d sent %d values, want %d", m, len(buf), mu.n))
		}
		k := 0
		for _, r := range mu.runs {
			k += copy(out[r.Off:r.Off+r.Len], buf[k:k+r.Len])
		}
		p.ReleaseBuf(buf)
	}
	return out
}

// --- Redistribute --------------------------------------------------------

// layoutSig returns a string identifying everything a compiled move
// schedule depends on for this processor: the root grid's rank mapping
// (shape, origin, strides), and per store dimension the extent,
// distribution (type and parameters), halo width and section fixing. Two
// views with equal signatures produce identical pack/move/unpack layouts on
// this processor, so the signature pair keys the Redistribute schedule
// cache. The signature is memoized on the view.
func (a *Array) layoutSig() string {
	if a.sig != "" {
		return a.sig
	}
	st := a.st
	g := st.rootGrid
	var sb strings.Builder
	base := g.RankAt(0)
	fmt.Fprintf(&sb, "g%v@%d", g.Shape(), base)
	// Recover the grid's per-dimension rank strides (sliced grids keep
	// parent strides, so shape and origin alone do not pin the mapping).
	coord := make([]int, g.Dims())
	for d := 0; d < g.Dims(); d++ {
		if g.Extent(d) > 1 {
			coord[d] = 1
			fmt.Fprintf(&sb, "s%d", g.Rank(coord...)-base)
			coord[d] = 0
		}
	}
	for sd := range st.extents {
		fmt.Fprintf(&sb, ";%d:%T%v:h%d:f%d",
			st.extents[sd], st.dists[sd], st.dists[sd], st.halo[sd], a.pfix[sd])
	}
	a.sig = sb.String()
	return a.sig
}

// moveCacheKey is the Proc.Scratch key of the per-processor Redistribute
// schedule cache.
type moveCacheKey struct{}

// moveScheduleFor returns the compiled move schedule for src -> dst,
// caching it per (source layout, destination layout) pair in the
// processor's scratch. Redistribute builds a fresh destination array per
// call, but ping-pong redistribution (an out-of-place FFT transpose, say)
// cycles between the same two layouts — the second and every later trip
// replays the first trip's schedule instead of re-deriving the data motion.
func moveScheduleFor(src, dst *Array) *sched.Schedule {
	cache := src.st.p.Scratch(moveCacheKey{}, func() any {
		return make(map[string]*sched.Schedule)
	}).(map[string]*sched.Schedule)
	key := src.layoutSig() + ">" + dst.layoutSig()
	if s, ok := cache[key]; ok {
		return s
	}
	s := compileMove(src, dst)
	cache[key] = s
	return s
}

// compileMove is the Redistribute inspector: it derives, once, the complete
// data motion from src's layout to dst's — per-destination pack runs in
// ascending rank order, local moves for cells staying on this processor,
// and per-source unpack runs in ascending rank order — so the executor
// replays plain copies. The message sequence matches moveContentsDirect
// exactly.
func compileMove(src, dst *Array) *sched.Schedule {
	p := src.st.p
	n := p.Size()
	self := p.Rank()
	s := &sched.Schedule{}

	outRuns := make([][]sched.Run, n)
	outN := make([]int, n)
	if src.Participates() && src.isCanonicalOwner() {
		src.ownedWalk(func(idx []int, off int) {
			for _, r := range dst.holderRanks(idx) {
				outRuns[r] = appendRun(outRuns[r], off)
				outN[r]++
			}
		})
	}
	for r := 0; r < n; r++ {
		if r == self || outRuns[r] == nil {
			continue
		}
		s.Sends = append(s.Sends, sched.Msg{Peer: r, Part: 0, N: outN[r], Runs: outRuns[r]})
	}

	if !dst.Participates() {
		return s
	}
	inRuns := make([][]sched.Run, n)
	inN := make([]int, n)
	var order []int
	dst.ownedWalk(func(idx []int, off int) {
		r := src.canonicalRank(idx)
		if inRuns[r] == nil {
			order = append(order, r)
		}
		inRuns[r] = appendRun(inRuns[r], off)
		inN[r]++
	})
	sortInts(order)
	for _, r := range order {
		if r == self {
			zipMoves(s, outRuns[self], inRuns[self])
			continue
		}
		s.Recvs = append(s.Recvs, sched.Msg{Peer: r, Part: 0, N: inN[r], Runs: inRuns[r]})
	}
	return s
}

// zipMoves pairs the k-th element of the sender-order source runs with the
// k-th element of the receiver-order destination runs — both enumerate the
// same cell set in row-major global order — and emits merged local moves.
func zipMoves(s *sched.Schedule, srcRuns, dstRuns []sched.Run) {
	si, so, di, do := 0, 0, 0, 0
	for si < len(srcRuns) && di < len(dstRuns) {
		sr, dr := srcRuns[si], dstRuns[di]
		n := minI(sr.Len-so, dr.Len-do)
		s.AddMove(sr.Off+so, dr.Off+do, n)
		so += n
		do += n
		if so == sr.Len {
			si, so = si+1, 0
		}
		if do == dr.Len {
			di, do = di+1, 0
		}
	}
}
