package darray

import (
	"fmt"

	"repro/internal/dist"
	"repro/internal/machine"
)

// ghostRun is one contiguous run of ghost indices along a dimension,
// together with the grid coordinate (along that dimension's axis) of the
// processor that owns it.
type ghostRun struct {
	ownerCoord int
	lo, hi     int // global index range, inclusive
}

// ghostRuns returns the contiguous per-owner runs covering the global index
// range [lo, hi] of store dim sd (clipped to the extent). For Contiguous
// distributions the runs are derived from the owners' block bounds in
// O(owners) instead of probing Owner per index. The returned slice is the
// store's reusable scratch: it is valid until the next ghostRuns call.
func (a *Array) ghostRuns(sd, lo, hi int) []ghostRun {
	st := a.st
	n := st.extents[sd]
	if lo < 0 {
		lo = 0
	}
	if hi >= n {
		hi = n - 1
	}
	runs := st.runsBuf[:0]
	P := st.rootGrid.Extent(st.axisOf[sd])
	if b, ok := st.dists[sd].(dist.Contiguous); ok {
		q := 0
		if lo <= hi {
			q = st.dists[sd].Owner(lo, n, P)
		}
		for i := lo; i <= hi; {
			for b.Upper(q, n, P) < i {
				q++ // skip owners with empty blocks
			}
			end := b.Upper(q, n, P)
			if end > hi {
				end = hi
			}
			runs = append(runs, ghostRun{ownerCoord: q, lo: i, hi: end})
			i = end + 1
			q++
		}
	} else {
		for i := lo; i <= hi; {
			q := st.dists[sd].Owner(i, n, P)
			j := i
			for j+1 <= hi && st.dists[sd].Owner(j+1, n, P) == q {
				j++
			}
			runs = append(runs, ghostRun{ownerCoord: q, lo: i, hi: j})
			i = j + 1
		}
	}
	st.runsBuf = runs
	return runs
}

// rankAlongAxis returns the machine rank of the processor at the calling
// processor's root coordinate with the coordinate along root axis ax
// replaced by q.
func (st *store) rankAlongAxis(ax, q int) int {
	copy(st.coordBuf, st.coord)
	st.coordBuf[ax] = q
	return st.rootGrid.Rank(st.coordBuf...)
}

// planeBounds fills the store's iteration scratch with the halo-relative
// local position range of every store dim for the hyperplane at position l
// of store dim sd (fixed dims pinned, free dims over owned cells). It
// reports false when some dimension is empty.
func (a *Array) planeBounds(sd, l int) bool {
	st := a.st
	for d := range st.extents {
		switch {
		case d == sd:
			st.itLo[d], st.itHi[d] = l, l
		case a.pfix[d] >= 0:
			st.itLo[d] = st.localPos(d, a.pfix[d])
			st.itHi[d] = st.itLo[d]
		default:
			st.itLo[d] = st.halo[d]
			st.itHi[d] = st.halo[d] + st.lsize[d] - 1
		}
		if st.itHi[d] < st.itLo[d] {
			return false
		}
		st.itIdx[d] = st.itLo[d]
	}
	return true
}

// packPlane copies the cells of the hyperplane at halo-relative position l
// of store dim sd into dst in row-major order, returning the number of
// values written. The innermost store dimension is stride-1, so each
// innermost run moves with a single copy — the packed-buffer staging a
// message-passing compiler would generate — rather than a call per cell.
func (a *Array) packPlane(sd, l int, dst []float64) int {
	st := a.st
	if !a.planeBounds(sd, l) {
		return 0
	}
	nd := len(st.extents)
	base := 0
	for d := 0; d < nd; d++ {
		base += st.itLo[d] * st.stride[d]
	}
	runLen := st.itHi[nd-1] - st.itLo[nd-1] + 1 // stride[nd-1] == 1
	k := 0
	for {
		copy(dst[k:k+runLen], st.data[base:base+runLen])
		k += runLen
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
			return k
		}
	}
}

// unpackPlane is the inverse of packPlane: it scatters src into the
// hyperplane's cells, returning the number of values consumed.
func (a *Array) unpackPlane(sd, l int, src []float64) int {
	st := a.st
	if !a.planeBounds(sd, l) {
		return 0
	}
	nd := len(st.extents)
	base := 0
	for d := 0; d < nd; d++ {
		base += st.itLo[d] * st.stride[d]
	}
	runLen := st.itHi[nd-1] - st.itLo[nd-1] + 1
	k := 0
	for {
		copy(st.data[base:base+runLen], src[k:k+runLen])
		k += runLen
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
			return k
		}
	}
}

// localPos returns the halo-relative local position of global index g in
// store dim d on the calling processor (which must hold it).
func (st *store) localPos(d, g int) int {
	if st.axisOf[d] < 0 {
		return g + st.halo[d]
	}
	q := st.coord[st.axisOf[d]]
	P := st.rootGrid.Extent(st.axisOf[d])
	if b, ok := st.dists[d].(dist.Contiguous); ok {
		l := g - b.Lower(q, st.extents[d], P) + st.halo[d]
		return l
	}
	return st.dists[d].ToLocal(g, st.extents[d], P) + st.halo[d]
}

// planeSize returns the number of cells in one hyperplane of the section
// perpendicular to store dim sd (owned cells of free dims, single cells of
// fixed dims).
func (a *Array) planeSize(sd int) int {
	st := a.st
	n := 1
	for d := range st.extents {
		if d == sd || a.pfix[d] >= 0 {
			continue
		}
		n *= st.lsize[d]
	}
	return n
}

// ExchangeHalo updates the ghost cells of the given free dimensions (all
// block-distributed dimensions with nonzero halo when none are specified)
// by exchanging boundary hyperplanes with the owning processors. Every
// participant of the array (or section) must call it with the same scope;
// non-participants must not call it.
//
// Corner ghost cells (diagonal neighbors) are not exchanged; the tensor
// product algorithms in this repository use axis-aligned stencils only.
//
// A steady-state exchange allocates nothing and derives nothing: the first
// exchange of a view compiles the complete pack/unpack layout into a cached
// schedule (the inspector), and every call replays it (the executor) —
// hyperplanes are packed into pooled message buffers with contiguous copies
// and unpacked the same way on the receiver, which releases the buffers
// back to its pool.
func (a *Array) ExchangeHalo(sc machine.Scope, dims ...int) {
	a.mustParticipate()
	if scheduled(a.st.p) {
		a.haloSchedule(dims).Execute(a.st.p, sc, a.st.data, a.st.data)
		return
	}
	a.exchangeHaloDirect(sc, dims...)
}

// exchangeHaloDirect is the uncompiled reference path: it re-derives owner
// windows and hyperplane runs on every call. The compiled schedule must
// replay bit-identical traffic; the equivalence suite holds it to that.
func (a *Array) exchangeHaloDirect(sc machine.Scope, dims ...int) {
	st := a.st
	// Post every dimension's sends before any receive, so one round of
	// latency covers the whole exchange — the batching a compiler would
	// generate (and what the hand message-passing baselines do).
	if len(dims) == 0 {
		for k := range a.acc {
			sd := a.acc[k].sd
			if st.halo[sd] > 0 && st.axisOf[sd] >= 0 {
				a.sendHalo(sc, sd)
			}
		}
		for k := range a.acc {
			sd := a.acc[k].sd
			if st.halo[sd] > 0 && st.axisOf[sd] >= 0 {
				a.recvHalo(sc, sd)
			}
		}
		return
	}
	for _, d := range dims {
		sd := a.storeDim(d)
		if st.halo[sd] == 0 {
			panic(fmt.Sprintf("darray: ExchangeHalo on dim %d with zero halo", d))
		}
		a.sendHalo(sc, sd)
	}
	for _, d := range dims {
		a.recvHalo(sc, a.storeDim(d))
	}
}

// sendHalo posts the outgoing boundary hyperplanes along store dim sd: for
// every other processor along the axis, the ghost indices it needs that
// fall in this processor's owned range, packed into one pooled buffer per
// (peer, side).
func (a *Array) sendHalo(sc machine.Scope, sd int) {
	st := a.st
	ax := st.axisOf[sd]
	n := st.extents[sd]
	P := st.rootGrid.Extent(ax)
	q := st.coord[ax]
	h := st.halo[sd]
	myLo, myHi := st.lower[sd], st.lower[sd]+st.lsize[sd]-1
	plane := a.planeSize(sd)
	if plane == 0 || st.lsize[sd] == 0 {
		return // an empty dimension: peers mirror this skip
	}
	b := st.dists[sd].(dist.Contiguous)
	for qq := 0; qq < P; qq++ {
		if qq == q {
			continue
		}
		// Processors with empty blocks (deep multigrid coarse levels)
		// still receive ghosts: their degenerate windows
		// [lo'-h, lo'-1] and [lo', lo'+h-1] are exactly the
		// surrounding values interpolation needs.
		qlo, qhi := b.Lower(qq, n, P), b.Upper(qq, n, P)
		// Low-side window of qq.
		if lo, hi := maxI(qlo-h, myLo), minI(qlo-1, myHi); lo <= hi {
			a.sendRun(sc, sd, uint16(sd<<2|0), ax, qq, lo, hi, plane)
		}
		// High-side window of qq.
		if lo, hi := maxI(qhi+1, myLo), minI(qhi+h, myHi); lo <= hi {
			a.sendRun(sc, sd, uint16(sd<<2|1), ax, qq, lo, hi, plane)
		}
	}
}

// sendRun packs the hyperplanes of global indices [lo, hi] of store dim sd
// into a pooled buffer and sends it to the processor at coordinate qq.
func (a *Array) sendRun(sc machine.Scope, sd int, part uint16, ax, qq, lo, hi, plane int) {
	st := a.st
	buf := st.p.AcquireBuf((hi - lo + 1) * plane)
	k := 0
	for g := lo; g <= hi; g++ {
		k += a.packPlane(sd, g-st.lower[sd]+st.halo[sd], buf[k:])
	}
	st.p.SendOwned(st.rankAlongAxis(ax, qq), sc.Tag(part), buf)
}

// recvHalo completes the exchange along store dim sd: receive this
// processor's ghost windows, grouped by owner, and release each message
// buffer back to the pool after unpacking.
func (a *Array) recvHalo(sc machine.Scope, sd int) {
	st := a.st
	ax := st.axisOf[sd]
	h := st.halo[sd]
	// For an empty block (lower == upper+1 == L) the two windows
	// degenerate to [L-h, L-1] and [L, L+h-1]: the values surrounding the
	// block's position, which grid-transfer operators on deep multigrid
	// levels still need.
	myLo, myHi := st.lower[sd], st.lower[sd]+st.lsize[sd]-1
	plane := a.planeSize(sd)
	if plane == 0 {
		return // some other dimension is empty here: no cells at all
	}
	a.recvSide(sc, sd, ax, 0, myLo-h, myLo-1, plane, h)
	a.recvSide(sc, sd, ax, 1, myHi+1, myHi+h, plane, h)
}

func (a *Array) recvSide(sc machine.Scope, sd, ax, side, lo, hi, plane, h int) {
	st := a.st
	for _, run := range a.ghostRuns(sd, lo, hi) {
		src := st.rankAlongAxis(ax, run.ownerCoord)
		buf := st.p.Recv(src, sc.Tag(uint16(sd<<2|side)))
		want := (run.hi - run.lo + 1) * plane
		if len(buf) != want {
			panic(fmt.Sprintf("darray: halo exchange dim %d: got %d values, want %d", sd, len(buf), want))
		}
		k := 0
		for g := run.lo; g <= run.hi; g++ {
			k += a.unpackPlane(sd, g-st.lower[sd]+h, buf[k:])
		}
		st.p.ReleaseBuf(buf)
	}
}

func maxI(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func minI(a, b int) int {
	if a < b {
		return a
	}
	return b
}
