package serve

import (
	"container/list"
	"sort"
	"sync"

	"repro/internal/core"
)

// Pool is a bounded LRU pool of warmed core.Systems, keyed by
// core.PoolKey. A System is expensive to construct (machine, transport,
// and for ipc a fleet of worker processes) and cheap to reuse
// (Machine.Run resets clocks, counters and the transport at the start of
// every run, and compiled schedules, loop plans and buffer pools survive
// across runs) — so the pool amortizes construction across requests the
// way the inspector/executor split amortizes schedule derivation across
// iterations.
//
// Checkout hands a System out exclusively: concurrent requests for the
// same key either take distinct idle Systems or build fresh ones, never
// share. Return files the System back as most-recently-used; when the
// idle population exceeds the capacity, the least-recently-used idle
// System — whatever its key — is evicted and Closed, which for ipc
// Systems tears down real worker processes. Discard closes a System
// without pooling it (a failed run may hold a poisoned transport — a
// worker lost mid-run does not come back).
type Pool struct {
	mu     sync.Mutex
	cap    int
	closed bool
	idle   *list.List                 // of *poolEntry; front = MRU, evict from back
	byKey  map[string][]*list.Element // idle entries per key, top of slice = MRU

	hits, misses, evictions, discards int64
}

type poolEntry struct {
	key string
	sys *core.System
}

// NewPool builds a pool bounding the idle warmed-System population to
// capacity (minimum 1). Checked-out Systems do not count against it.
func NewPool(capacity int) *Pool {
	if capacity < 1 {
		capacity = 1
	}
	return &Pool{cap: capacity, idle: list.New(), byKey: map[string][]*list.Element{}}
}

// Lease is one exclusive checkout. Exactly one of Return or Discard must
// be called when the run is over.
type Lease struct {
	// Sys is the checked-out System, exclusively owned until returned.
	Sys  *core.System
	key  string
	hit  bool
	p    *Pool
	done bool
}

// Hit reports whether the lease reused a warmed System from the pool.
func (l *Lease) Hit() bool { return l.hit }

// Key returns the pool key the lease was checked out under.
func (l *Lease) Key() string { return l.key }

// Checkout takes an idle System filed under key, or builds a fresh one
// with build when none is idle (construction happens outside the pool
// lock, so a slow build — spawning ipc workers — never blocks other
// checkouts). After the pool is Closed, checkouts fail with ErrPoolClosed.
func (p *Pool) Checkout(key string, build func() (*core.System, error)) (*Lease, error) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, ErrPoolClosed
	}
	if elems := p.byKey[key]; len(elems) > 0 {
		el := elems[len(elems)-1] // most recently warmed first
		p.byKey[key] = elems[:len(elems)-1]
		if len(p.byKey[key]) == 0 {
			delete(p.byKey, key)
		}
		ent := p.idle.Remove(el).(*poolEntry)
		p.hits++
		p.mu.Unlock()
		return &Lease{Sys: ent.sys, key: key, hit: true, p: p}, nil
	}
	p.misses++
	p.mu.Unlock()
	sys, err := build()
	if err != nil {
		return nil, err
	}
	return &Lease{Sys: sys, key: key, p: p}, nil
}

// Return files the System back into the pool as most-recently-used,
// evicting (and Closing) the least-recently-used idle System when the
// population exceeds the capacity. Returning to a closed pool Closes the
// System instead. Idempotent with Discard: the first call wins.
func (l *Lease) Return() {
	if l.done {
		return
	}
	l.done = true
	p := l.p
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		l.Sys.Close()
		return
	}
	el := p.idle.PushFront(&poolEntry{key: l.key, sys: l.Sys})
	p.byKey[l.key] = append(p.byKey[l.key], el)
	var evicted *core.System
	if p.idle.Len() > p.cap {
		back := p.idle.Back()
		ent := p.idle.Remove(back).(*poolEntry)
		elems := p.byKey[ent.key]
		for i, e := range elems {
			if e == back {
				p.byKey[ent.key] = append(elems[:i], elems[i+1:]...)
				break
			}
		}
		if len(p.byKey[ent.key]) == 0 {
			delete(p.byKey, ent.key)
		}
		p.evictions++
		evicted = ent.sys
	}
	p.mu.Unlock()
	if evicted != nil {
		// Close outside the lock: tearing down an ipc worker fleet takes
		// real time.
		evicted.Close()
	}
}

// Discard closes the System without pooling it — for runs that failed and
// may have poisoned the transport. Idempotent with Return.
func (l *Lease) Discard() {
	if l.done {
		return
	}
	l.done = true
	l.p.mu.Lock()
	l.p.discards++
	l.p.mu.Unlock()
	l.Sys.Close()
}

// Close drains the pool: every idle System is Closed (ipc worker fleets
// torn down), and all future checkouts fail with ErrPoolClosed. Leases
// still out have their Systems Closed on Return. Idempotent.
func (p *Pool) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	var all []*core.System
	for el := p.idle.Front(); el != nil; el = el.Next() {
		all = append(all, el.Value.(*poolEntry).sys)
	}
	p.idle.Init()
	p.byKey = map[string][]*list.Element{}
	p.mu.Unlock()
	var firstErr error
	for _, sys := range all {
		if err := sys.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// PoolStats is a snapshot of the pool's counters.
type PoolStats struct {
	Hits, Misses, Evictions, Discards int64
	Idle                              int
}

// Stats snapshots the pool counters.
func (p *Pool) Stats() PoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return PoolStats{Hits: p.hits, Misses: p.misses, Evictions: p.evictions,
		Discards: p.discards, Idle: p.idle.Len()}
}

// KeyWarmth is the per-key warm population: how many idle Systems are
// filed under the key and how many runs they have completed between them.
type KeyWarmth struct {
	Key  string
	Idle int
	Runs int64
}

// Warmth reports the per-key idle populations, sorted by key for
// deterministic metrics output.
func (p *Pool) Warmth() []KeyWarmth {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]KeyWarmth, 0, len(p.byKey))
	for key, elems := range p.byKey {
		w := KeyWarmth{Key: key, Idle: len(elems)}
		for _, el := range elems {
			w.Runs += el.Value.(*poolEntry).sys.RunCount()
		}
		out = append(out, w)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}
