package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"os"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/darray"
	"repro/internal/dist"
	"repro/internal/jacobi"
	"repro/internal/kf"
	"repro/internal/machine"
	"repro/internal/perfest"
	"repro/internal/progs"
	"repro/internal/serve"
	"repro/internal/wire"
)

// traceLayers is the traced run. It times every layer through its public
// surface, recording one span per call, and reports the per-layer
// metrics. The per-op counts, core.noop_ms and trace.overhead_frac are
// taken on the workload's own operation (a run on its System, or for
// serve-mixed the served request path); the rest of the ladder is the
// same on every workload, so each traced run reports every layer. The
// ladder is run in passes until the measurement time is up, and each
// metric is the median of its passes.
func traceLayers(r *run) error {
	steps := []struct {
		name string
		f    func(*run) error
	}{
		{"own op", traceOwn},
		{"boundary", traceBoundary},
		{"halo+sweep", traceHaloSweep},
		{"pingpong", tracePingPong},
		{"wire", traceWire},
		{"ipc.iter", traceIPCIter},
		{"replay", traceReplay},
		{"daemon", traceDaemon},
	}
	r.procs = newProcSet(os.Getpid())
	passes := map[string][]float64{}
	start := time.Now()
	for pass := 1; ; pass++ {
		for _, s := range steps {
			r.host.calibrate()
			t0 := time.Now()
			if err := s.f(r); err != nil {
				return fmt.Errorf("%s: %w", s.name, err)
			}
			fmt.Fprintf(os.Stderr, "kfperf: traced %-10s %v\n", s.name, time.Since(t0).Round(time.Millisecond))
		}
		for name, v := range r.values {
			passes[name] = append(passes[name], v)
		}
		if took := time.Since(start); took >= r.seconds {
			fmt.Fprintf(os.Stderr, "kfperf: traced %d passes in %v\n", pass, took.Round(time.Millisecond))
			break
		}
	}
	for name, vs := range passes {
		r.values[name] = median(vs)
	}
	if left := r.procs.leaked(3 * time.Second); len(left) > 0 {
		r.fail("worker processes %v still running after the traced run", left)
	}
	r.set("host.calib_ms", median(r.host.CalibMs))
	return nil
}

// watchWorkers records the live worker processes, so that the leak check
// at the end of the traced run covers them, and checks their number.
func watchWorkers(r *run, want int, what string) {
	if _, n := r.procs.sample(); n != want {
		r.fail("%s: %d worker processes, want %d", what, n, want)
	}
}

// memDelta is the allocation record of a sequence of calls.
type memDelta struct{ allocs, bytes, gcs float64 }

// add returns d plus the allocations between two reads.
func (d memDelta) add(m0, m1 runtime.MemStats) memDelta {
	return memDelta{
		allocs: d.allocs + float64(m1.Mallocs-m0.Mallocs),
		bytes:  d.bytes + float64(m1.TotalAlloc-m0.TotalAlloc),
		gcs:    d.gcs + float64(m1.NumGC-m0.NumGC),
	}
}

func readMem() runtime.MemStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms
}

// checkedRun runs prog on sys inside a span (none when r is untraced),
// counts it and checks the result against o.
func checkedRun(r *run, sys *core.System, prog *core.Program, o *oracle, name string) (time.Duration, core.Run) {
	r.attempted++
	var run core.Run
	var err error
	d := r.tr.timed(name, 0, r.attempted, func() { run, err = sys.RunProgram(prog) })
	if err == nil {
		err = o.check(run)
	}
	if err != nil {
		r.fail("%s: %v", name, err)
	}
	return d, run
}

// untraced calls f with r's tracer off.
func untraced(r *run, f func()) {
	tr := r.tr
	r.tr = nil
	defer func() { r.tr = tr }()
	f()
}

// noopMs is the median wall time of the registered no-op program hostpid
// on sys: rank start and finish, plus on ipc the spec broadcast, fence
// and result reassembly.
func noopMs(r *run, sys *core.System) (float64, error) {
	prog, err := core.BuildProgram("hostpid")
	if err != nil {
		return 0, err
	}
	var xs []float64
	for i := 0; i < 22; i++ {
		r.attempted++
		var run core.Run
		d := r.tr.timed("core.RunProgram/hostpid", 0, r.attempted, func() { run, err = sys.RunProgram(prog) })
		if err != nil {
			return 0, err
		}
		if len(run.Values) != sys.Procs.Size() {
			r.fail("hostpid returned %d values for %d ranks", len(run.Values), sys.Procs.Size())
		}
		if i >= 2 { // the first two warm the program's caches
			xs = append(xs, ms(d))
		}
	}
	return median(xs), nil
}

// traceBoundary runs the jacobi program on the federated and the ipc
// System in alternation: core.boundary_ms is the gap between their
// medians.
func traceBoundary(r *run) error {
	var loops [2]*loop
	var systems [2]*core.System
	var prog *core.Program
	for i, t := range []string{"federated", "ipc"} {
		loops[i] = jacobiLoop(t)
		sys, p, _, err := loops[i].setup()
		if err != nil {
			return err
		}
		defer sys.Close()
		systems[i], prog = sys, p
	}
	watchWorkers(r, jacobiNodes, "boundary Systems")
	var xs [2][]float64
	for round := 0; round < 24; round++ {
		for i, l := range loops {
			d, _ := checkedRun(r, systems[i], prog, l.oracle, "core.RunProgram/jacobi-"+l.transport)
			xs[i] = append(xs[i], ms(d))
		}
	}
	fed, ipc := median(xs[0]), median(xs[1])
	r.set("core.boundary_ms", ipc-fed)
	fmt.Fprintf(os.Stderr, "kfperf: traced jacobi p50 federated %.2f ms, ipc %.2f ms\n", fed, ipc)
	return nil
}

// traceOwn times the workload's own operation on its own System: the
// per-op counts and allocations of traced runs, trace.overhead_frac from
// untraced runs interleaved with them, and core.noop_ms. serve-mixed
// takes these from its request path instead (traceReplay, traceDaemon).
func traceOwn(r *run) error {
	var l *loop
	switch r.workload {
	case fed:
		l = jacobiLoop("federated")
	case ipc:
		l = jacobiLoop("ipc")
	default:
		return nil
	}
	sys, prog, _, err := l.setup()
	if err != nil {
		return err
	}
	defer sys.Close()
	watchWorkers(r, l.workers, r.workload+" System")
	const rounds = 24
	var traced, plain []float64
	var mem memDelta
	var last core.Run
	name := "core.RunProgram/" + r.workload
	plainRun := func() {
		untraced(r, func() {
			d, _ := checkedRun(r, sys, prog, l.oracle, name)
			plain = append(plain, ms(d))
		})
	}
	// The untraced run goes first on odd rounds and second on even ones,
	// so neither side always follows the same neighbour.
	for i := 0; i < rounds; i++ {
		if i%2 == 1 {
			plainRun()
		}
		m0 := readMem()
		d, run := checkedRun(r, sys, prog, l.oracle, name)
		mem = mem.add(m0, readMem())
		traced, last = append(traced, ms(d)), run
		if i%2 == 0 {
			plainRun()
		}
	}
	noop, err := noopMs(r, sys)
	if err != nil {
		return err
	}
	r.set("core.noop_ms", noop)
	r.set("core.allocs_per_op", mem.allocs/rounds)
	r.set("core.kb_per_op", mem.bytes/1024/rounds)
	r.set("core.gc_per_op", mem.gcs/rounds)
	setCounts(r, last.Stats, last.Links)
	r.set("trace.overhead_frac", (median(traced)-median(plain))/median(plain))
	return nil
}

// setCounts reports one run's message census.
func setCounts(r *run, s machine.Stats, links *core.LinkCensus) {
	lm, lb := links.Total()
	r.set("machine.msgs_per_op", float64(s.MsgsSent))
	r.set("machine.kb_per_op", float64(s.BytesSent)/1024)
	r.set("machine.link_msgs_per_op", float64(lm))
	r.set("machine.link_kb_per_op", float64(lb)/1024)
}

// amortised times f at a small and a large count and returns the cost of
// one unit from the difference, the median over reps repetitions: the
// fixed cost around the loop cancels.
func amortised(reps, small, large int, f func(n int) (time.Duration, error)) (time.Duration, error) {
	var xs []float64
	for i := 0; i < reps; i++ {
		a, err := f(small)
		if err != nil {
			return 0, err
		}
		b, err := f(large)
		if err != nil {
			return 0, err
		}
		xs = append(xs, float64(b-a)/float64(large-small))
	}
	return time.Duration(median(xs)), nil
}

// traceHaloSweep times Array.ExchangeHalo of the workload's 256x256 block
// array and one Doall2 sweep with ReadsNoHalo over it (plan replay plus
// kernel, no messages), both on a System built as jacobi-fed's.
func traceHaloSweep(r *run) error {
	sys, err := jacobiSystem("federated")
	if err != nil {
		return err
	}
	defer sys.Close()
	spec := darray.Spec{
		Extents: []int{jacobiN, jacobiN},
		Dists:   []dist.Dist{dist.Block{}, dist.Block{}},
		Halo:    []int{1, 1},
	}
	body := func(halos, sweeps int) func(c *kf.Ctx) error {
		return func(c *kf.Ctx) error {
			x, f := c.NewArray(spec), c.NewArray(spec)
			x.Fill(func(idx []int) float64 { return float64(idx[0] - idx[1]) })
			f.Fill(func(idx []int) float64 { return float64(idx[0] + idx[1]) })
			for i := 0; i < halos; i++ {
				x.ExchangeHalo(c.NextScope())
			}
			opts := []kf.LoopOpt{kf.ReadsNoHalo(f)}
			for i := 0; i < sweeps; i++ {
				c.Doall2(kf.R(1, jacobiN-2), kf.R(1, jacobiN-2), kf.OnOwner2(x), opts, func(cc *kf.Ctx, i, j int) {
					x.Set2(i, j, 0.25*f.Old2(i, j))
					cc.P.Compute(1)
				})
			}
			return nil
		}
	}
	timeRun := func(name string, halos, sweeps int) (time.Duration, error) {
		r.attempted++
		var err error
		d := r.tr.timed(name, 0, r.attempted, func() { _, err = sys.Run(body(halos, sweeps)) })
		return d, err
	}
	halo, err := amortised(3, 1, 21, func(n int) (time.Duration, error) { return timeRun("darray.ExchangeHalo", n, 0) })
	if err != nil {
		return err
	}
	sweep, err := amortised(3, 1, 21, func(n int) (time.Duration, error) { return timeRun("kf.Doall2", 0, n) })
	if err != nil {
		return err
	}
	r.set("darray.halo_us", us(halo))
	r.set("kf.sweep_us", us(sweep))
	return nil
}

// tracePingPong times a 2-rank SendValue/RecvValue round trip on a
// federated/2 System under each executor.
func tracePingPong(r *run) error {
	for _, ex := range []string{"calendar", "goroutine"} {
		sys, err := core.NewSystem(core.Grid(2), core.Transport("federated"), core.Nodes(2),
			core.Executor(ex), core.Cost(machine.ZeroComm()))
		if err != nil {
			return err
		}
		rt, err := amortised(5, 1000, 11000, func(n int) (time.Duration, error) {
			r.attempted++
			var err error
			d := r.tr.timed("machine.PingPong/"+ex, 0, r.attempted, func() { err = pingPong(sys.Machine, n) })
			return d, err
		})
		sys.Close()
		if err != nil {
			return err
		}
		r.set("machine.pingpong_us."+ex, us(rt))
	}
	return nil
}

// pingPong bounces a counter n times between ranks 0 and 1; each side
// checks it receives the value it expects.
func pingPong(m *machine.Machine, n int) error {
	return m.Run(func(p *machine.Proc) error {
		other := 1 - p.Rank()
		for i := 0; i < n; i++ {
			v := float64(i)
			if p.Rank() == 0 {
				p.SendValue(other, 1, v)
				if got := p.RecvValue(other, 2); got != v+1 {
					return fmt.Errorf("round %d: rank 0 got %v, want %v", i, got, v+1)
				}
			} else {
				if got := p.RecvValue(other, 1); got != v {
					return fmt.Errorf("round %d: rank 1 got %v, want %v", i, got, v)
				}
				p.SendValue(other, 2, v+1)
			}
		}
		return nil
	})
}

// traceWire times AppendFrame and DecodeFrame on a data frame carrying
// one directed link's share of a jacobi sweep's inter-node words.
func traceWire(r *run) error {
	_, bytes := perfest.JacobiInterNode(jacobiN, jacobiGrid, jacobiNodes)
	words := bytes / 8 / (2 * (jacobiNodes - 1))
	f := wire.Frame{Kind: wire.KindData, Src: 1, Dst: 2, Tag: 7, Seq: 9, A: 3, Arrival: 1.25, Payload: make([]float64, words)}
	for i := range f.Payload {
		f.Payload[i] = float64(i) / 3
	}
	buf := wire.AppendFrame(nil, &f)
	scratch := make([]float64, words)
	acquire := func(n int) []float64 { return scratch[:n] }
	var g wire.Frame
	// The fixed cost around these loops is negligible: time a long loop
	// and take the median per-call time over repetitions.
	const k, reps = 20000, 7
	var encs, decs []float64
	var derr error
	for i := 0; i < reps; i++ {
		d := r.tr.timed("wire.AppendFrame", 0, 0, func() {
			for j := 0; j < k; j++ {
				buf = wire.AppendFrame(buf[:0], &f)
			}
		})
		encs = append(encs, float64(d)/k)
		d = r.tr.timed("wire.DecodeFrame", 0, 0, func() {
			for j := 0; j < k && derr == nil; j++ {
				_, derr = wire.DecodeFrame(buf, &g, acquire)
			}
		})
		decs = append(decs, float64(d)/k)
	}
	enc, dec := median(encs), median(decs)
	r.attempted++
	if derr != nil {
		r.fail("wire decode: %v", derr)
	} else if g.Kind != f.Kind || g.Seq != f.Seq || g.Arrival != f.Arrival || len(g.Payload) != words || g.Payload[words-1] != f.Payload[words-1] {
		r.fail("wire round trip changed the frame")
	}
	r.set("wire.encode_ns", float64(enc))
	r.set("wire.decode_ns", float64(dec))
	return nil
}

// traceIPCIter is the per-iteration cost of the registered jacobi on a
// 2-rank grid, one rank per ipc worker, over the same cost on
// federated/2: one halo round trip over the sockets through the
// worker-executed path.
func traceIPCIter(r *run) error {
	const n, few, many = 32, 10, 110
	x0, f := jacobi.Problem(n)
	systems := map[string]*core.System{}
	for _, t := range []string{"ipc", "federated"} {
		sys, err := core.NewSystem(core.Grid(2, 1), core.Transport(t), core.Nodes(2))
		if err != nil {
			return err
		}
		defer sys.Close()
		systems[t] = sys
	}
	iters := map[int]*core.Program{}
	oracles := map[int]*oracle{}
	for _, it := range []int{few, many} {
		p, err := progs.Jacobi(n, it)
		if err != nil {
			return err
		}
		iters[it] = p
		var flat []float64
		for _, row := range jacobi.Sequential(x0, f, it) {
			flat = append(flat, row...)
		}
		oracles[it] = &oracle{values: flat}
	}
	per := map[string]time.Duration{}
	for t, sys := range systems {
		for _, it := range []int{few, many} { // warm both programs
			checkedRun(r, sys, iters[it], oracles[it], "core.RunProgram/ipc-iter")
		}
		if t == "ipc" { // the fleet spawns on the first run
			watchWorkers(r, 2, "ipc/2 System")
		}
		d, err := amortised(5, few, many, func(k int) (time.Duration, error) {
			d, _ := checkedRun(r, sys, iters[k], oracles[k], "core.RunProgram/ipc-iter-"+t)
			return d, nil
		})
		if err != nil {
			return err
		}
		per[t] = d
	}
	r.set("ipc.iter_us", us(per["ipc"]-per["federated"]))
	return nil
}

// requestOptions mirrors how kfserve turns a request into System options
// and a pool key (the tenants set no link costs).
func requestOptions(req serve.RunRequest) ([]core.Option, string) {
	opts := []core.Option{core.Grid(req.Grid...)}
	if req.Transport != "" {
		opts = append(opts, core.Transport(req.Transport))
	}
	if req.Nodes > 0 {
		opts = append(opts, core.Nodes(req.Nodes))
	}
	if req.Executor != "" {
		opts = append(opts, core.Executor(req.Executor))
	}
	return opts, core.PoolKey(req.Grid, req.Transport, req.Nodes, req.Executor, machine.IPSC2())
}

// traceReplay replays the order in which kfserve executes a request —
// build the program, take a run slot, check a System out of the pool,
// run, encode the response, return the System, release the slot — in
// process over the seeded tenant mix, timing each call. Each request is
// replayed twice, once traced and once untraced, in alternating order.
func traceReplay(r *run) error {
	m, err := newMix()
	if err != nil {
		return err
	}
	pool := serve.NewPool(poolSize)
	defer pool.Close()
	sched := serve.NewScheduler(conns, 4*conns)
	deal := m.dealer(rand.New(rand.NewPCG(uint64(r.seed), 0x7265706c6179)))
	times := map[string][]float64{}
	var traced, plain []float64
	var mem memDelta
	var census []outcome
	const requests = 240
	for i := 0; i < requests; i++ {
		ti := deal.next()
		for pass := 0; pass < 2; pass++ {
			if (pass == 0) == (i%2 == 0) {
				m0 := readMem()
				d, o, err := replayOne(r, m, pool, sched, ti, times)
				if err != nil {
					return err
				}
				mem = mem.add(m0, readMem())
				traced = append(traced, ms(d))
				census = append(census, o)
				continue
			}
			var d time.Duration
			untraced(r, func() { d, _, err = replayOne(r, m, pool, sched, ti, nil) })
			if err != nil {
				return err
			}
			plain = append(plain, ms(d))
		}
	}
	for name, metric := range map[string]string{
		"progs.BuildProgram": "progs.build_us", "serve.Scheduler.Acquire": "serve.acquire_us",
		"serve.Pool.Checkout/hit": "serve.checkout_us", "serve.Pool.Checkout/miss": "serve.miss_us",
		"serve.Lease.Return": "serve.return_us", "json.Encode": "serve.encode_us",
	} {
		r.set(metric, median(times[name])*1e3)
	}
	if r.workload == mixed {
		r.set("core.allocs_per_op", mem.allocs/requests)
		r.set("core.kb_per_op", mem.bytes/1024/requests)
		r.set("core.gc_per_op", mem.gcs/requests)
		r.set("trace.overhead_frac", (median(traced)-median(plain))/median(plain))
		var s machine.Stats
		var lm, lb int64
		for _, o := range census {
			s = s.Add(o.stats)
			lm, lb = lm+o.linkMsgs, lb+o.linkBytes
		}
		n := float64(len(census))
		r.set("machine.msgs_per_op", float64(s.MsgsSent)/n)
		r.set("machine.kb_per_op", float64(s.BytesSent)/1024/n)
		r.set("machine.link_msgs_per_op", float64(lm)/n)
		r.set("machine.link_kb_per_op", float64(lb)/1024/n)
	}
	return nil
}

// replayOne executes one request of tenant ti the way kfserve does and
// records each call's time under its span name (in times, when non-nil).
func replayOne(r *run, m *mix, pool *serve.Pool, sched *serve.Scheduler, ti int, times map[string][]float64) (time.Duration, outcome, error) {
	r.attempted++
	op := r.attempted
	req := m.tenants[ti].req
	opts, key := requestOptions(req)
	t0 := time.Now()
	root := r.tr.begin("serve.replay", 0, op)
	step := func(name string, f func()) {
		d := r.tr.timed(name, root, op, f)
		if times != nil {
			times[name] = append(times[name], ms(d))
		}
	}
	var prog *core.Program
	var lease *serve.Lease
	var run core.Run
	var err error
	step("progs.BuildProgram", func() { prog, err = core.BuildProgram(req.Program, req.Args...) })
	if err != nil {
		return 0, outcome{}, err
	}
	step("serve.Scheduler.Acquire", func() { err = sched.Acquire(context.Background()) })
	if err != nil {
		return 0, outcome{}, err
	}
	defer sched.Release()
	id := r.tr.begin("serve.Pool.Checkout", root, op)
	c0 := time.Now()
	lease, err = pool.Checkout(key, func() (*core.System, error) { return core.NewSystem(opts...) })
	cd := time.Since(c0)
	r.tr.end(id)
	if err != nil {
		return 0, outcome{}, err
	}
	if times != nil {
		name := "serve.Pool.Checkout/miss"
		if lease.Hit() {
			name = "serve.Pool.Checkout/hit"
		}
		times[name] = append(times[name], ms(cd))
	}
	step("core.RunProgram", func() { run, err = lease.Sys.RunProgram(prog) })
	if err == nil {
		err = m.refs[ti].check(core.Run{Values: run.Values, Stats: run.Stats})
	}
	if err != nil {
		lease.Discard()
		r.fail("replay %s: %v", m.tenants[ti].name, err)
		return time.Since(t0), outcome{}, nil
	}
	resp := &serve.RunResponse{Program: prog.Name, Key: key, Values: run.Values, Elapsed: run.Elapsed,
		MachineElapsed: run.MachineElapsed, Stats: run.Stats, Links: run.Links, PoolHit: lease.Hit()}
	step("json.Encode", func() { err = json.NewEncoder(io.Discard).Encode(resp) })
	if err != nil {
		return 0, outcome{}, err
	}
	step("serve.Lease.Return", lease.Return)
	r.tr.end(root)
	o := outcome{stats: run.Stats}
	o.linkMsgs, o.linkBytes = run.Links.Total()
	return time.Since(t0), o, nil
}

// traceDaemon drives a fresh daemon with a fixed number of requests at
// the low and the high rate and reads the serve layer from the response
// fields and /metrics. On serve-mixed it also times core.noop_ms on a
// System of the hot ipc tenant's shape.
func traceDaemon(r *run) error {
	m, err := newMix()
	if err != nil {
		return err
	}
	d, c, _, _, err := setupServe(r, m)
	if err != nil {
		return err
	}
	defer c.close()
	before, err := c.metrics()
	if err != nil {
		d.stop()
		return err
	}
	deal := m.dealer(rand.New(rand.NewPCG(uint64(r.seed), 0x7365727665)))
	low := r.phase(c, deal, lowRate, 0, 60)
	high := r.phase(c, deal, highRate, 0, 200)
	after, err := c.metrics()
	_, workers := d.procs.sample()
	c.close()
	if serr := d.stop(); serr != nil {
		r.fail("kfserve drain: %v", serr)
	}
	if err != nil {
		return err
	}
	if left := d.procs.leaked(3 * time.Second); len(left) > 0 {
		r.fail("worker processes %v still running after the daemon drained", left)
	}
	var queue, runMs, overhead, lag []float64
	hits, ipcHits, ipcN := 0, 0, 0
	for i, o := range append(append([]outcome(nil), low...), high...) {
		if o.hit {
			hits++
		}
		if o.tenant == 0 {
			ipcN++
			if o.hit {
				ipcHits++
			}
		}
		if i < len(low) {
			runMs = append(runMs, o.runMs)
			overhead = append(overhead, o.latencyMs()-o.queueMs-o.runMs)
		} else {
			queue, lag = append(queue, o.queueMs), append(lag, o.lagMs())
		}
	}
	total := float64(len(low) + len(high))
	delta := func(name string) float64 { return after[name] - before[name] }
	r.set("serve.queue_ms.p50", median(queue))
	r.set("serve.run_ms.p50", median(runMs))
	r.set("serve.overhead_ms.p50", median(overhead))
	r.set("serve.hit_frac", float64(hits)/total)
	r.set("serve.hit_frac.ipc", float64(ipcHits)/math.Max(1, float64(ipcN)))
	r.set("serve.misses", delta("kfserve_pool_misses_total"))
	r.set("serve.evictions", delta("kfserve_pool_evictions_total"))
	r.set("serve.fleets", float64(workers)/float64(hotTenants[0].req.Nodes))
	r.set("gen.lag_ms.p90", quantile(lag, 0.9))
	if r.workload != mixed {
		return nil
	}
	opts, _ := requestOptions(hotTenants[0].req)
	sys, err := core.NewSystem(opts...)
	if err != nil {
		return err
	}
	defer sys.Close()
	noop, err := noopMs(r, sys)
	if err != nil {
		return err
	}
	watchWorkers(r, hotTenants[0].req.Nodes, "ipc tenant System")
	r.set("core.noop_ms", noop)
	return nil
}
