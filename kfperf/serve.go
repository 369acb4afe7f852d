package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/serve"
)

// The serve-mixed workload: a kfserve daemon on loopback, driven open
// loop over at most two connections by seeded Poisson arrivals.
const (
	poolSize   = 16 // the daemon's -pool: the 6 hot Systems and 10 of the 25 cold keys
	conns      = 2  // client connections
	lowRate    = 30.0
	highRate   = 60.0            // the fixed rate req_ms.*.high reports
	limitMs    = 100.0           // latency limit on req_ms.p90 for max_rps
	reqTimeout = 5 * time.Second // per-request queue-wait deadline sent to the daemon
	setups     = 5               // daemon set-ups per run; setup_s is their median
)

// ladder is the fixed rate ladder max_rps climbs above the high rate,
// requests per second.
var ladder = []float64{80, 100, 120, 140, 170, 200, 240}

// tenant is one kind of request in the mix.
type tenant struct {
	name string
	req  serve.RunRequest
	kind tenantKind
}

type tenantKind int

const (
	hot  tenantKind = iota // a warmed key
	cold                   // the cold tail
	pair                   // sent only by warm, never dealt: see pairRequest
)

// hotTenants are the warmed keys. jacobi 4x4 and madi share one pool key
// (shared transport, goroutine executor, 4x4 grid). The first three are
// the tenants of kfbench -serve-bench's rotation.
var hotTenants = []tenant{
	{"jacobi8-ipc", serve.RunRequest{Program: "jacobi", Args: []float64{8, 1}, Grid: []int{8, 8}, Transport: "ipc", Nodes: 4}, hot},
	{"jacobi8-shared", serve.RunRequest{Program: "jacobi", Args: []float64{8, 1}, Grid: []int{8, 8}}, hot},
	{"jacobi4-2sweeps", serve.RunRequest{Program: "jacobi", Args: []float64{8, 2}, Grid: []int{4, 4}}, hot},
	{"madi64", serve.RunRequest{Program: "madi", Args: []float64{64, 1, 1, 0, 1}, Grid: []int{4, 4}, Executor: "goroutine"}, hot},
}

// coldTenants are the cold tail: 25 shared-transport keys, more than the
// pool holds, so a cold request usually misses and its return evicts.
func coldTenants() []tenant {
	var out []tenant
	for _, a := range []int{2, 3, 5, 6, 7} {
		for _, b := range []int{2, 3, 5, 6, 7} {
			out = append(out, tenant{fmt.Sprintf("cold-%dx%d", a, b),
				serve.RunRequest{Program: "jacobi", Args: []float64{8, 1}, Grid: []int{a, b}}, cold})
		}
	}
	return out
}

// pairRequest is the request warm sends as concurrent pairs to give
// req's pool key its second System: jacobi on the same key (the pool
// keys Systems by grid, transport, nodes, executor and cost model, not
// by program), sized so that one run takes milliseconds. Two of the hot
// tenants' own runs, some under half a millisecond, sent at once
// overlapped on the daemon so rarely on a loaded host that a key could
// still hold one System after 20 pairs.
func pairRequest(req serve.RunRequest) serve.RunRequest {
	req.Program, req.Args = "jacobi", []float64{64, 8}
	return req
}

// mix is the whole tenant list with a reference per tenant: the
// shared-transport run of the same request, computed in process.
type mix struct {
	tenants []tenant
	refs    []*oracle
	pairs   map[string]int // hot pool key -> its pair tenant
}

func newMix() (*mix, error) {
	m := &mix{tenants: append(append([]tenant(nil), hotTenants...), coldTenants()...), pairs: map[string]int{}}
	for _, t := range hotTenants {
		_, key := requestOptions(t.req)
		if _, ok := m.pairs[key]; !ok {
			m.pairs[key] = len(m.tenants)
			m.tenants = append(m.tenants, tenant{t.name + "-pair", pairRequest(t.req), pair})
		}
	}
	for _, t := range m.tenants {
		o, err := sharedReference(t.req)
		if err != nil {
			return nil, fmt.Errorf("reference for %s: %w", t.name, err)
		}
		m.refs = append(m.refs, o)
	}
	return m, nil
}

// sharedReference runs req on a fresh shared-transport System.
func sharedReference(req serve.RunRequest) (*oracle, error) {
	opts := []core.Option{core.Grid(req.Grid...)}
	if req.Executor != "" {
		opts = append(opts, core.Executor(req.Executor))
	}
	sys, err := core.NewSystem(opts...)
	if err != nil {
		return nil, err
	}
	defer sys.Close()
	prog, err := core.BuildProgram(req.Program, req.Args...)
	if err != nil {
		return nil, err
	}
	run, err := sys.RunProgram(prog)
	if err != nil {
		return nil, err
	}
	return &oracle{values: run.Values, stats: run.Stats}, nil
}

// dealer hands out tenant indices block by block.
type dealer struct {
	m    *mix
	rng  *rand.Rand
	hand []int
}

func (m *mix) dealer(rng *rand.Rand) *dealer { return &dealer{m: m, rng: rng} }

// next deals the next tenant. The mix weighs its five parts equally, as
// kfbench -serve-bench's rotation weighs its tenants: it is dealt in
// blocks holding each hot tenant once and one cold key drawn at random,
// in a seeded random order, so every run has the same proportions and
// the cold tail is a fifth of the requests.
func (d *dealer) next() int {
	if len(d.hand) == 0 {
		var colds []int
		for ti, t := range d.m.tenants {
			switch t.kind {
			case hot:
				d.hand = append(d.hand, ti)
			case cold:
				colds = append(colds, ti)
			}
		}
		if len(colds) > 0 {
			d.hand = append(d.hand, colds[d.rng.IntN(len(colds))])
		}
		d.rng.Shuffle(len(d.hand), func(i, j int) { d.hand[i], d.hand[j] = d.hand[j], d.hand[i] })
	}
	ti := d.hand[0]
	d.hand = d.hand[1:]
	return ti
}

// check compares a response with its tenant's reference: values bit for
// bit and the transport-invariant census.
func (m *mix) check(ti int, resp *serve.RunResponse) error {
	return m.refs[ti].check(core.Run{Values: resp.Values, Stats: resp.Stats})
}

// arrival is one scheduled request.
type arrival struct {
	tenant int
	due    time.Duration // offset from the phase start
}

// poisson deals arrivals at rate per second: for d, or n of them when
// n > 0.
func poisson(deal *dealer, rate float64, d time.Duration, n int) []arrival {
	var out []arrival
	t := 0.0
	for n == 0 || len(out) < n {
		t += deal.rng.ExpFloat64() / rate
		if n == 0 && t >= d.Seconds() {
			break
		}
		out = append(out, arrival{tenant: deal.next(), due: time.Duration(t * float64(time.Second))})
	}
	return out
}

// outcome is one request's record. Latency runs from the due time, so a
// request held up behind a stalled one carries the stall.
type outcome struct {
	arrival
	sent, done time.Duration
	err        error
	hit        bool
	queueMs    float64
	runMs      float64
	stats      machine.Stats
	linkMsgs   int64
	linkBytes  int64
}

func (o outcome) latencyMs() float64 { return ms(o.done - o.due) }
func (o outcome) lagMs() float64     { return ms(o.sent - o.due) }

// sendFunc issues one request on connection conn and fills in the result
// fields of the outcome (not the times).
type sendFunc func(conn int, a arrival) outcome

// drive sends the arrivals in due order over n connections: each
// connection takes the next arrival, waits until it is due (or sends at
// once if it is already late) and records the outcome. It returns once
// every request has completed.
func drive(arrivals []arrival, n int, send sendFunc) []outcome {
	out := make([]outcome, len(arrivals))
	var next atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(arrivals) {
					return
				}
				a := arrivals[i]
				if wait := a.due - time.Since(start); wait > 0 {
					time.Sleep(wait)
				}
				sent := time.Since(start)
				o := send(c, a)
				o.arrival, o.sent, o.done = a, sent, time.Since(start)
				out[i] = o
			}
		}(c)
	}
	wg.Wait()
	return out
}

// client talks to one daemon over a fixed set of connections.
type client struct {
	base  string
	conns []*http.Client
	m     *mix
	tr    *tracer
	ops   atomic.Int64
}

func newClient(addr string, m *mix, tr *tracer) *client {
	c := &client{base: "http://" + addr, m: m, tr: tr}
	for i := 0; i < conns; i++ {
		c.conns = append(c.conns, &http.Client{
			Timeout:   30 * time.Second,
			Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
		})
	}
	return c
}

func (c *client) close() {
	for _, h := range c.conns {
		h.CloseIdleConnections()
	}
}

// send posts one request and checks the response against the reference.
func (c *client) send(conn int, a arrival) outcome {
	op := c.ops.Add(1)
	id := c.tr.begin("serve.request", 0, op)
	defer c.tr.end(id)
	req := c.m.tenants[a.tenant].req
	req.TimeoutMs = int(reqTimeout / time.Millisecond)
	body, err := json.Marshal(req)
	if err != nil {
		return outcome{err: err}
	}
	resp, err := c.conns[conn].Post(c.base+"/v1/run", "application/json", bytes.NewReader(body))
	if err != nil {
		return outcome{err: err}
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return outcome{err: err}
	}
	if resp.StatusCode != http.StatusOK {
		return outcome{err: fmt.Errorf("%s: %s", resp.Status, bytes.TrimSpace(raw))}
	}
	var rr serve.RunResponse
	if err := json.Unmarshal(raw, &rr); err != nil {
		return outcome{err: err}
	}
	o := outcome{hit: rr.PoolHit, queueMs: float64(rr.QueueNs) / 1e6, runMs: float64(rr.RunNs) / 1e6, stats: rr.Stats}
	o.linkMsgs, o.linkBytes = rr.Links.Total()
	if err := c.m.check(a.tenant, &rr); err != nil {
		o.err = fmt.Errorf("%s: %w", c.m.tenants[a.tenant].name, err)
	}
	return o
}

// metrics scrapes /metrics into name -> value; labelled series keep
// their labels in the name.
func (c *client) metrics() (map[string]float64, error) {
	resp, err := c.conns[0].Get(c.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		i := strings.LastIndexByte(line, ' ')
		if strings.HasPrefix(line, "#") || i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, sc.Err()
}

// daemon is a running kfserve process.
type daemon struct {
	cmd   *exec.Cmd
	addr  string
	procs *procSet
	done  chan error
}

// lineWriter hands the first line written to it to a channel.
type lineWriter struct {
	buf  []byte
	line chan string
}

func (w *lineWriter) Write(p []byte) (int, error) {
	if w.line == nil {
		return len(p), nil
	}
	w.buf = append(w.buf, p...)
	if i := bytes.IndexByte(w.buf, '\n'); i >= 0 {
		w.line <- string(w.buf[:i])
		w.line = nil
	}
	return len(p), nil
}

// startDaemon starts kfserve on an ephemeral loopback port and waits for
// its listening line.
func startDaemon(bin string) (*daemon, error) {
	lw := &lineWriter{line: make(chan string, 1)}
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-pool", strconv.Itoa(poolSize))
	cmd.Stdout = lw
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, procs: newProcSet(cmd.Process.Pid), done: make(chan error, 1)}
	go func() { d.done <- cmd.Wait() }()
	select {
	case line := <-lw.line:
		addr, ok := strings.CutPrefix(line, "kfserve: listening on ")
		if !ok {
			d.stop()
			return nil, fmt.Errorf("kfserve said %q", line)
		}
		d.addr = addr
		return d, nil
	case err := <-d.done:
		return nil, fmt.Errorf("kfserve exited before listening: %v", err)
	case <-time.After(20 * time.Second):
		d.stop()
		return nil, errors.New("kfserve did not start listening within 20s")
	}
}

// stop drains the daemon with SIGTERM and waits for it to exit, killing
// it if the drain takes too long.
func (d *daemon) stop() error {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case err := <-d.done:
		return err
	case <-time.After(30 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.done
		return errors.New("kfserve did not drain within 30s")
	}
}

// warm sends each hot tenant twice in turn and then, until its key holds
// two idle Systems — as many as the daemon's two run slots can ask for
// at once — concurrent pairs of the key's pair request. A pair whose
// requests do not overlap on the daemon leaves one System, so the pair
// is repeated, up to warmTries times; otherwise the run would start with
// one ipc fleet or two by chance, and its memory with it.
func warm(c *client) error {
	const warmTries = 20
	for ti, t := range hotTenants {
		a := arrival{tenant: ti}
		for i := 0; i < 2; i++ {
			if o := c.send(0, a); o.err != nil {
				return fmt.Errorf("warming %s: %w", t.name, o.err)
			}
		}
		_, key := requestOptions(t.req)
		idle := fmt.Sprintf("kfserve_pool_idle_systems{key=%q}", key)
		p := arrival{tenant: c.m.pairs[key]}
		for try := 0; ; try++ {
			m, err := c.metrics()
			if err != nil {
				return err
			}
			if m[idle] >= conns {
				break
			}
			if try == warmTries {
				return fmt.Errorf("warming %s: %d concurrent pairs left %v idle Systems, want %d", t.name, warmTries, m[idle], conns)
			}
			for _, o := range drive([]arrival{p, p}, conns, c.send) {
				if o.err != nil {
					return fmt.Errorf("warming %s: %w", t.name, o.err)
				}
			}
		}
	}
	return nil
}

// setupServe starts a daemon and warms it. It returns the set-up's CPU
// time (the daemon and its workers, all started within it) and its wall
// time.
func setupServe(r *run, m *mix) (*daemon, *client, time.Duration, time.Duration, error) {
	t0 := time.Now()
	d, err := startDaemon(r.kfserve)
	if err != nil {
		return nil, nil, 0, 0, err
	}
	c := newClient(d.addr, m, r.tr)
	if err := warm(c); err != nil {
		c.close()
		d.stop()
		return nil, nil, 0, 0, err
	}
	return d, c, d.procs.cpu(), time.Since(t0), nil
}

// setupServeMedian sets up `setups` daemons, stopping all but the last,
// and returns the median CPU and wall times of the set-ups.
func setupServeMedian(r *run, m *mix) (d *daemon, c *client, cpuS, wallS float64, err error) {
	var cpu, wall []float64
	for i := 0; ; i++ {
		d, c, tc, tw, err := setupServe(r, m)
		if err != nil {
			return nil, nil, 0, 0, err
		}
		cpu, wall = append(cpu, tc.Seconds()), append(wall, tw.Seconds())
		if i == setups-1 {
			return d, c, median(cpu), median(wall), nil
		}
		c.close()
		if err := d.stop(); err != nil {
			return nil, nil, 0, 0, fmt.Errorf("stopping set-up daemon: %w", err)
		}
		if left := d.procs.leaked(3 * time.Second); len(left) > 0 {
			r.fail("worker processes %v still running after set-up daemon %d drained", left, i+1)
		}
	}
}

// phase runs one rate, for d or n requests (see poisson), and returns
// its outcomes, counting them.
func (r *run) phase(c *client, deal *dealer, rate float64, d time.Duration, n int) []outcome {
	return r.drive(c, rate, poisson(deal, rate, d, n))
}

func (r *run) drive(c *client, rate float64, arr []arrival) []outcome {
	r.host.calibrate()
	out := drive(arr, conns, c.send)
	for _, o := range out {
		r.attempted++
		if o.err != nil {
			r.fail("%.0f/s request due %v: %v", rate, o.due, o.err)
		}
	}
	return out
}

func latencies(out []outcome) []float64 {
	xs := make([]float64, 0, len(out))
	for _, o := range out {
		xs = append(xs, o.latencyMs())
	}
	return xs
}

func lags(out []outcome) []float64 {
	xs := make([]float64, 0, len(out))
	for _, o := range out {
		xs = append(xs, o.lagMs())
	}
	return xs
}

// rungScore is a rate's distance from its limits over the slices run at
// it: the larger of p90 latency over the limit and the median send lag
// of each slice's last quarter over half the limit (a growing backlog).
// The rate passes when the score is at most 1 and no request failed.
func rungScore(slices [][]outcome) float64 {
	var all, tail []outcome
	for _, out := range slices {
		for _, o := range out {
			if o.err != nil {
				return math.Inf(1)
			}
		}
		all, tail = append(all, out...), append(tail, out[len(out)*3/4:]...)
	}
	if len(all) == 0 {
		return math.Inf(1)
	}
	return max(quantile(latencies(all), 0.9)/limitMs, median(lags(tail))/(limitMs/2))
}

// maxRate interpolates the rate at which the score crosses 1 between the
// highest passing rung of an unbroken run from the bottom and the rung
// above it, linearly in log(score), so the metric moves smoothly rather
// than in ladder steps. When the lowest rung fails it is that rate
// divided by its score; when every rung passes, the top rate.
func maxRate(rates, scores []float64) float64 {
	best := 0.0
	for i, s := range scores {
		if !(s <= 1) {
			if i == 0 {
				return rates[0] / s // scaled down from the lowest rung
			}
			l1, l2 := math.Log(max(scores[i-1], 1e-9)), math.Log(s)
			if math.IsInf(l2, 1) {
				return best
			}
			return rates[i-1] + (rates[i]-rates[i-1])*(0-l1)/(l2-l1)
		}
		best = rates[i]
	}
	return best
}

// measureServe is the serve-mixed workload. Time is cut into slices of a
// twentieth of the run. The first half alternates low-rate and
// high-rate slices; the second climbs the ladder, one slice per rung,
// until a rung misses the limit, then goes round the climbed rungs again
// (one rung higher each round while the top one passes) until the time
// is up. Every rate's score pools all of its slices, so a burst of host
// load lands in one slice of many rather than in a whole phase.
func measureServe(r *run) error {
	m, err := newMix()
	if err != nil {
		return err
	}
	d, c, setupS, setupWall, err := setupServeMedian(r, m)
	if err != nil {
		return err
	}
	defer c.close()
	rng := rand.New(rand.NewPCG(uint64(r.seed), 0x7365727665))
	deal := m.dealer(rng)
	slice := r.seconds / 20

	ops0 := c.ops.Load()
	start := time.Now()
	// peak_rss_mb is the daemon's peak resident size at the end of the
	// fixed-rate half plus the largest sum of its live workers' peaks seen
	// after set-up or after any slice of that half. The workers' part is
	// the largest because the hot ipc key's second fleet may be evicted
	// and spawned again at any time: set-up leaves both fleets alive. The
	// ladder is left out, because its top rung follows the host's speed,
	// and so would the memory of the requests in flight at it.
	_, workersRSS := d.procs.peakRSSParts()
	// cpu_ms_per_op is the median over the slices of the fixed-rate half
	// of each slice's CPU per request. It leaves out the ladder, because
	// how far the ladder climbs follows the host's speed, and so would the
	// rates its requests ran at; the median leaves out a slice in which
	// the hot ipc key's second fleet was spawned again (four worker
	// start-ups), which happens a seed- and timing-dependent number of
	// times.
	var lows, highs [][]outcome
	var cpuPerOp []float64
	cpu0, _ := d.procs.sample()
	for i, first := 0, rng.IntN(2); i < 10; i++ {
		var out []outcome
		if i%2 == first {
			out = r.phase(c, deal, lowRate, slice, 0)
			lows = append(lows, out)
		} else {
			out = r.phase(c, deal, highRate, slice, 0)
			highs = append(highs, out)
		}
		cpu1, _ := d.procs.sample()
		cpuPerOp, cpu0 = append(cpuPerOp, ms(cpu1-cpu0)/float64(len(out))), cpu1
		_, w := d.procs.peakRSSParts()
		workersRSS = max(workersRSS, w)
	}
	daemonRSS, _ := d.procs.peakRSSParts()
	rungs := make([][][]outcome, len(ladder))
	top := 1 // rungs in play: ladder[:top]
	for deadline := time.Now().Add(r.seconds / 2); time.Now().Before(deadline); {
		for i := 0; i < top && time.Now().Before(deadline); i++ {
			rungs[i] = append(rungs[i], r.phase(c, deal, ladder[i], slice, 0))
			if rungScore(rungs[i]) > 1 {
				top = i + 1 // the rungs above would only queue
			} else if i == top-1 && top < len(ladder) {
				top++
			}
		}
	}
	rates := []float64{lowRate, highRate}
	scores := []float64{rungScore(lows), rungScore(highs)}
	for i, sl := range rungs[:top] {
		rates, scores = append(rates, ladder[i]), append(scores, rungScore(sl))
		fmt.Fprintf(os.Stderr, "kfperf: rung %4.0f/s slices %d score %.2f\n", ladder[i], len(sl), scores[len(scores)-1])
	}
	maxRPS := maxRate(rates, scores)
	low, high := slices.Concat(lows...), slices.Concat(highs...)
	c.close()
	if err := d.stop(); err != nil {
		r.fail("kfserve drain: %v", err)
	}
	if left := d.procs.leaked(3 * time.Second); len(left) > 0 {
		r.fail("worker processes %v still running after the daemon drained", left)
	}
	r.set("setup_s", setupS)
	r.set("setup_wall_s", setupWall)
	r.set("req_ms.p50.low", quantile(latencies(low), 0.5))
	r.set("req_ms.p90.low", quantile(latencies(low), 0.9))
	r.set("req_ms.p50.high", quantile(latencies(high), 0.5))
	r.set("req_ms.p90.high", quantile(latencies(high), 0.9))
	r.set("max_rps", maxRPS)
	r.set("cpu_ms_per_op", median(cpuPerOp))
	r.set("peak_rss_mb", daemonRSS+workersRSS)
	for ti, t := range hotTenants {
		var run, lat []float64
		for _, o := range low {
			if o.tenant == ti {
				run, lat = append(run, o.runMs), append(lat, o.latencyMs())
			}
		}
		fmt.Fprintf(os.Stderr, "kfperf: low rate %-16s n=%3d run p50 %6.2f ms, latency p50 %6.2f ms\n", t.name, len(run), median(run), median(lat))
	}
	fmt.Fprintf(os.Stderr, "kfperf: %d requests in %v, %d at %.0f/s, %d at %.0f/s\n", c.ops.Load()-ops0, time.Since(start).Round(time.Millisecond), len(low), lowRate, len(high), highRate)
	return nil
}
