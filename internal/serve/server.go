// Package serve is the long-lived multi-tenant simulation server: an
// HTTP/JSON daemon (cmd/kfserve) that runs registered programs
// (internal/progs keys + schema-validated args) on pooled, warmed
// core.Systems. The pool amortizes System construction — compiled
// communication schedules, loop plans and size-classed buffer pools
// survive across runs, and for the ipc transport so does the worker
// process fleet — which is what turns "declare once, run anywhere" into
// "declare once, serve millions": a warm Jacobi run costs microseconds
// where a cold construction costs milliseconds.
//
// The layering is pool (warmed Systems, bounded LRU, eviction Closes),
// scheduler (slots bounded to host cores, fair FIFO admission, queue-wait
// deadlines, graceful drain) and server (validation, run orchestration,
// verify mode, metrics). See README "Serving".
package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/progs"
)

// Config shapes a Server. Zero values select the defaults.
type Config struct {
	// PoolSize bounds the idle warmed-System population (default 8).
	PoolSize int
	// MaxConcurrent bounds simultaneously executing runs (default
	// GOMAXPROCS): each run already parallelizes internally, so slots
	// beyond the host cores only add scheduling pressure.
	MaxConcurrent int
	// MaxQueue bounds the FIFO admission queue (default 4x
	// MaxConcurrent); beyond it requests fail fast with 429.
	MaxQueue int
	// DefaultTimeout bounds a request's queue wait when the request
	// does not set timeout_ms (default 30s).
	DefaultTimeout time.Duration
	// MaxProcessors caps the requested grid size (default 16384, the
	// largest the scaling experiments pin).
	MaxProcessors int
	// MaxNodes caps the requested federation size (default 64).
	MaxNodes int
}

func (c Config) withDefaults() Config {
	if c.PoolSize <= 0 {
		c.PoolSize = 8
	}
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = runtime.GOMAXPROCS(0)
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 4 * c.MaxConcurrent
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.MaxProcessors <= 0 {
		c.MaxProcessors = 16384
	}
	if c.MaxNodes <= 0 {
		c.MaxNodes = 64
	}
	return c
}

// Server wires the pool, the scheduler and the HTTP surface together.
type Server struct {
	cfg      Config
	pool     *Pool
	sched    *Scheduler
	metrics  *Metrics
	mux      *http.ServeMux
	draining atomic.Bool
}

// New builds a Server from cfg (zero value: all defaults).
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		pool:    NewPool(cfg.PoolSize),
		sched:   NewScheduler(cfg.MaxConcurrent, cfg.MaxQueue),
		metrics: newMetrics(),
		mux:     http.NewServeMux(),
	}
	s.mux.HandleFunc("POST /v1/run", s.handleRun)
	s.mux.HandleFunc("GET /v1/programs", s.handlePrograms)
	s.mux.HandleFunc("GET /v1/transports", s.handleTransports)
	s.mux.HandleFunc("GET /v1/executors", s.handleExecutors)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s
}

// Handler returns the server's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Pool exposes the warmed-System pool (read-side, for tests and
// benchmarks).
func (s *Server) Pool() *Pool { return s.pool }

// Scheduler exposes the admission scheduler (read-side).
func (s *Server) Scheduler() *Scheduler { return s.sched }

// Drain gracefully shuts the server down: new runs are rejected with 503
// (and /healthz reports draining), queued requests are bounced, in-flight
// runs complete, and then every pooled System is Closed — for ipc Systems
// that tears down their worker processes, so a drained server leaves no
// orphans. ctx bounds the wait for in-flight runs; on expiry the pool is
// closed anyway (in-flight Systems are then Closed on return) and the
// ctx error returned.
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)
	done := s.sched.Drain()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = fmt.Errorf("serve: drain: %w", ctx.Err())
	}
	if cerr := s.pool.Close(); cerr != nil && err == nil {
		err = cerr
	}
	return err
}

// validate checks the cheap request invariants — program schema, grid
// shape, caps and the link-list length — before the request is allowed to
// queue. Everything the System constructor itself validates (transport
// names, node divisibility, link specs) is deferred to it and classified
// as a bad request there.
func (s *Server) validate(req *RunRequest) error {
	if req.Program == "" {
		return &BadRequestError{Msg: fmt.Sprintf("no program named (registered: %v)", core.ProgramNames())}
	}
	if _, ok := progs.Schema(req.Program); !ok {
		return &BadRequestError{Msg: fmt.Sprintf("unknown program %q (registered: %v)", req.Program, core.ProgramNames())}
	}
	if err := progs.ValidateArgs(req.Program, req.Args); err != nil {
		return err
	}
	if len(req.Grid) == 0 {
		return &BadRequestError{Msg: "no processor grid declared"}
	}
	size := 1
	for _, e := range req.Grid {
		if e <= 0 {
			return &BadRequestError{Msg: fmt.Sprintf("grid extents must be positive, got %v", req.Grid)}
		}
		if size > s.cfg.MaxProcessors/e {
			return &BadRequestError{Msg: fmt.Sprintf("grid %v exceeds the server's %d-processor cap", req.Grid, s.cfg.MaxProcessors)}
		}
		size *= e
	}
	if req.Nodes < 0 || req.Nodes > s.cfg.MaxNodes {
		return &BadRequestError{Msg: fmt.Sprintf("nodes %d outside [0, %d]", req.Nodes, s.cfg.MaxNodes)}
	}
	// A federation of k nodes has k*(k-1) directed links; a longer list
	// must repeat or misplace one, and is refused before costModel builds
	// a map from it.
	if nodes := max(req.Nodes, 1); len(req.Links) > nodes*(nodes-1) {
		return &BadRequestError{Msg: fmt.Sprintf("%d link overrides for %d nodes, which have only %d directed links", len(req.Links), nodes, nodes*(nodes-1))}
	}
	if req.TimeoutMs < 0 {
		return &BadRequestError{Msg: "timeout_ms must be non-negative"}
	}
	return nil
}

// options translates a validated request into the core option list its
// System is constructed from.
func (req *RunRequest) options() []core.Option {
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
	if req.LinkLatency != 0 || req.LinkByte != 0 || len(req.Links) > 0 {
		links := make([]core.LinkSpec, len(req.Links))
		for i, l := range req.Links {
			links[i] = core.LinkSpec{Src: l.Src, Dst: l.Dst, Latency: l.Latency, Byte: l.Byte}
		}
		opts = append(opts, core.LinkCosts(req.LinkLatency, req.LinkByte, links...))
	}
	return opts
}

// costModel mirrors the cost NewSystem would derive from the request, for
// keying the pool without constructing anything. It may describe an
// invalid configuration (negative multipliers); the constructor is the
// arbiter, this only has to be deterministic per configuration.
func (req *RunRequest) costModel() machine.CostModel {
	cm := machine.IPSC2()
	if req.LinkLatency != 0 || req.LinkByte != 0 || len(req.Links) > 0 {
		cm = cm.WithInterNode(req.LinkLatency, req.LinkByte)
		for _, l := range req.Links {
			cm = cm.WithLink(l.Src, l.Dst, machine.LinkCost{Latency: l.Latency, Byte: l.Byte})
		}
	}
	return cm
}

// maxRunBody caps a /v1/run request body. The largest valid request — a
// full link table for the largest federation — is a few hundred
// kilobytes, so the cap only ever stops a client streaming a body nothing
// could use.
const maxRunBody = 1 << 20

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	var req RunRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRunBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		s.fail(w, "", &BadRequestError{Msg: fmt.Sprintf("decode request: %v", err)})
		return
	}
	if s.draining.Load() {
		s.fail(w, req.Program, ErrDraining)
		return
	}
	if err := s.validate(&req); err != nil {
		s.fail(w, req.Program, err)
		return
	}
	timeout := s.cfg.DefaultTimeout
	if req.TimeoutMs > 0 {
		timeout = time.Duration(req.TimeoutMs) * time.Millisecond
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()

	queued := time.Now()
	if err := s.sched.Acquire(ctx); err != nil {
		s.fail(w, req.Program, err)
		return
	}
	defer s.sched.Release()
	queueWait := time.Since(queued)
	s.metrics.queueSeconds.observe(queueWait.Seconds())

	key := core.PoolKey(req.Grid, req.Transport, req.Nodes, req.Executor, req.costModel())
	resp, err := s.execute(&req, key, queueWait)
	if err != nil {
		s.fail(w, req.Program, err)
		return
	}
	s.metrics.countRun(req.Program, "ok")
	writeJSON(w, http.StatusOK, resp)
}

// execute checks a System out of the pool, runs the program (twice under
// verify), and files the System back — or discards it when the run
// failed, since a failed run may leave a poisoned transport (a lost ipc
// worker does not come back).
func (s *Server) execute(req *RunRequest, key string, queueWait time.Duration) (*RunResponse, error) {
	prog, err := core.BuildProgram(req.Program, req.Args...)
	if err != nil {
		// Args were schema-validated, so this is a factory-level
		// rejection; surface it as the client's error.
		return nil, &BadRequestError{Msg: err.Error()}
	}
	lease, err := s.pool.Checkout(key, func() (*core.System, error) {
		sys, err := core.NewSystem(req.options()...)
		if err != nil {
			// Constructor rejections (unknown transport, node count that
			// does not divide, bad link specs) are configuration errors.
			return nil, &BadRequestError{Msg: err.Error()}
		}
		return sys, nil
	})
	if err != nil {
		return nil, err
	}
	started := time.Now()
	run, err := lease.Sys.RunProgram(prog)
	if err != nil {
		lease.Discard()
		return nil, &RunError{Program: prog.Name, Err: err}
	}
	resp := &RunResponse{
		Program:        prog.Name,
		Key:            key,
		Values:         run.Values,
		Elapsed:        run.Elapsed,
		MachineElapsed: run.MachineElapsed,
		Stats:          run.Stats,
		Links:          run.Links,
		PoolHit:        lease.Hit(),
		QueueNs:        queueWait.Nanoseconds(),
	}
	if req.Verify {
		again, err := lease.Sys.RunProgram(prog)
		if err != nil {
			lease.Discard()
			return nil, &RunError{Program: prog.Name, Err: err}
		}
		cmp := core.CompareRuns(run, again)
		resp.Verify = &VerifyResult{
			Identical:       cmp.Identical,
			ValuesIdentical: cmp.ValuesIdentical,
			CensusIdentical: cmp.CensusIdentical,
			TimesIdentical:  cmp.TimesIdentical,
		}
		if !cmp.Identical {
			// A pooled System that does not reproduce its own run
			// bit-for-bit must never serve another request.
			lease.Discard()
			return nil, &VerifyError{Program: prog.Name, Result: *resp.Verify}
		}
	}
	resp.RunNs = time.Since(started).Nanoseconds()
	s.metrics.runSeconds.observe(time.Since(started).Seconds())
	resp.Warmed = lease.Sys.RunCount()
	lease.Return()
	return resp, nil
}

// fail writes the error envelope and counts the outcome.
func (s *Server) fail(w http.ResponseWriter, program string, err error) {
	status, body := errorEnvelope(err)
	if program == "" {
		program = "_"
	}
	s.metrics.countRun(program, body.Code)
	writeJSON(w, status, body)
}

func (s *Server) handlePrograms(w http.ResponseWriter, r *http.Request) {
	var resp ListResponse
	for _, name := range core.ProgramNames() {
		specs, _ := progs.Schema(name)
		resp.Programs = append(resp.Programs, ProgramInfo{Name: name, Args: specs})
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleTransports(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, ListResponse{Transports: machine.TransportNames()})
}

func (s *Server) handleExecutors(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, ListResponse{Executors: machine.ExecutorNames()})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var b strings.Builder
	ps := s.pool.Stats()
	fmt.Fprintf(&b, "# TYPE kfserve_pool_hits_total counter\nkfserve_pool_hits_total %d\n", ps.Hits)
	fmt.Fprintf(&b, "# TYPE kfserve_pool_misses_total counter\nkfserve_pool_misses_total %d\n", ps.Misses)
	fmt.Fprintf(&b, "# TYPE kfserve_pool_evictions_total counter\nkfserve_pool_evictions_total %d\n", ps.Evictions)
	fmt.Fprintf(&b, "# TYPE kfserve_pool_discards_total counter\nkfserve_pool_discards_total %d\n", ps.Discards)
	fmt.Fprintf(&b, "# TYPE kfserve_pool_idle gauge\nkfserve_pool_idle %d\n", ps.Idle)
	fmt.Fprintf(&b, "# TYPE kfserve_pool_idle_systems gauge\n# TYPE kfserve_pool_warm_runs gauge\n")
	for _, wk := range s.pool.Warmth() {
		fmt.Fprintf(&b, "kfserve_pool_idle_systems{key=%q} %d\n", wk.Key, wk.Idle)
		fmt.Fprintf(&b, "kfserve_pool_warm_runs{key=%q} %d\n", wk.Key, wk.Runs)
	}
	fmt.Fprintf(&b, "# TYPE kfserve_queue_depth gauge\nkfserve_queue_depth %d\n", s.sched.QueueDepth())
	fmt.Fprintf(&b, "# TYPE kfserve_inflight gauge\nkfserve_inflight %d\n", s.sched.Inflight())
	draining := 0
	if s.draining.Load() {
		draining = 1
	}
	fmt.Fprintf(&b, "# TYPE kfserve_draining gauge\nkfserve_draining %d\n", draining)
	s.metrics.writeRuns(&b)
	s.metrics.runSeconds.write(&b, "kfserve_run_seconds")
	s.metrics.queueSeconds.write(&b, "kfserve_queue_seconds")
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	fmt.Fprint(w, b.String())
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}
