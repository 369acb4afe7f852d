// Package core is the one entry point user code declares a simulated
// machine through — the paper's "only one real processor declaration is
// allowed in the whole program", grown into a configuration surface:
// examples, experiments, benchmarks and command-line tools all construct
// and run systems here, never against the lower layers directly.
//
// A System is declared with functional options:
//
//	sys, err := core.NewSystem(
//	    core.Grid(4, 4),                    // the processor array
//	    core.Transport("federated"),        // delivery substrate, by registry name
//	    core.Nodes(4),                      // federation shape
//	    core.LinkCosts(4, 8),               // price the node interconnect
//	    core.Trace(),                       // record per-processor timelines
//	)
//
// Every option is independent and optional except Grid; the defaults are a
// shared-memory transport and the iPSC/2-like cost preset. Transports are
// resolved by name through the registry in internal/machine
// (machine.RegisterTransport), so a new substrate — a cross-process one,
// say — reaches every caller of core with a single Register call and zero
// facade edits.
//
// Programs separate the computation from the machine: declare once, run on
// any System, and Compare two systems' runs for the loosely-coupled model's
// central invariant — a program's meaning lives in its messages, so values
// and message censuses must be bit-identical across transports while
// virtual times honestly reflect what each machine charges. See Program,
// Run and Compare.
//
// The underlying pieces remain in internal/machine (the simulated
// multicomputer), internal/topology (processor arrays), internal/dist and
// internal/darray (distributed data), and internal/kf (the language
// runtime: parsubs, doall loops, on-clauses).
package core

import (
	"fmt"
	"io"
	"sync/atomic"

	"repro/internal/chaos"
	"repro/internal/kf"
	"repro/internal/machine"
	"repro/internal/topology"
	"repro/internal/trace"
)

// System is a simulated machine with a declared processor array — the
// paper's single machine declaration, from which the runtime derives
// everything else.
//
// Run and RunProgram are the system's execution surface: they reset the
// trace recorder before every execution. The exported Machine and Procs
// fields are the low-level handles for driver wrappers that predate
// Programs (jacobi.KF1(sys.Machine, sys.Procs, ...)); code driving the
// Machine directly skips that reset, so systems declared with Trace
// should be executed through Run/RunProgram. DirectScheduling is the
// machine's own flag and applies however the machine is driven.
type System struct {
	// Machine is the simulated multicomputer.
	Machine *machine.Machine
	// Procs is the full processor array ("the real estate agent").
	Procs *topology.Grid
	// Trace records per-processor timelines when the Trace option is on.
	Trace *trace.Recorder

	transport string
	executor  string
	runs      atomic.Int64 // completed runs; see Warmed
}

// settings accumulates option state before validation.
type settings struct {
	shape     []int
	transport string
	executor  string
	nodes     int
	nodesSet  bool
	cost      machine.CostModel
	trace     bool
	direct    bool
	linkSet   bool
	linkLat   float64
	linkByte  float64
	links     []LinkSpec
	chaosSet  bool
	chaosSc   chaos.Scenario
	listen    string
}

// Option configures a System under construction. Options are applied in
// order; later options override earlier ones where they overlap.
type Option func(*settings) error

// Grid declares the processor array shape, e.g. Grid(4) or Grid(2, 4); the
// machine has exactly prod(shape) processors. Exactly what the paper's
// processor declaration says, and the one option every System needs.
func Grid(shape ...int) Option {
	s := append([]int(nil), shape...)
	return func(cfg *settings) error {
		if len(s) == 0 {
			return fmt.Errorf("core: Grid needs at least one extent")
		}
		for _, e := range s {
			if e <= 0 {
				return fmt.Errorf("core: Grid extents must be positive, got %v", s)
			}
		}
		cfg.shape = s
		return nil
	}
}

// Transport selects the message-delivery substrate by its registry name
// (machine.RegisterTransport): "shared" (the default) or "federated" ship
// with the runtime; future transports resolve the same way. Unknown names
// surface as errors from NewSystem.
func Transport(name string) Option {
	return func(cfg *settings) error {
		if name == "" {
			return fmt.Errorf("core: Transport needs a non-empty name (registered: %v)", machine.TransportNames())
		}
		cfg.transport = name
		return nil
	}
}

// Executor selects the engine driving every run by its registry name
// (machine.RegisterExecutor): "goroutine" (the default, one goroutine per
// virtual processor) or "calendar" (a bounded worker pool resuming runnable
// processors in virtual-time order); future engines resolve the same way.
// Programs behave bit-identically on every engine — the conformance battery
// in internal/machine pins it — so the choice is purely a host-performance
// one. Unknown names surface as errors from NewSystem.
func Executor(name string) Option {
	return func(cfg *settings) error {
		if name == "" {
			return fmt.Errorf("core: Executor needs a non-empty name (registered: %v)", machine.ExecutorNames())
		}
		cfg.executor = name
		return nil
	}
}

// Nodes sets the federation shape: the processors are partitioned into n
// equal nodes joined by counted inter-node links. It requires a federating
// transport — Nodes(2) on the shared transport is a configuration conflict
// reported by NewSystem — and n must divide the processor count.
func Nodes(n int) Option {
	return func(cfg *settings) error {
		if n < 1 {
			return fmt.Errorf("core: Nodes must be at least 1, got %d", n)
		}
		cfg.nodes = n
		cfg.nodesSet = true
		return nil
	}
}

// Cost sets the virtual-time cost model. The zero value keeps selecting
// the iPSC/2-like preset, as it always has.
func Cost(cm machine.CostModel) Option {
	return func(cfg *settings) error {
		cfg.cost = cm
		return nil
	}
}

// LinkSpec overrides the price of one directed inter-node link inside a
// LinkCosts option: the latency and byte-period multipliers messages
// crossing from node Src to node Dst pay instead of the sweep's defaults —
// a slow uplink, or a fast backbone pair.
type LinkSpec struct {
	Src, Dst      int
	Latency, Byte float64
}

// LinkCosts prices the node interconnect of a federating transport: every
// inter-node message pays the cost model's Latency and BytePeriod scaled
// by the given multipliers (links of a real federation are slower than
// intra-node delivery, so useful values are > 1), with per-directed-link
// overrides for asymmetric interconnects. It layers onto whatever Cost
// selected and requires a transport that federates. Note that a
// single-node federation (Nodes(1), the federated default) has no
// inter-node links, so the pricing is accepted but charged nowhere — the
// degenerate zero-surcharge case node sweeps deliberately include; set
// Nodes(n >= 2) for the interconnect to exist.
func LinkCosts(latency, bytePeriod float64, links ...LinkSpec) Option {
	ls := append([]LinkSpec(nil), links...)
	return func(cfg *settings) error {
		cfg.linkSet = true
		cfg.linkLat, cfg.linkByte = latency, bytePeriod
		cfg.links = ls
		return nil
	}
}

// ListenAddr sets an explicit TCP listen address (host:port, port 0 for an
// ephemeral port) for the ipc transport's worker listener, replacing the
// default Unix domain socket — for hosts where UDS is unavailable or a
// fixed port must be allowed through a filter. It requires the ipc
// transport (bare or chaos-wrapped); the KF_IPC_ADDR environment variable
// sets the same default without a code change.
func ListenAddr(addr string) Option {
	return func(cfg *settings) error {
		if addr == "" {
			return fmt.Errorf("core: ListenAddr needs a non-empty TCP address")
		}
		cfg.listen = addr
		return nil
	}
}

// Chaos installs a fault-injection scenario (see internal/chaos) on the
// system's transport. It requires a chaos-wrapped transport — select one
// with Transport("chaos:<base>"), e.g. Transport("chaos:federated") — and
// reports a configuration error otherwise. The scenario is validated and
// its retry-policy defaults applied by NewSystem; per-run and cumulative
// fault/recovery reports are read back with System.ChaosReport and
// System.ChaosTotalReport.
func Chaos(sc chaos.Scenario) Option {
	return func(cfg *settings) error {
		cfg.chaosSet = true
		cfg.chaosSc = sc
		return nil
	}
}

// Trace attaches a per-processor timeline recorder, available as
// System.Trace after construction.
func Trace() Option {
	return func(cfg *settings) error {
		cfg.trace = true
		return nil
	}
}

// DirectScheduling makes the system derive all collective communication
// directly on every call instead of replaying compiled schedules — the
// verification mode of the inspector/executor split. Runs on a direct
// system must be bit-identical to scheduled ones; Compare a system with
// and without this option to check. The mode is the machine's
// DirectScheduling flag, so it holds however the machine is driven, and
// registered programs on ipc carry it into the workers.
func DirectScheduling() Option {
	return func(cfg *settings) error {
		cfg.direct = true
		return nil
	}
}

// NewSystem builds a simulated system from the given options. Grid is
// required; everything else defaults (shared transport, one node, iPSC/2
// costs, no trace, scheduled communication). Conflicting or invalid
// options — Nodes on a non-federating transport, LinkCosts without a
// federation, an unregistered transport name, a node count that does not
// divide the processor count — are reported as errors, never panics.
func NewSystem(opts ...Option) (*System, error) {
	cfg := settings{transport: "shared", nodes: 1}
	for _, opt := range opts {
		if err := opt(&cfg); err != nil {
			return nil, err
		}
	}
	if len(cfg.shape) == 0 {
		return nil, fmt.Errorf("core: no processor grid declared (use core.Grid)")
	}
	cost := cfg.cost
	if cost.IsZero() {
		cost = machine.IPSC2()
	}
	if cfg.linkSet {
		if cfg.linkLat <= 0 || cfg.linkByte <= 0 {
			return nil, fmt.Errorf("core: LinkCosts multipliers must be positive, got (%g, %g)", cfg.linkLat, cfg.linkByte)
		}
		for _, l := range cfg.links {
			if l.Src < 0 || l.Src >= cfg.nodes || l.Dst < 0 || l.Dst >= cfg.nodes {
				return nil, fmt.Errorf("core: LinkSpec %d->%d outside the federation's %d nodes", l.Src, l.Dst, cfg.nodes)
			}
			if l.Src == l.Dst {
				return nil, fmt.Errorf("core: LinkSpec %d->%d prices an intra-node path, which never crosses a link", l.Src, l.Dst)
			}
			if l.Latency <= 0 || l.Byte <= 0 {
				return nil, fmt.Errorf("core: LinkSpec %d->%d multipliers must be positive, got (%g, %g)", l.Src, l.Dst, l.Latency, l.Byte)
			}
		}
		cost = cost.WithInterNode(cfg.linkLat, cfg.linkByte)
		for _, l := range cfg.links {
			cost = cost.WithLink(l.Src, l.Dst, machine.LinkCost{Latency: l.Latency, Byte: l.Byte})
		}
	}
	g := topology.New(cfg.shape...)
	tr, err := machine.NewTransportByName(cfg.transport, g.Size(), cfg.nodes)
	if err != nil {
		return nil, err
	}
	// Capability checks see through the chaos wrapper: chaos:shared must
	// fail federation-only options exactly like shared does.
	_, federates := unwrapTransport(tr).(nodeCounter)
	if cfg.nodesSet && cfg.nodes > 1 && !federates {
		return nil, fmt.Errorf("core: Nodes(%d) set but transport %q does not federate", cfg.nodes, cfg.transport)
	}
	if cfg.linkSet && !federates {
		return nil, fmt.Errorf("core: LinkCosts set but transport %q does not federate (inter-node links would never be crossed)", cfg.transport)
	}
	if cfg.chaosSet {
		ct, ok := tr.(*machine.ChaosTransport)
		if !ok {
			return nil, fmt.Errorf("core: Chaos set but transport %q injects nothing: select a chaos-wrapped transport, e.g. Transport(%q)", cfg.transport, machine.ChaosPrefix+cfg.transport)
		}
		if err := ct.SetScenario(cfg.chaosSc); err != nil {
			return nil, err
		}
	}
	if cfg.listen != "" {
		ipc, ok := unwrapTransport(tr).(*machine.IPCTransport)
		if !ok {
			return nil, fmt.Errorf("core: ListenAddr set but transport %q spawns no workers: it requires the ipc transport", cfg.transport)
		}
		ipc.SetListenAddr(cfg.listen)
	}
	m := machine.NewWithTransport(tr, cost)
	if cfg.executor != "" {
		ex, err := machine.NewExecutorByName(cfg.executor)
		if err != nil {
			return nil, err
		}
		m.SetExecutor(ex)
	}
	sys := &System{
		Machine:   m,
		Procs:     g,
		transport: cfg.transport,
		executor:  m.ExecutorName(),
	}
	m.DirectScheduling = cfg.direct
	if cfg.trace {
		sys.Trace = trace.NewRecorder(g.Size())
		m.SetSink(sys.Trace)
	}
	return sys, nil
}

// MustSystem is NewSystem for benchmarks, experiments and tools whose
// configuration is static and whose only sensible response to a
// misconfiguration is to stop: it panics on error.
func MustSystem(opts ...Option) *System {
	sys, err := NewSystem(opts...)
	if err != nil {
		panic(err)
	}
	return sys
}

// TransportName returns the registry name the system's transport was
// resolved under.
func (s *System) TransportName() string { return s.transport }

// ExecutorName returns the registry name of the engine driving the system's
// runs ("goroutine" unless the Executor option selected another).
func (s *System) ExecutorName() string { return s.executor }

// Close releases any external resources the system's transport holds —
// for the cross-process "ipc" transport that means shutting down its
// worker processes and removing the socket directory. Transports without
// external state (shared, federated) make this a no-op, so callers can
// defer a Close on every system unconditionally. Idempotent.
func (s *System) Close() error {
	if c, ok := s.Machine.Transport().(io.Closer); ok {
		return c.Close()
	}
	return nil
}

// nodeCounter is the capability a transport exposes when it partitions
// processors into nodes; FederatedTransport (and any future multi-node
// transport) implements it. linkCounters in program.go extends it with
// the per-link traffic counters the censuses read.
type nodeCounter interface{ Nodes() int }

// unwrapTransport sees through a chaos wrapper to the base transport, so
// capability checks (does it federate? does it count links?) answer for the
// transport that actually delivers.
func unwrapTransport(tr machine.Transport) machine.Transport {
	if ct, ok := tr.(*machine.ChaosTransport); ok {
		return ct.Base()
	}
	return tr
}

// Nodes returns the federation's node count (1 on non-federating
// transports).
func (s *System) Nodes() int {
	if f, ok := s.Machine.Transport().(nodeCounter); ok {
		return f.Nodes()
	}
	return 1
}

// ChaosReport returns the fault/recovery report of the most recent run on a
// chaos-wrapped transport, and whether the system has one. Call it after
// Run/RunProgram and before the next run (each run resets the per-run
// report).
func (s *System) ChaosReport() (chaos.Report, bool) {
	if ct, ok := s.Machine.Transport().(*machine.ChaosTransport); ok {
		return ct.Report(), true
	}
	return chaos.Report{}, false
}

// ChaosTotalReport returns the fault/recovery report accumulated over every
// run since the system's scenario was installed, including the most recent
// one.
func (s *System) ChaosTotalReport() (chaos.Report, bool) {
	if ct, ok := s.Machine.Transport().(*machine.ChaosTransport); ok {
		return ct.TotalReport(), true
	}
	return chaos.Report{}, false
}

// Run executes body as a parallel subroutine over the full processor array
// and returns the virtual elapsed time. Like the machine's clocks and
// counters, the trace recorder (when attached) is reset at the start, so
// a System runs any number of programs in sequence, each cleanly.
func (s *System) Run(body func(c *kf.Ctx) error) (float64, error) {
	if s.Trace != nil {
		s.Trace.Reset()
	}
	if err := kf.Exec(s.Machine, s.Procs, body); err != nil {
		return 0, err
	}
	s.runs.Add(1)
	return s.Machine.Elapsed(), nil
}

// Stats returns the aggregate machine counters from the last Run.
func (s *System) Stats() machine.Stats { return s.Machine.TotalStats() }
