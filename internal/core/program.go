package core

import (
	"fmt"

	"repro/internal/kf"
	"repro/internal/machine"
)

// Program is a parallel computation declared once, independently of any
// machine: the body runs SPMD-style on every processor of whichever System
// it is handed to. Declaring the program separately from the machine is
// the paper's separation made literal — the same source runs on a shared
// mailbox array, a priced federation, or any future transport, and Compare
// checks that its meaning (values and message census) never moves.
type Program struct {
	// Name labels the program in reports and errors.
	Name string
	// Body is the per-processor computation. Each processor returns an
	// Output; see Output for how per-rank outputs combine into a Run.
	Body func(c *kf.Ctx) (Output, error)

	// key and args identify a registry-built program (see RegisterProgram
	// and BuildProgram): key is the registered factory name and args its
	// construction arguments, together enough for any process linking the
	// same registrations to rebuild an equivalent program. They are what
	// lets a run cross a process boundary — the ipc execution plane ships
	// (key, args) to its workers instead of the unserializable Body.
	// Programs constructed literally (key == "") run coordinator-side on
	// every transport.
	key  string
	args []float64
}

// Output is one processor's contribution to a Run.
type Output struct {
	// Values carries program-defined result values (typically the
	// gathered solution, emitted by the root rank only). Per-rank values
	// are concatenated in rank order into Run.Values.
	Values []float64
	// Elapsed optionally reports a program-defined elapsed time — e.g.
	// the iteration loop's finish time, excluding a verification gather.
	// The maximum over ranks becomes Run.Elapsed; if every rank leaves
	// it zero, the machine's whole-run elapsed time is used.
	Elapsed float64
}

// Run is the record of one Program execution on one System.
type Run struct {
	// Elapsed is the program-reported elapsed virtual time (see
	// Output.Elapsed), falling back to the machine's whole-run time.
	Elapsed float64
	// MachineElapsed is the machine's whole-run virtual time (always the
	// maximum processor clock, including any gather epilogue).
	MachineElapsed float64
	// Stats aggregates the machine counters for the whole run.
	Stats machine.Stats
	// Values concatenates the per-rank Output values in rank order.
	Values []float64
	// Links is the run's inter-node link census on federating
	// transports, nil otherwise.
	Links *LinkCensus
}

// LinkCensus is the per-directed-link message and byte counts of one run
// on a federating transport.
type LinkCensus struct {
	// Nodes is the federation's node count.
	Nodes int
	// Msgs and Bytes are indexed [src][dst]; diagonal entries are zero
	// (intra-node traffic never crosses a link).
	Msgs, Bytes [][]int64
}

// Total sums the census over all links.
func (lc *LinkCensus) Total() (msgs, bytes int64) {
	if lc == nil {
		return 0, 0
	}
	for a := range lc.Msgs {
		for b := range lc.Msgs[a] {
			msgs += lc.Msgs[a][b]
			bytes += lc.Bytes[a][b]
		}
	}
	return msgs, bytes
}

// Sub returns the per-link difference census lc - prev (the usual way to
// isolate per-iteration traffic: run two iteration counts and difference
// away the epilogue). The censuses must agree on the node count.
func (lc *LinkCensus) Sub(prev *LinkCensus) *LinkCensus {
	if lc == nil || prev == nil || lc.Nodes != prev.Nodes {
		return nil
	}
	out := &LinkCensus{Nodes: lc.Nodes}
	out.Msgs = make([][]int64, lc.Nodes)
	out.Bytes = make([][]int64, lc.Nodes)
	for a := 0; a < lc.Nodes; a++ {
		out.Msgs[a] = make([]int64, lc.Nodes)
		out.Bytes[a] = make([]int64, lc.Nodes)
		for b := 0; b < lc.Nodes; b++ {
			out.Msgs[a][b] = lc.Msgs[a][b] - prev.Msgs[a][b]
			out.Bytes[a][b] = lc.Bytes[a][b] - prev.Bytes[a][b]
		}
	}
	return out
}

// linkCounters is the observability surface a federating transport offers;
// FederatedTransport implements it, and so would any future multi-node
// transport that wants its traffic priced and censused.
type linkCounters interface {
	nodeCounter
	LinkTraffic(src, dst int) (msgs, bytes int64)
}

// linkCensus snapshots the system transport's per-link counters, nil when
// the transport has no notion of links. The chaos wrapper is unwrapped
// first: chaos:shared has no links (no phantom one-node census), while
// chaos:federated censuses the base's counters — which, under an active
// scenario, include injected duplicates, because those genuinely cross the
// wire.
func (s *System) linkCensus() *LinkCensus {
	f, ok := unwrapTransport(s.Machine.Transport()).(linkCounters)
	if !ok {
		return nil
	}
	nodes := f.Nodes()
	lc := &LinkCensus{Nodes: nodes}
	lc.Msgs = make([][]int64, nodes)
	lc.Bytes = make([][]int64, nodes)
	for a := 0; a < nodes; a++ {
		lc.Msgs[a] = make([]int64, nodes)
		lc.Bytes[a] = make([]int64, nodes)
		for b := 0; b < nodes; b++ {
			if a == b {
				continue
			}
			lc.Msgs[a][b], lc.Bytes[a][b] = f.LinkTraffic(a, b)
		}
	}
	return lc
}

// RunProgram executes p on the system and returns the run record. The
// machine's clocks, counters, transport and trace recorder are reset at
// the start, so a System can run any number of programs in sequence.
func (s *System) RunProgram(p *Program) (Run, error) {
	if p == nil || p.Body == nil {
		return Run{}, fmt.Errorf("core: RunProgram needs a program with a body")
	}
	if t := s.distributedTransport(p); t != nil {
		return s.runDistributed(p, t)
	}
	outs := make([]Output, s.Procs.Size())
	if s.Trace != nil {
		s.Trace.Reset()
	}
	err := kf.Exec(s.Machine, s.Procs, func(c *kf.Ctx) error {
		out, err := p.Body(c)
		if idx, ok := s.Procs.Index(c.P.Rank()); ok {
			outs[idx] = out
		}
		return err
	})
	if err != nil {
		return Run{}, fmt.Errorf("core: program %q: %w", p.Name, err)
	}
	run := Run{
		MachineElapsed: s.Machine.Elapsed(),
		Stats:          s.Machine.TotalStats(),
		Links:          s.linkCensus(),
	}
	for _, out := range outs {
		if out.Elapsed > run.Elapsed {
			run.Elapsed = out.Elapsed
		}
		run.Values = append(run.Values, out.Values...)
	}
	if run.Elapsed == 0 {
		run.Elapsed = run.MachineElapsed
	}
	s.runs.Add(1)
	return run, nil
}

// Comparison is the verdict of running one Program on two Systems. The
// loosely-coupled model's invariant is that a program's meaning lives in
// its messages: Values and the message census must be bit-identical on
// every conforming transport (Identical), while times may honestly
// diverge when one machine prices links the other does not have.
type Comparison struct {
	// A and B are the two run records.
	A, B Run
	// ValuesIdentical reports bit-identical program values; false when
	// either run emitted none (no evidence is not identity).
	ValuesIdentical bool
	// CensusIdentical reports identical flop, message and byte counters.
	CensusIdentical bool
	// TimesIdentical additionally reports identical elapsed times and
	// full statistics (idle and overhead times included) — expected
	// between systems with the same cost structure, e.g. scheduled
	// versus direct derivation, or a flat federation versus shared.
	TimesIdentical bool
	// Identical is the transport-invariance verdict: values and census
	// both bit-identical.
	Identical bool
}

// CompareRuns renders the bit-identity verdict over two existing run
// records (reuse a baseline run across many comparisons; Compare is the
// two-system convenience form). Runs that emitted no values are never
// values-identical: bit-identity is a positive claim, and a program whose
// body forgot to emit must not pass the verdict vacuously.
func CompareRuns(a, b Run) Comparison {
	c := Comparison{A: a, B: b}
	c.ValuesIdentical = len(a.Values) > 0 && len(a.Values) == len(b.Values)
	if c.ValuesIdentical {
		for i := range a.Values {
			if a.Values[i] != b.Values[i] {
				c.ValuesIdentical = false
				break
			}
		}
	}
	c.CensusIdentical = a.Stats.Flops == b.Stats.Flops &&
		a.Stats.MsgsSent == b.Stats.MsgsSent &&
		a.Stats.BytesSent == b.Stats.BytesSent &&
		a.Stats.MsgsRecv == b.Stats.MsgsRecv
	c.TimesIdentical = a.Elapsed == b.Elapsed &&
		a.MachineElapsed == b.MachineElapsed &&
		a.Stats == b.Stats
	c.Identical = c.ValuesIdentical && c.CensusIdentical
	return c
}

// Compare runs prog on both systems and returns the bit-identity verdict:
// per-run stats and link censuses in A and B, plus the values/census
// verdict fields.
func Compare(prog *Program, sysA, sysB *System) (Comparison, error) {
	ra, err := sysA.RunProgram(prog)
	if err != nil {
		return Comparison{}, err
	}
	rb, err := sysB.RunProgram(prog)
	if err != nil {
		return Comparison{}, err
	}
	return CompareRuns(ra, rb), nil
}
