package core

import (
	"strings"
	"testing"

	"repro/internal/darray"
	"repro/internal/dist"
	"repro/internal/kf"
	"repro/internal/machine"
)

func TestNewSystemDefaults(t *testing.T) {
	sys, err := NewSystem(Grid(2, 3))
	if err != nil {
		t.Fatal(err)
	}
	if sys.Machine.Size() != 6 || sys.Procs.Size() != 6 {
		t.Errorf("sizes %d/%d", sys.Machine.Size(), sys.Procs.Size())
	}
	if sys.Machine.Cost() != machine.IPSC2() {
		t.Error("default cost model should be IPSC2")
	}
	if sys.Trace != nil {
		t.Error("trace should be off by default")
	}
	if sys.TransportName() != "shared" {
		t.Errorf("default transport %q, want shared", sys.TransportName())
	}
	if _, ok := sys.Machine.Transport().(*machine.SharedTransport); !ok {
		t.Errorf("default transport resolved to %T", sys.Machine.Transport())
	}
	if sys.Nodes() != 1 {
		t.Errorf("shared system reports %d nodes", sys.Nodes())
	}
}

func TestEveryOptionTogether(t *testing.T) {
	sys, err := NewSystem(
		Grid(4, 4),
		Transport("federated"),
		Nodes(4),
		Cost(machine.Balanced()),
		LinkCosts(4, 8, LinkSpec{Src: 0, Dst: 1, Latency: 16, Byte: 32}),
		Trace(),
		DirectScheduling(),
	)
	if err != nil {
		t.Fatal(err)
	}
	if sys.Machine.Size() != 16 {
		t.Errorf("size %d", sys.Machine.Size())
	}
	ft, ok := sys.Machine.Transport().(*machine.FederatedTransport)
	if !ok {
		t.Fatalf("transport %T, want federated", sys.Machine.Transport())
	}
	if ft.Nodes() != 4 || sys.Nodes() != 4 {
		t.Errorf("nodes %d/%d, want 4", ft.Nodes(), sys.Nodes())
	}
	cost := sys.Machine.Cost()
	if cost.FlopTime != machine.Balanced().FlopTime {
		t.Error("Cost option not applied")
	}
	if cost.InterNode == nil {
		t.Fatal("LinkCosts not applied")
	}
	want := machine.Balanced().WithInterNode(4, 8).
		WithLink(0, 1, machine.LinkCost{Latency: 16, Byte: 32})
	if cost.LinkMessageTime(0, 1, 100) != want.LinkMessageTime(0, 1, 100) ||
		cost.LinkMessageTime(1, 0, 100) != want.LinkMessageTime(1, 0, 100) {
		t.Error("LinkCosts overrides not equivalent to WithInterNode+WithLink")
	}
	if sys.Trace == nil {
		t.Error("Trace option not applied")
	}
	if !sys.Machine.DirectScheduling {
		t.Error("DirectScheduling option not applied")
	}
}

func TestOptionErrors(t *testing.T) {
	cases := []struct {
		name string
		opts []Option
		want string // substring of the error
	}{
		{"no grid", nil, "no processor grid"},
		{"empty grid", []Option{Grid()}, "at least one extent"},
		{"bad extent", []Option{Grid(4, 0)}, "positive"},
		{"unknown transport", []Option{Grid(4), Transport("carrier-pigeon")}, "carrier-pigeon"},
		{"empty transport", []Option{Grid(4), Transport("")}, "non-empty"},
		{"nodes on shared", []Option{Grid(4), Nodes(2)}, "does not federate"},
		{"nodes zero", []Option{Grid(4), Nodes(0)}, "at least 1"},
		{"nodes not dividing", []Option{Grid(3), Transport("federated"), Nodes(2)}, "dividing"},
		{"linkcosts on shared", []Option{Grid(4), LinkCosts(4, 8)}, "LinkCosts"},
		{"linkcosts bad multiplier", []Option{Grid(4), Transport("federated"), Nodes(2), LinkCosts(0, 8)}, "positive"},
		{"linkspec out of range", []Option{Grid(4), Transport("federated"), Nodes(2),
			LinkCosts(4, 8, LinkSpec{Src: 7, Dst: 0, Latency: 2, Byte: 2})}, "outside"},
		{"linkspec intra-node", []Option{Grid(4), Transport("federated"), Nodes(2),
			LinkCosts(4, 8, LinkSpec{Src: 1, Dst: 1, Latency: 2, Byte: 2})}, "intra-node"},
		{"linkspec bad multiplier", []Option{Grid(4), Transport("federated"), Nodes(2),
			LinkCosts(4, 8, LinkSpec{Src: 0, Dst: 1, Latency: -1, Byte: 2})}, "positive"},
	}
	for _, tc := range cases {
		_, err := NewSystem(tc.opts...)
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q missing %q", tc.name, err, tc.want)
		}
	}
}

func TestCostZeroValueKeepsPreset(t *testing.T) {
	// The explicit zero model still selects the iPSC/2 preset — the
	// Config-era behavior, preserved through CostModel.IsZero.
	sys, err := NewSystem(Grid(2), Cost(machine.CostModel{}))
	if err != nil {
		t.Fatal(err)
	}
	if sys.Machine.Cost() != machine.IPSC2() {
		t.Error("zero cost model should select the IPSC2 preset")
	}
}

func TestLaterOptionsWin(t *testing.T) {
	sys, err := NewSystem(Grid(8), Transport("federated"), Nodes(4), Transport("shared"), Nodes(1))
	if err != nil {
		t.Fatal(err)
	}
	if sys.TransportName() != "shared" {
		t.Errorf("transport %q, want shared (later option wins)", sys.TransportName())
	}
}

func TestPoolKeyIdentityAndDivergence(t *testing.T) {
	base := PoolKey([]int{4, 4}, "federated", 4, "calendar", machine.IPSC2())
	if again := PoolKey([]int{4, 4}, "federated", 4, "calendar", machine.IPSC2()); again != base {
		t.Errorf("equal configurations got distinct keys:\n%s\n%s", base, again)
	}
	// Defaults normalize the way NewSystem applies them: an omitted field
	// and its spelled-out default share a key.
	if PoolKey([]int{2}, "", 0, "", machine.CostModel{}) !=
		PoolKey([]int{2}, "shared", 1, "goroutine", machine.IPSC2()) {
		t.Error("normalized defaults should share a pool key")
	}
	variants := []string{
		PoolKey([]int{4, 4}, "shared", 1, "calendar", machine.IPSC2()),
		PoolKey([]int{16}, "federated", 4, "calendar", machine.IPSC2()),
		PoolKey([]int{4, 4}, "federated", 2, "calendar", machine.IPSC2()),
		PoolKey([]int{4, 4}, "federated", 4, "goroutine", machine.IPSC2()),
		PoolKey([]int{4, 4}, "federated", 4, "calendar", machine.Uniform()),
		PoolKey([]int{4, 4}, "federated", 4, "calendar", machine.IPSC2().WithInterNode(4, 8)),
		PoolKey([]int{4, 4}, "federated", 4, "calendar",
			machine.IPSC2().WithInterNode(4, 8).WithLink(0, 1, machine.LinkCost{Latency: 2, Byte: 2})),
	}
	seen := map[string]bool{base: true}
	for i, v := range variants {
		if seen[v] {
			t.Errorf("variant %d collides with another configuration's key", i)
		}
		seen[v] = true
	}
}

func TestSystemPoolKeyMatchesConfiguration(t *testing.T) {
	sys, err := NewSystem(Grid(4, 2), Transport("federated"), Nodes(2),
		Executor("calendar"), LinkCosts(4, 8))
	if err != nil {
		t.Fatal(err)
	}
	want := PoolKey([]int{4, 2}, "federated", 2, "calendar", machine.IPSC2().WithInterNode(4, 8))
	if got := sys.PoolKey(); got != want {
		t.Errorf("system key\n%s\nwant\n%s", got, want)
	}
	// A default-everything system keys identically to the normalized form.
	plain := MustSystem(Grid(3))
	if plain.PoolKey() != PoolKey([]int{3}, "", 0, "", machine.CostModel{}) {
		t.Error("default system key does not normalize")
	}
}

func TestWarmedCountsCompletedRuns(t *testing.T) {
	sys := MustSystem(Grid(2), Cost(machine.Uniform()))
	if sys.Warmed() || sys.RunCount() != 0 {
		t.Error("fresh system should not report warmed")
	}
	prog := &Program{Name: "noop", Body: func(c *kf.Ctx) (Output, error) {
		return Output{Values: []float64{float64(c.P.Rank())}}, nil
	}}
	if _, err := sys.RunProgram(prog); err != nil {
		t.Fatal(err)
	}
	if !sys.Warmed() || sys.RunCount() != 1 {
		t.Errorf("after one run: warmed=%v count=%d", sys.Warmed(), sys.RunCount())
	}
	if _, err := sys.Run(func(c *kf.Ctx) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if sys.RunCount() != 2 {
		t.Errorf("run count %d, want 2", sys.RunCount())
	}
}

func TestRunAndStats(t *testing.T) {
	sys, err := NewSystem(Grid(4), Cost(machine.Uniform()), Trace())
	if err != nil {
		t.Fatal(err)
	}
	elapsed, err := sys.Run(func(c *kf.Ctx) error {
		a := c.NewArray(darray.Spec{Extents: []int{8}, Dists: []dist.Dist{dist.Block{}}})
		a.Fill(func(idx []int) float64 { return 1 })
		c.P.Compute(10)
		c.Barrier()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if elapsed < 10 {
		t.Errorf("elapsed %v", elapsed)
	}
	if sys.Stats().Flops != 40 {
		t.Errorf("flops %d, want 40", sys.Stats().Flops)
	}
	if sys.Trace == nil || sys.Trace.BusyTime(0) == 0 {
		t.Error("trace not recording")
	}
}

// shiftProgram is a small deterministic program: a halo'd block array, one
// owner-computes shift sweep, gather to rank 0.
func shiftProgram(n int, extraFlops int) *Program {
	return &Program{
		Name: "shift",
		Body: func(c *kf.Ctx) (Output, error) {
			a := c.NewArray(darray.Spec{
				Extents: []int{n},
				Dists:   []dist.Dist{dist.Block{}},
				Halo:    []int{1},
			})
			a.FillOwned(func(idx []int) float64 { return float64(idx[0] * idx[0]) })
			c.Doall1(kf.R(0, n-2), kf.OnOwner1(a), []kf.LoopOpt{kf.Reads(a)},
				func(cc *kf.Ctx, i int) {
					a.Set1(i, a.Old1(i+1))
					cc.P.Compute(1 + extraFlops)
				})
			elapsed := c.AllReduceMax(c.P.Clock())
			flat := a.GatherTo(c.NextScope(), 0)
			var out Output
			out.Elapsed = elapsed
			if c.P.Rank() == 0 {
				out.Values = flat
			}
			return out, nil
		},
	}
}

func TestRunProgramCollectsValuesAndCensus(t *testing.T) {
	sys, err := NewSystem(Grid(4), Cost(machine.Uniform()))
	if err != nil {
		t.Fatal(err)
	}
	run, err := sys.RunProgram(shiftProgram(16, 0))
	if err != nil {
		t.Fatal(err)
	}
	if len(run.Values) != 16 {
		t.Fatalf("values %v", run.Values)
	}
	for i := 0; i < 15; i++ {
		if run.Values[i] != float64((i+1)*(i+1)) {
			t.Errorf("value[%d] = %v", i, run.Values[i])
		}
	}
	if run.Stats.MsgsSent == 0 {
		t.Error("census empty")
	}
	if !(run.Elapsed > 0) || run.Elapsed > run.MachineElapsed {
		t.Errorf("elapsed %v vs machine %v", run.Elapsed, run.MachineElapsed)
	}
	if run.Links != nil {
		t.Error("shared system should have no link census")
	}
}

func TestCompareTransportsIdentical(t *testing.T) {
	shared, err := NewSystem(Grid(4), Cost(machine.Uniform()))
	if err != nil {
		t.Fatal(err)
	}
	fed, err := NewSystem(Grid(4), Transport("federated"), Nodes(2), Cost(machine.Uniform()))
	if err != nil {
		t.Fatal(err)
	}
	cmp, err := Compare(shiftProgram(16, 0), shared, fed)
	if err != nil {
		t.Fatal(err)
	}
	if !cmp.Identical || !cmp.ValuesIdentical || !cmp.CensusIdentical {
		t.Errorf("flat transports must be bit-identical: %+v", cmp)
	}
	if !cmp.TimesIdentical {
		t.Errorf("flat cost model: times must be identical too: %+v", cmp)
	}
	if cmp.B.Links == nil {
		t.Fatal("federated run carries no link census")
	}
	if msgs, bytes := cmp.B.Links.Total(); msgs == 0 || bytes == 0 {
		t.Errorf("2-node federation census empty: %d msgs / %d bytes", msgs, bytes)
	}
	if cmp.A.Links != nil {
		t.Error("shared run should carry no link census")
	}
}

func TestCompareDetectsPerturbedRun(t *testing.T) {
	sysA, err := NewSystem(Grid(4), Cost(machine.Uniform()))
	if err != nil {
		t.Fatal(err)
	}
	sysB, err := NewSystem(Grid(4), Cost(machine.Uniform()))
	if err != nil {
		t.Fatal(err)
	}
	base, err := sysA.RunProgram(shiftProgram(16, 0))
	if err != nil {
		t.Fatal(err)
	}
	// Perturb the computation (extra flops shift the census and times
	// but not the values)...
	perturbed, err := sysB.RunProgram(shiftProgram(16, 3))
	if err != nil {
		t.Fatal(err)
	}
	cmp := CompareRuns(base, perturbed)
	if cmp.Identical || cmp.CensusIdentical || cmp.TimesIdentical {
		t.Errorf("perturbed flop count not detected: %+v", cmp)
	}
	if !cmp.ValuesIdentical {
		t.Error("values should still agree when only compute is perturbed")
	}
	// ...and perturb the problem size (values diverge too).
	sysC, err := NewSystem(Grid(4), Cost(machine.Uniform()))
	if err != nil {
		t.Fatal(err)
	}
	other, err := sysC.RunProgram(shiftProgram(20, 0))
	if err != nil {
		t.Fatal(err)
	}
	cmp = CompareRuns(base, other)
	if cmp.ValuesIdentical || cmp.Identical {
		t.Errorf("perturbed values not detected: %+v", cmp)
	}
}

func TestDirectSchedulingBitIdentical(t *testing.T) {
	sched, err := NewSystem(Grid(4), Cost(machine.IPSC2()))
	if err != nil {
		t.Fatal(err)
	}
	direct, err := NewSystem(Grid(4), Cost(machine.IPSC2()), DirectScheduling())
	if err != nil {
		t.Fatal(err)
	}
	cmp, err := Compare(shiftProgram(16, 0), sched, direct)
	if err != nil {
		t.Fatal(err)
	}
	if !cmp.Identical || !cmp.TimesIdentical {
		t.Errorf("direct derivation must be bit-identical to schedule replay: %+v", cmp)
	}
}

func TestRunProgramErrors(t *testing.T) {
	sys, err := NewSystem(Grid(2), Cost(machine.ZeroComm()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.RunProgram(nil); err == nil {
		t.Error("nil program accepted")
	}
	if _, err := sys.RunProgram(&Program{Name: "empty"}); err == nil {
		t.Error("bodyless program accepted")
	}
}

func TestLinkCensusSub(t *testing.T) {
	fed, err := NewSystem(Grid(4), Transport("federated"), Nodes(2), Cost(machine.ZeroComm()))
	if err != nil {
		t.Fatal(err)
	}
	a, err := fed.RunProgram(shiftProgram(16, 0))
	if err != nil {
		t.Fatal(err)
	}
	b, err := fed.RunProgram(shiftProgram(16, 0))
	if err != nil {
		t.Fatal(err)
	}
	diff := b.Links.Sub(a.Links)
	if diff == nil {
		t.Fatal("Sub returned nil for matching censuses")
	}
	if msgs, bytes := diff.Total(); msgs != 0 || bytes != 0 {
		t.Errorf("identical runs should difference to zero, got %d msgs / %d bytes", msgs, bytes)
	}
	if b.Links.Sub(nil) != nil {
		t.Error("Sub with nil should be nil")
	}
}
