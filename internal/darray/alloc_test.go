package darray

import (
	"testing"

	"repro/internal/dist"
	"repro/internal/machine"
	"repro/internal/topology"
)

// The runtime's hot paths must not allocate in steady state: element access
// goes through cached per-dimension offsets, and halo exchange packs into
// pooled message buffers that the receiver releases. These tests pin that
// property with testing.AllocsPerRun so a regression fails loudly instead
// of silently bloating every simulated program.

func TestAt2Set2ZeroAllocs(t *testing.T) {
	m := machine.New(1, machine.ZeroComm())
	g := topology.New(1, 1)
	err := m.Run(func(p *machine.Proc) error {
		a := New(p, g, Spec{
			Extents: []int{32, 32},
			Dists:   []dist.Dist{dist.Block{}, dist.Block{}},
			Halo:    []int{1, 1},
		})
		a.Fill(func(idx []int) float64 { return float64(idx[0] + idx[1]) })
		sink := 0.0
		avg := testing.AllocsPerRun(200, func() {
			for i := 1; i < 31; i++ {
				for j := 1; j < 31; j++ {
					sink += a.At2(i-1, j) + a.At2(i+1, j)
					a.Set2(i, j, sink)
				}
			}
		})
		if avg != 0 {
			t.Errorf("At2/Set2 sweep: %v allocs per run, want 0", avg)
		}
		_ = sink
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAt1Set1SectionZeroAllocs(t *testing.T) {
	m := machine.New(1, machine.ZeroComm())
	g := topology.New(1, 1)
	err := m.Run(func(p *machine.Proc) error {
		a := New(p, g, Spec{
			Extents: []int{16, 16},
			Dists:   []dist.Dist{dist.Block{}, dist.Block{}},
		})
		a.Zero()
		row := a.Section(0, 3)
		sink := 0.0
		avg := testing.AllocsPerRun(200, func() {
			for j := 0; j < 16; j++ {
				row.Set1(j, sink)
				sink += row.At1(j)
			}
		})
		if avg != 0 {
			t.Errorf("section At1/Set1 sweep: %v allocs per run, want 0", avg)
		}
		_ = sink
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestExchangeHaloZeroAllocsSteadyState(t *testing.T) {
	// Both processors run warm+runs+1 exchanges on one fixed scope
	// (repeated tags match FIFO per stream). Rank 0 measures the last
	// runs+1 of them; rank 1 mirrors them outside the measurement.
	// AllocsPerRun counts process-global allocations, so rank 1
	// allocating would fail the test too — which is exactly the
	// property under test, on both sides.
	const warm, runs = 8, 50
	m := machine.New(2, machine.ZeroComm())
	g := topology.New1D(2)
	sc := machine.RootScope()
	err := m.Run(func(p *machine.Proc) error {
		a := New(p, g, Spec{
			Extents: []int{64, 64},
			Dists:   []dist.Dist{dist.Star{}, dist.Block{}},
			Halo:    []int{0, 2},
		})
		a.Fill(func(idx []int) float64 { return float64(idx[0]*64 + idx[1]) })
		for i := 0; i < warm; i++ {
			a.ExchangeHalo(sc)
		}
		if p.Rank() == 0 {
			avg := testing.AllocsPerRun(runs, func() { a.ExchangeHalo(sc) })
			if avg != 0 {
				t.Errorf("warmed ExchangeHalo: %v allocs per run, want 0", avg)
			}
		} else {
			for i := 0; i < runs+1; i++ {
				a.ExchangeHalo(sc)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestExchangeHalo2DZeroAllocsSteadyState(t *testing.T) {
	// The 2-D version exercises strided (non-innermost) plane packing.
	const warm, runs = 8, 30
	m := machine.New(4, machine.ZeroComm())
	g := topology.New(2, 2)
	sc := machine.RootScope()
	err := m.Run(func(p *machine.Proc) error {
		a := New(p, g, Spec{
			Extents: []int{32, 32},
			Dists:   []dist.Dist{dist.Block{}, dist.Block{}},
			Halo:    []int{1, 1},
		})
		a.Fill(func(idx []int) float64 { return float64(idx[0] + idx[1]) })
		for i := 0; i < warm; i++ {
			a.ExchangeHalo(sc)
		}
		if p.Rank() == 0 {
			avg := testing.AllocsPerRun(runs, func() { a.ExchangeHalo(sc) })
			if avg != 0 {
				t.Errorf("warmed 2-D ExchangeHalo: %v allocs per run, want 0", avg)
			}
		} else {
			for i := 0; i < runs+1; i++ {
				a.ExchangeHalo(sc)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestExchangeHaloRunBasedMatchesReference cross-checks the run-based
// pack/unpack against a straightforward per-cell reference on an uneven
// 3-D section-free layout, so the copy-based fast path cannot silently
// reorder values.
func TestExchangeHaloRunBasedMatchesReference(t *testing.T) {
	m := machine.New(4, machine.ZeroComm())
	g := topology.New(2, 2)
	sc := machine.RootScope()
	err := m.Run(func(p *machine.Proc) error {
		a := New(p, g, Spec{
			Extents: []int{5, 13, 11},
			Dists:   []dist.Dist{dist.Star{}, dist.Block{}, dist.Block{}},
			Halo:    []int{0, 2, 1},
		})
		a.Fill(func(idx []int) float64 {
			return float64(idx[0]*10000 + idx[1]*100 + idx[2])
		})
		a.ExchangeHalo(sc)
		for i := 0; i < 5; i++ {
			for j := a.Lower(1) - 2; j <= a.Upper(1)+2; j++ {
				if j < 0 || j > 12 {
					continue
				}
				jGhost := j < a.Lower(1) || j > a.Upper(1)
				for k := a.Lower(2) - 1; k <= a.Upper(2)+1; k++ {
					if k < 0 || k > 10 {
						continue
					}
					kGhost := k < a.Lower(2) || k > a.Upper(2)
					if jGhost && kGhost {
						continue // corner ghosts are not exchanged
					}
					want := float64(i*10000 + j*100 + k)
					if got := a.At3(i, j, k); got != want {
						t.Errorf("rank %d: At(%d,%d,%d) = %v, want %v", p.Rank(), i, j, k, got, want)
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestGridLookupsZeroAllocs pins OwnerGrid and SectionGrid at zero
// allocations once the per-processor grid-slice cache holds their slices:
// they answer from that cache without building any view. Each lookup must
// return the very grid the memoized section chain reports, and must leave
// the array's section memo empty.
func TestGridLookupsZeroAllocs(t *testing.T) {
	g := topology.New(2, 3)
	specs := []Spec{
		{Extents: []int{6, 9}, Dists: []dist.Dist{dist.Block{}, dist.Block{}}},
		{Extents: []int{6, 4, 9}, Dists: []dist.Dist{dist.Block{}, dist.Star{}, dist.Cyclic{}}},
	}
	var rank0 []*Array
	run(t, 6, func(p *machine.Proc) error {
		for _, spec := range specs {
			a, ref := New(p, g, spec), New(p, g, spec)
			ext := spec.Extents
			for i := 0; i < ext[0]; i++ {
				if got, want := a.SectionGrid(0, i), ref.Section(0, i).Grid(); got != want {
					t.Errorf("rank %d: SectionGrid(0, %d) = %v, want %v", p.Rank(), i, got, want)
				}
				for j := 0; j < ext[1]; j++ {
					if len(ext) == 2 {
						if got, want := a.OwnerGrid(i, j), ref.Section(0, i).Section(0, j).Grid(); got != want {
							t.Errorf("rank %d: OwnerGrid(%d, %d) = %v, want %v", p.Rank(), i, j, got, want)
						}
						continue
					}
					for k := 0; k < ext[2]; k++ {
						if got, want := a.OwnerGrid(i, j, k), ref.Section(0, i).Section(0, j).Section(0, k).Grid(); got != want {
							t.Errorf("rank %d: OwnerGrid(%d, %d, %d) = %v, want %v", p.Rank(), i, j, k, got, want)
						}
					}
				}
			}
			for j := 0; j < ext[len(ext)-1]; j++ {
				if got, want := a.SectionGrid(len(ext)-1, j), ref.Section(len(ext)-1, j).Grid(); got != want {
					t.Errorf("rank %d: SectionGrid(%d, %d) = %v, want %v", p.Rank(), len(ext)-1, j, got, want)
				}
			}
			if n := len(a.secs); n != 0 {
				t.Errorf("rank %d: grid lookups memoized %d section views", p.Rank(), n)
			}
			if p.Rank() == 0 {
				rank0 = append(rank0, a)
			}
		}
		return nil
	})
	// Measured after the run, on one goroutine, so no other simulated
	// processor's work is counted.
	a2, a3 := rank0[0], rank0[1]
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 6; i++ {
			a2.SectionGrid(0, i)
			a3.SectionGrid(0, i)
			for j := 0; j < 9; j++ {
				a2.OwnerGrid(i, j)
				a3.OwnerGrid(i, j%4, j)
				a2.SectionGrid(1, j)
				a3.SectionGrid(2, j)
			}
		}
	})
	if allocs != 0 {
		t.Errorf("warm OwnerGrid/SectionGrid: %v allocs, want 0", allocs)
	}
}
