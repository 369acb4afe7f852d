package darray_test

import (
	"testing"

	"repro/internal/darray"
	"repro/internal/dist"
	"repro/internal/kf"
	"repro/internal/machine"
	"repro/internal/topology"
)

// TestPlanCompilationMemoizesNoSections pins that compiling owner-computes
// loop headers asks the array only for grids: the strips' iteration grids
// come from OwnerGrid/SectionGrid, so the array's section memo stays empty
// instead of retaining views for the life of the System.
func TestPlanCompilationMemoizesNoSections(t *testing.T) {
	m := machine.New(6, machine.ZeroComm())
	g := topology.New(2, 3)
	err := kf.Exec(m, g, func(c *kf.Ctx) error {
		x := c.NewArray(darray.Spec{
			Extents: []int{12, 12},
			Dists:   []dist.Dist{dist.Block{}, dist.Block{}},
			Halo:    []int{1, 1},
		})
		c.Plan2(kf.R(1, 10), kf.R(1, 10), kf.OnOwner2(x), kf.Reads(x))
		c.Plan1(kf.R(0, 11), kf.OnOwnerSection(x, 0))
		c.Plan1(kf.R(0, 11), kf.OnOwnerSection(x, 1))
		if n := darray.SectionMemoLen(x); n != 0 {
			t.Errorf("rank %d: compiling loop headers memoized %d section views", c.P.Rank(), n)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
