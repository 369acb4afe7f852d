package progs_test

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/kf"
)

// TestDeclareOnce pins the paper's "declare once, then replay the data
// motion" on a long-lived System: the first run declares each rank's arrays
// and compiled loop headers, so the second run allocates no more than the
// third (up to run-to-run executor noise); runs 1–3 are bit-identical (values, Stats, elapsed times) to a
// fresh System's run; and a run with changed args replaces the program's
// declaration slot instead of adding one.
func TestDeclareOnce(t *testing.T) {
	cases := []struct {
		name          string
		opts          []core.Option
		prog, changed *core.Program
	}{
		{"jacobi", []core.Option{core.Grid(32, 32), core.Transport("federated"), core.Nodes(4), core.Executor("calendar")},
			mustProg(t, "jacobi", 32, 2), mustProg(t, "jacobi", 16, 2)},
		{"adi", []core.Option{core.Grid(4, 4)},
			mustProg(t, "adi", 16, 1, 1, 0, 2), mustProg(t, "adi", 12, 1, 1, 0, 2)},
		{"madi", []core.Option{core.Grid(4, 4)},
			mustProg(t, "madi", 16, 1, 1, 0, 2), mustProg(t, "madi", 12, 1, 1, 0, 2)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fresh := func(p *core.Program) core.Run {
				run, err := mustSys(t, tc.opts...).RunProgram(p)
				if err != nil {
					t.Fatal(err)
				}
				return run
			}
			same := func(label string, want, got core.Run) {
				t.Helper()
				if c := core.CompareRuns(want, got); !c.Identical || !c.TimesIdentical {
					t.Errorf("%s differs from a fresh System: values %v, census %v, times %v",
						label, c.ValuesIdentical, c.CensusIdentical, c.TimesIdentical)
				}
			}
			want := fresh(tc.prog)
			sys := mustSys(t, tc.opts...)
			var allocs [3]uint64
			for i := range allocs {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				run, err := sys.RunProgram(tc.prog)
				runtime.ReadMemStats(&after)
				if err != nil {
					t.Fatal(err)
				}
				allocs[i] = after.Mallocs - before.Mallocs
				same(fmt.Sprintf("run %d", i+1), want, run)
			}
			// A rebuild on the second run costs what the first run's
			// declarations did, thousands of allocations; the slack of a
			// tenth of that absorbs the few dozen the executor's goroutines
			// and the runtime allocate from run to run.
			if slack := (allocs[0] - allocs[2]) / 10; allocs[1] > allocs[2]+slack {
				t.Errorf("allocs per run %v: the second run allocates more than the third (it rebuilt its declarations)", allocs)
			}
			run, err := sys.RunProgram(tc.changed)
			if err != nil {
				t.Fatal(err)
			}
			same("changed-args run", fresh(tc.changed), run)
			slots := make([]int, sys.Procs.Size())
			if _, err := sys.Run(func(c *kf.Ctx) error {
				slots[c.GridIndex()] = c.Declared()
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			for idx, n := range slots {
				if n != 1 {
					t.Fatalf("rank %d holds %d declaration slots after an args change, want 1", idx, n)
				}
			}
		})
	}
}
