package core

import (
	"testing"

	"repro/internal/perf"
	"repro/internal/replication"
	"repro/internal/testutil"
)

// sectionAllocs runs `sections` intra sections of 8 tasks over a 1 KiB
// output array on a degree-2 logical rank and returns the total allocation
// count; callers difference two lengths to cancel the world and replica
// set-up.
func sectionAllocs(t *testing.T, mode InoutMode, tag ArgTag, sections int) float64 {
	t.Helper()
	return testing.AllocsPerRun(3, func() {
		h := newHarness(t, 1, 2)
		h.sys.Launch("p", func(p *replication.Proc) {
			rt := NewIntra(p, Options{Mode: mode})
			out := make(Float64s, 8*128)
			task := func(c Ctx, args []Value) { c.Compute(perf.Work{Flops: 1000}) }
			for i := 0; i < sections; i++ {
				rt.SectionBegin()
				id := rt.TaskRegister(task, tag)
				for k := 0; k < 8; k++ {
					rt.TaskLaunch(id, out[k*128:(k+1)*128])
				}
				if err := rt.SectionEnd(); err != nil {
					t.Error(err)
					return
				}
			}
		})
		h.run(t)
	})
}

// TestIntraSectionAllocBudget pins the section protocol's steady state:
// task records, ownership, the receive/send/orphan working sets and inout
// snapshots are reused from section to section, update messages return to
// the world pool once applied, and requests never escape. What remains per
// section (both replicas together, about 25) is the caller's boxing of
// each slice argument into a Value (16), the first receive queued on each
// update tag's fresh mpi channel (8), and the amortized growth of the
// channel maps. Before the reuse a section cost about 166 objects.
func TestIntraSectionAllocBudget(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation budgets are meaningless under the race detector")
	}
	const span = 200
	for _, c := range []struct {
		name string
		mode InoutMode
		tag  ArgTag
	}{
		{"out", CopyRestore, Out},
		{"inout-copy", CopyRestore, InOut},
		{"inout-atomic", AtomicApply, InOut},
	} {
		perSection := (sectionAllocs(t, c.mode, c.tag, 20+span) - sectionAllocs(t, c.mode, c.tag, 20)) / span
		t.Logf("%s: allocs per intra section: %.2f", c.name, perSection)
		if perSection > 32 {
			t.Errorf("%s: intra section allocates %.2f objects, budget 32", c.name, perSection)
		}
	}
}
