package fault_test

import (
	"slices"
	"testing"

	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/testutil"
)

// TestRenewalMatchesUnclampedDraw pins the stream to the one-shot draw:
// slot (r, l) of seed s, extended window by window, yields exactly the
// failures ExponentialDrawUnclamped draws for that slot at every horizon.
func TestRenewalMatchesUnclampedDraw(t *testing.T) {
	const logical, degree, seed = 3, 2, 19
	mtbf := 40 * sim.Millisecond
	horizons := []sim.Time{0, 30 * sim.Millisecond, 250 * sim.Millisecond, 250 * sim.Millisecond, sim.Second, 3 * sim.Second}
	streams := make([]fault.Renewal, logical*degree)
	got := make([][]sim.Time, logical*degree)
	for r := 0; r < logical; r++ {
		for l := 0; l < degree; l++ {
			streams[r*degree+l] = fault.NewRenewal(mtbf, seed, r, l)
		}
	}
	for _, h := range horizons {
		want := make([][]sim.Time, logical*degree)
		for _, c := range fault.ExponentialDrawUnclamped(logical, degree, mtbf, h, seed).Schedule.Crashes {
			want[c.Logical*degree+c.Lane] = append(want[c.Logical*degree+c.Lane], c.Time)
		}
		for i := range streams {
			got[i] = streams[i].AppendUntil(got[i], h)
			if !slices.Equal(got[i], want[i]) {
				t.Fatalf("horizon %v slot %d: stream %v, draw %v", h, i, got[i], want[i])
			}
		}
	}
	if len(got[0]) < 10 {
		t.Fatalf("only %d failures in 3 s at a 40 ms MTBF: the test exercises nothing", len(got[0]))
	}
}

// TestExponentialDrawUnclampedAllocBudget pins the draw's allocations:
// per slot, the generator and its source; once, the schedule; and the
// crash list's growth. The per-slot scratch must stay off the heap, and
// sorting must not allocate.
func TestExponentialDrawUnclampedAllocBudget(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation budgets are meaningless under the race detector")
	}
	for _, c := range []struct {
		slots         int
		mtbf, horizon sim.Time
		budget        float64
	}{
		{8, 50 * sim.Millisecond, 300 * sim.Millisecond, 27},
		{8, 50 * sim.Millisecond, 5 * sim.Second, 31},
		{32, 600 * sim.Millisecond, 2 * sim.Second, 76},
		{4, 10 * sim.Second, sim.Second, 9},
	} {
		got := testing.AllocsPerRun(20, func() {
			fault.ExponentialDrawUnclamped(c.slots, 1, c.mtbf, c.horizon, 7)
		})
		if got > c.budget {
			t.Errorf("%d slots, MTBF %v, horizon %v: %v allocs, budget %v", c.slots, c.mtbf, c.horizon, got, c.budget)
		}
	}
}
