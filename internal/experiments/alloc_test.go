package experiments

import (
	"testing"

	"repro/internal/apps/gtc"
	"repro/internal/fault"
	"repro/internal/mpi"
	"repro/internal/sim"
	"repro/internal/testutil"
)

// rerunAllocs runs spec s `times` times on one pooled engine and scratch
// and returns the total allocation count. Differencing two counts cancels
// engine construction and pool warm-up, leaving the steady-state cost of
// one full spec rerun (world build, replica launch, application run,
// reclaim).
func rerunAllocs(t *testing.T, s Spec, times int) float64 {
	t.Helper()
	return testing.AllocsPerRun(2, func() {
		eng := sim.NewPooled()
		defer eng.Shutdown()
		sc := mpi.NewScratch()
		for i := 0; i < times; i++ {
			eng.Reset()
			if _, err := runSpec(eng, sc, s); err != nil {
				t.Error(err)
				return
			}
		}
	})
}

// TestPooledRerunAllocBudget pins the pooled-runner path: once the worker's
// engine and scratch are warm, each additional spec rerun must reuse the
// event nodes, goroutines, channel states and message buffers of its
// predecessors. Before engine pooling a rerun of this spec allocated well
// over 100k objects; the 8000 budget holds the steady state an order of
// magnitude below that so a pool regression (a Reclaim path dropped, a
// freelist bypassed) fails loudly rather than melting into GC noise.
func TestPooledRerunAllocBudget(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation budgets are meaningless under the race detector")
	}
	s := Spec{Name: "rerun", Mode: Classic, Logical: 4, App: HPCCG(smallHPCCG(2))}
	const span = 6
	perRun := (rerunAllocs(t, s, 2+span) - rerunAllocs(t, s, 2)) / span
	t.Logf("allocs per pooled spec rerun: %.0f", perRun)
	if perRun > 8000 {
		t.Fatalf("pooled spec rerun allocates %.0f objects, budget 8000", perRun)
	}
}

// TestPooledIntraRerunAllocBudget pins a crashed intra trial on a warm
// worker, the unit of an intra failure campaign: on top of the pooled
// engine and scratch, the trial's GTC replicas re-initialize start states
// their predecessors returned to the binding, the section protocol reuses
// its task records and working sets, and update messages cycle through the
// world pool. Before that reuse such a rerun allocated about 3000 objects;
// it now takes about 1450, most of them the application's boxing of task
// arguments into Values.
func TestPooledIntraRerunAllocBudget(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation budgets are meaningless under the race detector")
	}
	cfg := gtc.PaperConfig()
	cfg.Steps = 3
	d := fault.ExponentialDraw(4, 2, sim.Seconds(0.0005), sim.Seconds(0.0008), fault.TrialSeed(3, 0, 0))
	if len(d.Schedule.Crashes) == 0 {
		t.Fatal("the draw crashes nothing; pick another seed")
	}
	s := Spec{Name: "intra-rerun", Mode: Intra, Logical: 4, App: GTC(cfg), Fault: d.Schedule}
	const span = 6
	perRun := (rerunAllocs(t, s, 2+span) - rerunAllocs(t, s, 2)) / span
	t.Logf("allocs per pooled faulty intra rerun: %.0f", perRun)
	if perRun > 2000 {
		t.Fatalf("pooled faulty intra rerun allocates %.0f objects, budget 2000", perRun)
	}
}

// TestReplayedIntraRerunAllocBudget pins the trial a campaign actually
// runs: the faulty GTC intra spec of TestPooledIntraRerunAllocBudget
// replayed from its recording on a warm worker. The section protocol still
// runs for real, but no application state is built and no argument boxed:
// the recorded sized stand-ins and charging bodies are shared by every
// replay, so a launch allocates nothing. It measures about 410 objects,
// against about 1450 for the executed rerun; what is left is the world,
// the replicas and their runners' section storage.
func TestReplayedIntraRerunAllocBudget(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation budgets are meaningless under the race detector")
	}
	cfg := gtc.PaperConfig()
	cfg.Steps = 3
	d := fault.ExponentialDraw(4, 2, sim.Seconds(0.0005), sim.Seconds(0.0008), fault.TrialSeed(3, 0, 0))
	s := Spec{Name: "intra-replay", Mode: Intra, Logical: 4, App: GTC(cfg)}
	ts, err := RecordTraces(s)
	if err != nil {
		t.Fatal(err)
	}
	s.Fault, s.Replay = d.Schedule, ts
	const span = 6
	perRun := (rerunAllocs(t, s, 2+span) - rerunAllocs(t, s, 2)) / span
	t.Logf("allocs per pooled faulty replayed intra rerun: %.0f", perRun)
	if perRun > 500 {
		t.Fatalf("pooled faulty replayed intra rerun allocates %.0f objects, budget 500", perRun)
	}
}
