package mpi

import (
	"testing"

	"repro/internal/perf"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/testutil"
)

// pingPongAllocs runs a two-rank ping-pong of the given length in a fresh
// world and returns the total allocation count. Callers difference two
// lengths so the fixed setup cost (engine, world, goroutines) cancels out.
func pingPongAllocs(t *testing.T, rounds int) float64 {
	t.Helper()
	return testing.AllocsPerRun(3, func() {
		e := sim.New()
		net := simnet.New(e, simnet.InfiniBand20G, 1)
		w := NewWorld(e, net, 2, perf.Grid5000, nil)
		payload := make([]float64, 16)
		w.Launch("a", 0, func(r *Rank) {
			for i := 0; i < rounds; i++ {
				if err := r.Send(r.World(), 1, 0, payload, nil); err != nil {
					t.Error(err)
					return
				}
				msg, err := r.Recv(r.World(), 1, 1)
				if err != nil {
					t.Error(err)
					return
				}
				w.RecycleMessage(msg)
			}
		})
		w.Launch("b", 1, func(r *Rank) {
			for i := 0; i < rounds; i++ {
				msg, err := r.Recv(r.World(), 0, 0)
				if err != nil {
					t.Error(err)
					return
				}
				w.RecycleMessage(msg)
				if err := r.Send(r.World(), 0, 1, payload, nil); err != nil {
					t.Error(err)
					return
				}
			}
		})
		if err := e.Run(); err != nil {
			t.Error(err)
		}
	})
}

// TestPingPongAllocBudget pins the allocation-free p2p hot path. Blocking
// Send copies into a pooled message, the receiver hands the consumed message
// back via RecycleMessage, and requests, transfer nodes and channel states
// all cycle through the world pools — so a steady-state round allocates
// nothing beyond amortized pool slab refills. The pre-refactor engine spent
// ~40 allocations per round and the copying Send 4; the budget fails CI if
// the hot path regresses toward either.
func TestPingPongAllocBudget(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation budgets are meaningless under the race detector")
	}
	const span = 1000
	perRound := (pingPongAllocs(t, 100+span) - pingPongAllocs(t, 100)) / span
	t.Logf("allocs per ping-pong round: %.2f", perRound)
	if perRound > 1 {
		t.Fatalf("ping-pong round allocates %.2f objects, budget 1", perRound)
	}
}

// collAllocs runs `rounds` back-to-back collectives on an n-rank world and
// returns the total allocation count. As with pingPongAllocs, callers
// difference two round counts so world construction and the pool's warm-up
// rounds cancel out and only the steady-state per-operation cost remains.
func collAllocs(t *testing.T, n, rounds int, op func(r *Rank, buf []float64) error) float64 {
	t.Helper()
	return testing.AllocsPerRun(3, func() {
		e := sim.New()
		net := simnet.New(e, simnet.InfiniBand20G, n)
		w := NewWorld(e, net, n, perf.Grid5000, nil)
		w.LaunchAll("coll", func(r *Rank) {
			buf := make([]float64, 8)
			for i := 0; i < rounds; i++ {
				if err := op(r, buf); err != nil {
					t.Error(err)
					return
				}
			}
		})
		if err := e.Run(); err != nil {
			t.Error(err)
		}
	})
}

// TestCollectiveAllocBudgets pins the pooled collective state machines:
// once the scratch pools are warm, a whole barrier, broadcast or allreduce
// must cost at most a handful of allocations per rank per operation. The
// blocking pre-refactor implementation spent hundreds per allreduce-64;
// the budget of 8 allocs/op (the acceptance bar for allreduce-64) keeps
// the event-driven rewrite honest at both ends of the size range.
func TestCollectiveAllocBudgets(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation budgets are meaningless under the race detector")
	}
	cases := []struct {
		name string
		n    int
		op   func(r *Rank, buf []float64) error
	}{
		{"barrier-8", 8, func(r *Rank, _ []float64) error { return r.Barrier(r.World()) }},
		{"barrier-64", 64, func(r *Rank, _ []float64) error { return r.Barrier(r.World()) }},
		{"bcast-8", 8, func(r *Rank, buf []float64) error { return r.Bcast(r.World(), 0, buf) }},
		{"bcast-64", 64, func(r *Rank, buf []float64) error { return r.Bcast(r.World(), 0, buf) }},
		{"allreduce-8", 8, func(r *Rank, buf []float64) error { return r.Allreduce(r.World(), OpSum, buf) }},
		{"allreduce-64", 64, func(r *Rank, buf []float64) error { return r.Allreduce(r.World(), OpSum, buf) }},
		{"allreduce-512", 512, func(r *Rank, buf []float64) error { return r.Allreduce(r.World(), OpSum, buf) }},
	}
	const span = 60
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rounds := 20
			if tc.n >= 512 {
				// The big world warms its pools in fewer rounds and each op
				// costs ~1 ms; keep the differencing window affordable.
				rounds = 5
			}
			perOp := (collAllocs(t, tc.n, rounds+span, tc.op) - collAllocs(t, tc.n, rounds, tc.op)) / span
			perRankOp := perOp / float64(tc.n)
			t.Logf("%s: %.2f allocs per collective (%.3f per rank)", tc.name, perOp, perRankOp)
			if perRankOp > 1 {
				t.Fatalf("%s allocates %.2f objects per rank per op, budget 1", tc.name, perRankOp)
			}
		})
	}
}

// deadSendAllocs has rank 0 post `sends` sized sends to rank 1 after rank
// 1 has crashed, waiting on each, and returns the total allocation count.
func deadSendAllocs(t *testing.T, sends int) float64 {
	t.Helper()
	return testing.AllocsPerRun(3, func() {
		e := sim.New()
		net := simnet.New(e, simnet.InfiniBand20G, 2)
		w := NewWorld(e, net, 2, perf.Grid5000, nil)
		payload := make([]float64, 16)
		w.Launch("a", 0, func(r *Rank) {
			r.Compute(sim.Microsecond) // let rank 1 crash first
			for i := 0; i < sends; i++ {
				if _, err := r.WaitOwned(r.IsendSized(r.World(), 1, 0, payload, nil, 1<<20)); err != nil {
					t.Error(err)
					return
				}
			}
		})
		w.Launch("b", 1, func(r *Rank) { r.Crash() })
		if err := e.Run(); err != nil {
			t.Error(err)
		}
	})
}

// TestDeadDestinationSendAllocBudget: a send to a crashed rank still costs
// the sender its NIC time, but the message itself vanishes, so none is
// built. What remains per send is IsendSized's defensive payload copy.
func TestDeadDestinationSendAllocBudget(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation budgets are meaningless under the race detector")
	}
	const span = 400
	perSend := (deadSendAllocs(t, 100+span) - deadSendAllocs(t, 100)) / span
	t.Logf("allocs per send to a dead rank: %.2f", perSend)
	if perSend > 1.1 {
		t.Fatalf("send to a dead rank allocates %.2f objects, budget 1.1 (the payload copy)", perSend)
	}
}
