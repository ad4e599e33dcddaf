package replication

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/mpi"
	"repro/internal/perf"
	"repro/internal/sim"
	"repro/internal/simnet"
)

func testSystem(t *testing.T, logical, degree int, sendLog bool) (*sim.Engine, *System) {
	t.Helper()
	e := sim.New()
	cfg := simnet.Config{
		Latency:        sim.Micros(1),
		Bandwidth:      1e9,
		LocalLatency:   sim.Micros(0.1),
		LocalBandwidth: 1e10,
		CoresPerNode:   2,
	}
	n := logical * degree
	nodes := (n + cfg.CoresPerNode - 1) / cfg.CoresPerNode
	net := simnet.New(e, cfg, nodes)
	w := mpi.NewWorld(e, net, n, perf.Grid5000, nil)
	return e, New(w, Config{Logical: logical, Degree: degree, SendLog: sendLog})
}

func run(t *testing.T, e *sim.Engine) {
	t.Helper()
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestPlacementMapping(t *testing.T) {
	_, s := testSystem(t, 4, 2, false)
	for r := 0; r < 4; r++ {
		for l := 0; l < 2; l++ {
			phys := s.PhysRank(r, l)
			gr, gl := s.LogicalOf(phys)
			if gr != r || gl != l {
				t.Fatalf("roundtrip (%d,%d) -> %d -> (%d,%d)", r, l, phys, gr, gl)
			}
		}
	}
	// Replicas of the same logical rank must be on different nodes.
	w := s.World()
	for r := 0; r < 4; r++ {
		if w.NodeOf(s.PhysRank(r, 0)) == w.NodeOf(s.PhysRank(r, 1)) {
			t.Fatalf("replicas of %d share a node", r)
		}
	}
}

func TestLogicalSendRecvBothLanes(t *testing.T) {
	e, s := testSystem(t, 2, 2, false)
	got := map[string]float64{}
	s.Launch("app", func(p *Proc) {
		if p.Logical == 0 {
			if err := p.Send(1, 5, []float64{float64(10 + p.Lane)}, nil); err != nil {
				t.Errorf("send: %v", err)
			}
		} else {
			msg, err := p.Recv(0, 5)
			if err != nil {
				t.Errorf("recv: %v", err)
				return
			}
			got[fmt.Sprintf("lane%d", p.Lane)] = msg.Data[0]
		}
	})
	run(t, e)
	// Mirrored replication: lane l of rank 1 hears from lane l of rank 0.
	if got["lane0"] != 10 || got["lane1"] != 11 {
		t.Fatalf("got %v", got)
	}
}

func TestLogicalAllreduce(t *testing.T) {
	e, s := testSystem(t, 3, 2, false)
	bad := false
	s.Launch("app", func(p *Proc) {
		v, err := p.AllreduceScalar(mpi.OpSum, float64(p.Logical))
		if err != nil || v != 3 { // 0+1+2
			bad = true
		}
	})
	run(t, e)
	if bad {
		t.Fatal("allreduce wrong")
	}
}

func TestLogicalBarrierAndBcast(t *testing.T) {
	e, s := testSystem(t, 3, 2, false)
	bad := false
	s.Launch("app", func(p *Proc) {
		if err := p.Barrier(); err != nil {
			bad = true
		}
		data := make([]float64, 2)
		if p.Logical == 1 {
			data[0], data[1] = 7, 8
		}
		if err := p.Bcast(1, data); err != nil || data[0] != 7 || data[1] != 8 {
			bad = true
		}
	})
	run(t, e)
	if bad {
		t.Fatal("barrier/bcast wrong")
	}
}

func TestCoverAfterDeath(t *testing.T) {
	e, s := testSystem(t, 2, 2, false)
	s.Launch("app", func(p *Proc) { p.R.Compute(sim.Second) })
	e.At(sim.Millisecond, func() { s.KillReplica(1, 0) })
	run(t, e)
	if s.Alive(1, 0) || !s.Alive(1, 1) {
		t.Fatal("membership wrong")
	}
	if c, ok := s.Cover(1, 0); !ok || c != 1 {
		t.Fatalf("cover = %d, %v", c, ok)
	}
	if c, ok := s.Cover(1, 1); !ok || c != 1 {
		t.Fatalf("cover own lane = %d, %v", c, ok)
	}
	if s.Epoch() != 1 {
		t.Fatalf("epoch = %d", s.Epoch())
	}
}

func TestRecvFailsOverToCover(t *testing.T) {
	// Lane-0 sender dies before sending; its twin covers lane 0, so the
	// lane-0 receiver still gets the message (via send-log-free duplicate
	// sends, because the twin sends after the death).
	e, s := testSystem(t, 2, 2, true)
	var lane0Got float64
	s.Launch("app", func(p *Proc) {
		switch {
		case p.Logical == 0 && p.Lane == 0:
			p.R.Compute(sim.Second) // never sends; killed at 1ms
		case p.Logical == 0 && p.Lane == 1:
			p.R.Compute(10 * sim.Millisecond) // past the death
			if err := p.Send(1, 3, []float64{42}, nil); err != nil {
				t.Errorf("twin send: %v", err)
			}
		case p.Logical == 1 && p.Lane == 0:
			msg, err := p.Recv(0, 3)
			if err != nil {
				t.Errorf("lane0 recv: %v", err)
				return
			}
			lane0Got = msg.Data[0]
		case p.Logical == 1 && p.Lane == 1:
			msg, err := p.Recv(0, 3)
			if err != nil || msg.Data[0] != 42 {
				t.Errorf("lane1 recv: %v %v", msg, err)
			}
		}
	})
	e.At(sim.Millisecond, func() { s.KillReplica(0, 0) })
	run(t, e)
	if lane0Got != 42 {
		t.Fatalf("lane0 got %v, want 42 via cover", lane0Got)
	}
}

func TestSendLogReplayCoversPastMessages(t *testing.T) {
	// The twin already sent seq 1 and 2 before the lane-0 sender died
	// mid-stream; replay must deliver the messages the lane-0 receiver
	// missed, and dedup must drop the ones it already got.
	e, s := testSystem(t, 2, 2, true)
	var got []float64
	s.Launch("app", func(p *Proc) {
		switch {
		case p.Logical == 0 && p.Lane == 0:
			// Send only message 1, then die (killed at 5ms).
			p.Send(1, 9, []float64{1}, nil)
			p.R.Compute(sim.Second)
		case p.Logical == 0 && p.Lane == 1:
			// Send messages 1..3 promptly.
			for i := 1; i <= 3; i++ {
				p.Send(1, 9, []float64{float64(i)}, nil)
			}
		case p.Logical == 1 && p.Lane == 0:
			for i := 0; i < 3; i++ {
				msg, err := p.Recv(0, 9)
				if err != nil {
					t.Errorf("recv %d: %v", i, err)
					return
				}
				got = append(got, msg.Data[0])
			}
		}
	})
	e.At(5*sim.Millisecond, func() { s.KillReplica(0, 0) })
	run(t, e)
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("lane0 received %v, want [1 2 3]", got)
	}
	if s.replayMsgs == 0 {
		t.Fatal("expected replayed messages")
	}
}

func TestCollectivesSurviveDeathAtQuiescence(t *testing.T) {
	// A replica dies between collectives; the covering twin joins the
	// orphaned lane's subsequent collectives.
	e, s := testSystem(t, 3, 2, true)
	bad := false
	s.Launch("app", func(p *Proc) {
		v, err := p.AllreduceScalar(mpi.OpSum, 1)
		if err != nil || v != 3 {
			bad = true
			return
		}
		p.R.Compute(20 * sim.Millisecond) // death happens here (at 10ms)
		v, err = p.AllreduceScalar(mpi.OpSum, 2)
		if err != nil || v != 6 {
			t.Errorf("post-death allreduce: lane %d logical %d: %v %v", p.Lane, p.Logical, v, err)
			bad = true
		}
	})
	e.At(10*sim.Millisecond, func() { s.KillReplica(1, 1) })
	run(t, e)
	if bad {
		t.Fatal("collective results wrong")
	}
}

func TestSendSkipsDeadDestination(t *testing.T) {
	e, s := testSystem(t, 2, 2, false)
	s.Launch("app", func(p *Proc) {
		if p.Logical == 0 {
			p.R.Compute(10 * sim.Millisecond)
			if err := p.Send(1, 1, []float64{5}, nil); err != nil {
				t.Errorf("send: %v", err)
			}
		} else if p.Lane == 1 {
			msg, err := p.Recv(0, 1)
			if err != nil || msg.Data[0] != 5 {
				t.Errorf("recv: %v %v", msg, err)
			}
		} else {
			p.R.Compute(sim.Second) // lane 0 receiver killed at 1ms
		}
	})
	e.At(sim.Millisecond, func() { s.KillReplica(1, 0) })
	run(t, e)
	if s.deadDrops == 0 {
		t.Fatal("expected sends to dead replica to be dropped")
	}
}

func TestLogicalRankLost(t *testing.T) {
	e, s := testSystem(t, 2, 2, false)
	var gotErr error
	s.Launch("app", func(p *Proc) {
		if p.Logical == 0 {
			p.R.Compute(sim.Second)
			return
		}
		p.R.Compute(10 * sim.Millisecond)
		_, gotErr = p.Recv(0, 0)
	})
	e.At(sim.Millisecond, func() {
		s.KillReplica(0, 0)
		s.KillReplica(0, 1)
	})
	run(t, e)
	if _, ok := gotErr.(*LogicalRankLostError); !ok {
		t.Fatalf("err = %v, want LogicalRankLostError", gotErr)
	}
	if gotErr.Error() == "" {
		t.Fatal("empty error string")
	}
}

func TestReplicaCommIsPerLogicalRank(t *testing.T) {
	_, s := testSystem(t, 3, 2, false)
	for r := 0; r < 3; r++ {
		c := s.ReplicaComm(r)
		if c.Size() != 2 {
			t.Fatalf("replica comm size = %d", c.Size())
		}
		for l := 0; l < 2; l++ {
			if c.WorldRank(l) != s.PhysRank(r, l) {
				t.Fatalf("replica comm member mismatch")
			}
		}
	}
}

func TestDegreeOneDegeneratesToNative(t *testing.T) {
	e, s := testSystem(t, 4, 1, false)
	bad := false
	s.Launch("app", func(p *Proc) {
		v, err := p.AllreduceScalar(mpi.OpSum, 1)
		if err != nil || v != 4 {
			bad = true
		}
		if p.Logical < 3 {
			p.Send(p.Logical+1, 0, []float64{float64(p.Logical)}, nil)
		}
		if p.Logical > 0 {
			msg, err := p.Recv(p.Logical-1, 0)
			if err != nil || msg.Data[0] != float64(p.Logical-1) {
				bad = true
			}
		}
	})
	run(t, e)
	if bad {
		t.Fatal("degree-1 system misbehaved")
	}
}

func TestOnReplicaDeathCallback(t *testing.T) {
	e, s := testSystem(t, 2, 2, false)
	var deaths [][2]int
	s.OnReplicaDeath(func(r, l int) { deaths = append(deaths, [2]int{r, l}) })
	s.Launch("app", func(p *Proc) { p.R.Compute(10 * sim.Millisecond) })
	e.At(sim.Millisecond, func() { s.KillReplica(1, 1) })
	run(t, e)
	if len(deaths) != 1 || deaths[0] != [2]int{1, 1} {
		t.Fatalf("deaths = %v", deaths)
	}
}

// Property: under a random one-replica crash at a random time, a stream of
// sequenced messages from logical 0 to logical 1 is received by every
// surviving replica of rank 1 exactly once, in order, gap-free.
func TestStreamDeliveryUnderCrashProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const nMsgs = 8
		e, s := testSystem(t, 2, 2, true)
		recvd := map[int][]float64{}
		s.Launch("app", func(p *Proc) {
			if p.Logical == 0 {
				for i := 1; i <= nMsgs; i++ {
					p.Send(1, 4, []float64{float64(i)}, nil)
					p.R.Compute(sim.Millisecond)
				}
			} else {
				for i := 0; i < nMsgs; i++ {
					msg, err := p.Recv(0, 4)
					if err != nil {
						return
					}
					recvd[p.Lane] = append(recvd[p.Lane], msg.Data[0])
				}
			}
		})
		// Crash one random replica of logical 0 at a random time inside the
		// sending window.
		lane := rng.Intn(2)
		at := sim.Time(rng.Int63n(int64(nMsgs * int(sim.Millisecond))))
		e.At(at, func() { s.KillReplica(0, lane) })
		if err := e.Run(); err != nil {
			return false
		}
		for l := 0; l < 2; l++ {
			if len(recvd[l]) != nMsgs {
				return false
			}
			for i, v := range recvd[l] {
				if v != float64(i+1) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestCollectiveAfterLowerLaneDeath(t *testing.T) {
	// Regression: when lane 0 dies, the lane-1 survivor covers lane 0 and
	// runs lane 0's collective *before* its own; the covered lane's result
	// must not pollute the survivor's own contribution.
	e, s := testSystem(t, 3, 2, true)
	bad := false
	s.Launch("app", func(p *Proc) {
		p.R.Compute(20 * sim.Millisecond) // death of (0,0) happens at 10ms
		v, err := p.AllreduceScalar(mpi.OpSum, 2)
		if err != nil || v != 6 {
			t.Errorf("allreduce after lane-0 death: lane %d logical %d: %v %v",
				p.Lane, p.Logical, v, err)
			bad = true
		}
	})
	e.At(10*sim.Millisecond, func() { s.KillReplica(0, 0) })
	run(t, e)
	if bad {
		t.Fatal("collective results wrong")
	}
}

func TestLogicalReduce(t *testing.T) {
	e, s := testSystem(t, 4, 2, false)
	var rootVals []float64
	s.Launch("app", func(p *Proc) {
		data := []float64{float64(p.Logical + 1)}
		if err := p.Reduce(2, mpi.OpSum, data); err != nil {
			t.Errorf("reduce: %v", err)
			return
		}
		if p.Logical == 2 {
			rootVals = append(rootVals, data[0])
		}
	})
	run(t, e)
	if len(rootVals) != 2 || rootVals[0] != 10 || rootVals[1] != 10 {
		t.Fatalf("root values = %v, want [10 10] (both replicas)", rootVals)
	}
}

// TestCrashMidCollective kills a replica while an allreduce is in flight:
// the tree messages it already sent were mirrored per lane, the missing
// ones are replayed by its twin, and every survivor still gets the sum.
func TestCrashMidCollective(t *testing.T) {
	for lane := 0; lane < 2; lane++ {
		for victim := 0; victim < 4; victim++ {
			e, s := testSystem(t, 4, 2, true)
			bad := false
			s.Launch("app", func(p *Proc) {
				// Stagger entries so the kill lands while the tree is active.
				p.R.Compute(sim.Time(p.Logical) * sim.Microsecond)
				v, err := p.AllreduceScalar(mpi.OpSum, float64(p.Logical+1))
				if err != nil {
					t.Errorf("victim=%d lane=%d: logical %d lane %d: %v",
						victim, lane, p.Logical, p.Lane, err)
					return
				}
				if v != 10 {
					bad = true
				}
			})
			// Somewhere inside the staggered allreduce window.
			e.At(2*sim.Microsecond, func() { s.KillReplica(victim, lane) })
			run(t, e)
			if bad {
				t.Fatalf("victim=%d lane=%d: wrong allreduce result", victim, lane)
			}
		}
	}
}

// TestBcastSurvivesRootReplicaCrash kills one replica of the broadcast
// root mid-run.
func TestBcastSurvivesRootReplicaCrash(t *testing.T) {
	e, s := testSystem(t, 4, 2, true)
	bad := false
	s.Launch("app", func(p *Proc) {
		p.R.Compute(sim.Time(p.Logical) * sim.Microsecond)
		data := make([]float64, 3)
		if p.Logical == 0 {
			data[0], data[1], data[2] = 5, 6, 7
		}
		if err := p.Bcast(0, data); err != nil {
			t.Errorf("bcast: logical %d lane %d: %v", p.Logical, p.Lane, err)
			return
		}
		if data[0] != 5 || data[2] != 7 {
			bad = true
		}
	})
	e.At(sim.Microsecond, func() { s.KillReplica(0, 0) })
	run(t, e)
	if bad {
		t.Fatal("bcast data wrong after root replica crash")
	}
}

// Property: a random replica crash at a random time during a run of many
// staggered allreduces never changes any survivor's results.
func TestAllreduceStreamUnderCrashProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		logical := rng.Intn(5) + 2
		victim := rng.Intn(logical)
		lane := rng.Intn(2)
		at := sim.Time(rng.Int63n(int64(300 * sim.Microsecond)))
		e, s := testSystem(t, logical, 2, true)
		ok := true
		s.Launch("app", func(p *Proc) {
			for i := 1; i <= 5; i++ {
				p.R.Compute(sim.Time(p.Logical+1) * sim.Microsecond)
				v, err := p.AllreduceScalar(mpi.OpSum, float64(i))
				if err != nil {
					ok = false
					return
				}
				if v != float64(i*logical) {
					ok = false
					return
				}
			}
		})
		e.At(at, func() { s.KillReplica(victim, lane) })
		if err := e.Run(); err != nil {
			return false
		}
		return ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
