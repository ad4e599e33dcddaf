package core

import (
	"fmt"
	"testing"

	"repro/internal/mpi"
	"repro/internal/perf"
	"repro/internal/replication"
	"repro/internal/sim"
	"repro/internal/simnet"
)

// traceProgram exercises every recorded operation kind on 2 logical ranks:
// back-to-back outside compute charges, a point-to-point exchange, sections
// whose task bodies charge several times each over a scaled inout and an
// out argument, a compute charge inside a section before any task runs, an
// allreduce and a barrier.
func traceProgram(rt Runner) error {
	data := make(Float64s, 32)
	part := make(Float64s, 4)
	peer := 1 - rt.LogicalRank()
	for step := 0; step < 4; step++ {
		rt.Compute(perf.Work{Flops: 1e4})
		rt.Compute(perf.Work{Bytes: 1e4})
		if err := exchange(rt, peer, step, data); err != nil {
			return err
		}
		rt.SectionBegin()
		rt.Compute(perf.Work{Flops: 500})
		inc := rt.TaskRegister(func(c Ctx, args []Value) {
			v := args[0].(scaledValue).Value.(Float64s)
			for i := range v {
				v[i] = 2*v[i] + 1
			}
			c.Compute(perf.Work{Flops: 2e4})
			c.Compute(perf.Work{Bytes: 3e4})
		}, InOut)
		sum := rt.TaskRegister(func(c Ctx, args []Value) {
			v := args[1].(Float64s)
			s := 0.0
			for _, x := range v {
				s += x
			}
			args[0].(Float64s)[0] = s
			c.Compute(perf.Work{Flops: 1e4})
			c.Compute(perf.Work{Flops: 1e4})
			c.Compute(perf.Work{Bytes: 1e4})
		}, Out, In)
		for k := 0; k < 4; k++ {
			rt.TaskLaunch(inc, Scaled(data[8*k:8*(k+1)], 16))
			rt.TaskLaunch(sum, part[k:k+1], data[8*k:8*(k+1)])
		}
		if err := rt.SectionEnd(); err != nil {
			return err
		}
		if _, err := rt.AllreduceScalar(mpi.OpSum, part[0]); err != nil {
			return err
		}
	}
	return rt.Barrier()
}

// exchange is rank 0 sending to rank 1, then rank 1 answering with a
// message of a larger modeled size.
func exchange(rt Runner, peer, tag int, data []float64) error {
	if rt.LogicalRank() == 0 {
		if err := rt.Send(peer, tag, data[:8]); err != nil {
			return err
		}
		_, err := rt.Recv(peer, tag)
		return err
	}
	if _, err := rt.Recv(peer, tag); err != nil {
		return err
	}
	return rt.SendSized(peer, tag, data[:2], 4096)
}

var traceNet = simnet.Config{
	Latency:        sim.Micros(1),
	Bandwidth:      1e9,
	LocalLatency:   sim.Micros(0.1),
	LocalBandwidth: 1e10,
	CoresPerNode:   2,
}

// recordTraceProgram records traceProgram on 2 native ranks.
func recordTraceProgram(t *testing.T) *TraceSet {
	t.Helper()
	e := sim.New()
	w := mpi.NewWorld(e, simnet.New(e, traceNet, 1), 2, perf.Grid5000, nil)
	ts := NewTraceSet(2)
	w.LaunchAll("native", func(r *mpi.Rank) {
		rt := NewNative(r)
		tr, err := StartRecording(rt, true)
		if err != nil {
			t.Error(err)
			return
		}
		if err := traceProgram(rt); err != nil {
			t.Error(err)
			return
		}
		ts.Commit(rt.LogicalRank(), tr, 0)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !ts.Complete() {
		t.Fatal("recording left ranks without a trace")
	}
	return ts
}

// tracedRun is one run of traceProgram (or its replay) on 2 logical ranks
// of degree 2: the wall time, the engine event count and the Stats of
// every replica that finished.
type tracedRun struct {
	wall   sim.Time
	events uint64
	stats  string
}

func runTraced(t *testing.T, intra bool, mode InoutMode, kill sim.Time, program func(rt Runner) error) tracedRun {
	t.Helper()
	h := newHarness(t, 2, 2)
	stats := map[[2]int]Stats{}
	h.sys.Launch("app", func(p *replication.Proc) {
		var rt Runner = NewClassic(p)
		if intra {
			rt = NewIntra(p, Options{Mode: mode})
		}
		if err := program(rt); err != nil {
			t.Errorf("replica (%d,%d): %v", p.Logical, p.Lane, err)
			return
		}
		stats[[2]int{p.Logical, p.Lane}] = *rt.Stats()
	})
	if kill > 0 {
		h.e.At(kill, func() { h.sys.KillReplica(0, 1) })
	}
	h.run(t)
	return tracedRun{wall: h.e.Now(), events: h.e.Stats().Events, stats: fmt.Sprint(stats)}
}

// TestReplayMatchesExecutionAllOps replays a recording of traceProgram on
// the intra engine, fault-free and with a replica killed at instants
// spread over the run, in both inout modes: wall time, event count and
// every replica's Stats must equal the executed program's. Task bodies
// that charge more than once pin that a replay charges task by task and
// charge by charge, and the charge between SectionBegin and the first
// launch pins its place in the section. A sectioned trace replays just as
// exactly on the classic engine.
func TestReplayMatchesExecutionAllOps(t *testing.T) {
	ts := recordTraceProgram(t)
	replay := func(rt Runner) error { _, err := Replay(rt, ts); return err }
	ref := runTraced(t, true, CopyRestore, 0, traceProgram)
	for _, mode := range []InoutMode{CopyRestore, AtomicApply} {
		for k := 0; k < 8; k++ {
			kill := ref.wall * sim.Time(k) / 7
			exec := runTraced(t, true, mode, kill, traceProgram)
			rep := runTraced(t, true, mode, kill, replay)
			if exec != rep {
				t.Errorf("%s, kill at %v: executed %+v\nreplayed %+v", mode, kill, exec, rep)
			}
		}
	}
	if exec, rep := runTraced(t, false, 0, 0, traceProgram), runTraced(t, false, 0, 0, replay); exec != rep {
		t.Errorf("classic: executed %+v\nreplayed %+v", exec, rep)
	}
}
