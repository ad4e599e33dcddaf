package experiments

import (
	"fmt"

	"repro/internal/apps/apputil"
	"repro/internal/core"
	"repro/internal/sim"
)

// RecordTraces runs the spec once, fault-free, with every runner in
// recording mode, and returns the per-logical-rank traces. A spec carrying
// those traces in Spec.Replay then simulates without executing the
// application's kernels — the campaign's trial accelerator.
//
// An intra spec records on the native engine, where every rank runs every
// task of its sections: the trace holds what the program does (its
// communication, its sections' tag lists and launches, each task's compute
// charges), and an intra replay runs the section protocol for real on it.
// Classic and native specs record on their own engine.
func RecordTraces(s Spec) (*core.TraceSet, error) {
	if s.App.main == nil {
		return nil, fmt.Errorf("spec %q has no application", s.Name)
	}
	mode := s.Mode
	if mode == Intra {
		mode = Native
	}
	c, err := NewCluster(ClusterConfig{
		Logical: s.Logical, Mode: mode, Degree: s.Degree,
		Net: s.Net, Machine: s.Machine,
	})
	if err != nil {
		return nil, err
	}
	ts := core.NewTraceSet(s.Logical)
	var firstErr error
	c.Launch(func(rt core.Runner) {
		tr, err := core.StartRecording(rt, s.Mode == Intra)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			return
		}
		total, _, _, err := s.App.main(rt)
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("rank %d: %w", rt.LogicalRank(), err)
			}
			return
		}
		ts.Commit(rt.LogicalRank(), tr, total)
	})
	if _, err := c.Run(); err != nil {
		return nil, err
	}
	if firstErr != nil {
		return nil, firstErr
	}
	if !ts.Complete() {
		return nil, fmt.Errorf("experiments: trace recording for %q left ranks without a trace", s.Name)
	}
	return ts, nil
}

// replayMain adapts a trace set to the appMain signature. Kernel timings
// are not re-derived (the kernels never run), the in-app total is the
// recording's, and the runner stats reflect the replay's own accounting.
func replayMain(ts *core.TraceSet) appMain {
	return func(rt core.Runner) (sim.Time, map[string]*apputil.KernelTime, core.Stats, error) {
		total, err := core.Replay(rt, ts)
		return total, nil, *rt.Stats(), err
	}
}
