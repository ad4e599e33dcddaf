package experiments

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/replication"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// replayModes are the replicated engine configurations a campaign trial
// can run in.
var replayModes = []struct {
	name string
	mode Mode
	opts core.Options
}{
	{"classic", Classic, core.Options{}},
	{"intra-copy", Intra, core.Options{Mode: core.CopyRestore}},
	{"intra-atomic", Intra, core.Options{Mode: core.AtomicApply}},
}

// sameOutcome reports how a replayed run differs from the executed one:
// wall time and crash count always; on the intra engine, whose sections
// replay through the real protocol one charge at a time, the engine event
// count and every Stats field too. Classic replay merges adjacent compute
// charges into one sleep and counts them as outside compute, so it keeps
// every virtual time but not the event count or the section Stats.
func sameOutcome(mode Mode, exec, rep Result) error {
	if exec.Measure.Wall != rep.Measure.Wall {
		return fmt.Errorf("wall %v executed, %v replayed", exec.Measure.Wall, rep.Measure.Wall)
	}
	if exec.Crashes != rep.Crashes {
		return fmt.Errorf("crashes %d executed, %d replayed", exec.Crashes, rep.Crashes)
	}
	if mode != Intra {
		return nil
	}
	if exec.SimEvents != rep.SimEvents {
		return fmt.Errorf("sim events %d executed, %d replayed", exec.SimEvents, rep.SimEvents)
	}
	if exec.Measure.Stats != rep.Measure.Stats {
		return fmt.Errorf("stats %+v executed, %+v replayed", exec.Measure.Stats, rep.Measure.Stats)
	}
	return nil
}

// TestReplayMatchesExecution is the property the campaign's trial
// accelerator rests on: for every registered app, every replicated mode
// and seeded exponential crash draws at three MTBFs, a trial replayed from
// the fault-free recording has the executed trial's wall time, crash count
// and (intra) event count and runtime Stats. The executed and replayed
// specs run in separate sweeps, so neither memo serves the other.
func TestReplayMatchesExecution(t *testing.T) {
	const logical, draws = 4, 2
	for _, ent := range scenario.Apps() {
		app, err := AppFor(ent.Name, ent.New())
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range replayModes {
			tmpl := Spec{Name: ent.Name + "/" + m.name, Mode: m.mode, Logical: logical, Opts: m.opts, App: app}
			ref, err := runSpec(nil, nil, tmpl)
			if err != nil {
				t.Fatalf("%s: %v", tmpl.Name, err)
			}
			ts, err := RecordTraces(tmpl)
			if err != nil {
				t.Fatalf("%s: record: %v", tmpl.Name, err)
			}
			// MTBFs per replica at a half, twice and eight times the
			// fault-free wall: from most replicas failing to a few.
			wall := ref.Measure.Wall
			var exec, rep []Spec
			for _, mtbf := range []sim.Time{wall / 2, 2 * wall, 8 * wall} {
				for k := 0; k < draws; k++ {
					d := fault.ExponentialDraw(logical, 2, mtbf, wall, fault.TrialSeed(int64(mtbf), 0, k))
					s := tmpl
					s.Name = fmt.Sprintf("%s/mtbf%v/t%d", tmpl.Name, mtbf, k)
					s.Fault = d.Schedule
					exec = append(exec, s)
					s.Replay = ts
					rep = append(rep, s)
				}
			}
			execRes, err := SweepN(2, exec)
			if err != nil {
				t.Fatal(err)
			}
			repRes, err := SweepN(2, rep)
			if err != nil {
				t.Fatal(err)
			}
			crashed := 0
			for i := range exec {
				crashed += execRes[i].Crashes
				if err := sameOutcome(m.mode, execRes[i], repRes[i]); err != nil {
					t.Errorf("%s: %v", exec[i].Name, err)
				}
			}
			if crashed == 0 {
				t.Errorf("%s: no draw crashed a replica", tmpl.Name)
			}
		}
	}
}

// planRun is one cluster run under a CrashPlan: the wall time, the engine
// event count and the Stats of every surviving replica.
type planRun struct {
	wall   sim.Time
	events uint64
	stats  map[[2]int]core.Stats
}

// runPlan runs program on an intra cluster of 2 logical ranks with the
// plan's hooks on replica (0, lane).
func runPlan(t *testing.T, mode core.InoutMode, point fault.Point, lane int, program func(rt core.Runner) error) planRun {
	t.Helper()
	c, err := NewCluster(ClusterConfig{Logical: 2, Mode: Intra, SendLog: true})
	if err != nil {
		t.Fatal(err)
	}
	plan := &fault.CrashPlan{Point: point, Nth: 7}
	out := planRun{stats: map[[2]int]core.Stats{}}
	c.Sys.Launch("app", func(p *replication.Proc) {
		opts := core.Options{Mode: mode}
		if p.Logical == 0 && p.Lane == lane {
			opts.Hooks = plan.Hooks(p)
		}
		rt := core.NewIntra(p, opts)
		if err := program(rt); err != nil {
			t.Errorf("replica (%d,%d): %v", p.Logical, p.Lane, err)
			return
		}
		out.stats[[2]int{p.Logical, p.Lane}] = *rt.Stats()
	})
	if out.wall, err = c.Run(); err != nil {
		t.Fatal(err)
	}
	out.events = c.E.Stats().Events
	return out
}

// TestReplayMatchesExecutionCrashPlan pins replay at each §III-B2 protocol
// point: a crash before a task runs, after it ran but before its update
// went out, and between two arguments' updates, on either lane and in both
// inout modes. The replayed section protocol must re-execute, restore and
// apply exactly as the executed one did.
func TestReplayMatchesExecutionCrashPlan(t *testing.T) {
	for _, name := range []string{"hpccg", "gtc"} {
		ent, err := scenario.AppByName(name)
		if err != nil {
			t.Fatal(err)
		}
		app, err := AppFor(name, ent.New())
		if err != nil {
			t.Fatal(err)
		}
		ts, err := RecordTraces(Spec{Name: name, Mode: Intra, Logical: 2, App: app})
		if err != nil {
			t.Fatal(err)
		}
		execute := func(rt core.Runner) error { _, _, _, err := app.main(rt); return err }
		replay := func(rt core.Runner) error { _, err := core.Replay(rt, ts); return err }
		for _, point := range []fault.Point{fault.BeforeExec, fault.AfterExec, fault.MidUpdate} {
			for _, lane := range []int{0, 1} {
				for _, mode := range []core.InoutMode{core.CopyRestore, core.AtomicApply} {
					label := fmt.Sprintf("%s %s lane %d %s", name, point, lane, mode)
					exec := runPlan(t, mode, point, lane, execute)
					rep := runPlan(t, mode, point, lane, replay)
					if len(exec.stats) != 3 {
						t.Fatalf("%s: %d replicas survived the executed run, want 3", label, len(exec.stats))
					}
					if exec.wall != rep.wall || exec.events != rep.events {
						t.Errorf("%s: wall %v / %d events executed, %v / %d replayed",
							label, exec.wall, exec.events, rep.wall, rep.events)
					}
					if fmt.Sprint(exec.stats) != fmt.Sprint(rep.stats) {
						t.Errorf("%s: stats\n%v executed\n%v replayed", label, exec.stats, rep.stats)
					}
				}
			}
		}
	}
}
