package core

import (
	"testing"

	"repro/internal/perf"
	"repro/internal/replication"
)

// twoArgTask updates a in place and derives b from it, so each task ships
// two update messages and a partial update (a without b) is possible.
// Task k charges k+1 units of compute: the owners finish, send and recycle
// at staggered instants, so one replica's sends draw pool messages while
// another replica still holds buffered updates.
func twoArgTask(c Ctx, args []Value) {
	a := args[0].(Float64s)
	b := args[1].(Float64s)
	k := *args[2].(Scalar).P
	for i := range a {
		a[i] = a[i]*1.5 + k
		b[i] = a[i]*3 - float64(i)
	}
	c.Compute(perf.Work{Flops: 4000 * (k + 1)})
}

// recycleSections runs `sections` sections of 6 two-argument tasks over
// a and b (one 16-element block per task) on the given runner.
func recycleSections(rt Runner, a, b Float64s, sections int) error {
	ks := make([]float64, 6)
	for sec := 0; sec < sections; sec++ {
		rt.SectionBegin()
		id := rt.TaskRegister(twoArgTask, InOut, Out, In)
		for k := range ks {
			ks[k] = float64(k)
			rt.TaskLaunch(id, a[16*k:16*(k+1)], b[16*k:16*(k+1)], Scalar{&ks[k]})
		}
		if err := rt.SectionEnd(); err != nil {
			return err
		}
	}
	return nil
}

// TestRecycledMessageNeverCorruptsBufferedUpdate: in atomic mode a
// received update stays buffered until its task's full update is in, and
// only then returns to the world pool. Here lane 0 of three crashes right
// after posting the first argument of its task in section 1 (a crash at
// the AfterArgSend protocol point), leaving both survivors with a buffered
// partial update they must discard, while the survivors keep exchanging —
// and recycling — update messages through the same pool for several more
// sections. Every survivor must end with exactly the values of an
// unreplicated run: a message recycled while still buffered would be
// reused by a later send and show up as a corrupted a or b.
func TestRecycledMessageNeverCorruptsBufferedUpdate(t *testing.T) {
	const sections = 5
	start := func() (Float64s, Float64s) {
		a := make(Float64s, 6*16)
		for i := range a {
			a[i] = float64(i%7) - 2
		}
		return a, make(Float64s, 6*16)
	}
	wantA, wantB := start()
	ref := newHarness(t, 1, 1)
	ref.sys.Launch("ref", func(p *replication.Proc) {
		if err := recycleSections(NewClassic(p), wantA, wantB, sections); err != nil {
			t.Errorf("reference: %v", err)
		}
	})
	ref.run(t)

	for _, mode := range []InoutMode{AtomicApply, CopyRestore} {
		t.Run(mode.String(), func(t *testing.T) {
			h := newHarness(t, 1, 3)
			finals := map[int][2]Float64s{}
			h.sys.Launch("app", func(p *replication.Proc) {
				opts := Options{Mode: mode}
				if p.Lane == 0 {
					opts.Hooks.AfterArgSend = func(sec, task, arg int) {
						if sec == 1 && arg == 0 {
							p.R.Crash()
						}
					}
				}
				rt := NewIntra(p, opts)
				a, b := start()
				if err := recycleSections(rt, a, b, sections); err != nil {
					t.Errorf("lane %d: %v", p.Lane, err)
					return
				}
				if rt.Stats().TasksRecovered == 0 {
					t.Errorf("lane %d recovered no task: the crash missed the section", p.Lane)
				}
				finals[p.Lane] = [2]Float64s{a, b}
			})
			h.run(t)
			if len(finals) != 2 {
				t.Fatalf("%d survivors finished, want 2", len(finals))
			}
			for lane, ab := range finals {
				for i := range wantA {
					if ab[0][i] != wantA[i] || ab[1][i] != wantB[i] {
						t.Fatalf("lane %d: a[%d]=%v b[%d]=%v, want %v %v",
							lane, i, ab[0][i], i, ab[1][i], wantA[i], wantB[i])
					}
				}
			}
		})
	}
}
