package core

import (
	"fmt"

	"repro/internal/mpi"
	"repro/internal/sim"
)

// The applications are deterministic programs over the Runner interface,
// and every effect a program has on the simulation passes through six
// operations: compute charges, sends, receives, allreduces, barriers and
// intra-parallel sections. Recording that sequence once — per logical
// rank, at the Runner boundary for communication and at the task boundary
// inside sections — captures everything the simulator can observe about
// the program, so a later run can replay the trace instead of re-executing
// the application's kernels.
//
// Replay reproduces the simulation exactly, crashes included: under
// send-deterministic replication (§II) a crash never alters a logical
// rank's operation sequence — the replication layer re-routes deliveries
// and replays send logs underneath it — so the trace recorded from the
// fault-free run is the trace of every trial. Message and update payload
// contents are the one thing not reproduced (replayed sends carry empty
// arrays with the recorded modeled size, and modeled cost depends only on
// that size), which is why replay is reserved for runs whose results feed
// timing aggregates, never figure tables derived from app-internal state.
//
// A trace takes one of two forms, chosen when recording starts:
//
//   - flat, for the section-free engines (native, classic): sections
//     dissolve into their tasks' compute charges, and adjacent charges
//     merge as they are recorded (sim.Time is integral, so a merged charge
//     is exactly the sum the original sequence would have accumulated);
//   - sectioned, for the intra engine: every compute charge is kept, and
//     each section keeps its registered tag lists and launched tasks.
//     Sections replay through the real section API on sized stand-ins,
//     so the intra engine's failure protocol (§III-B2 re-execution,
//     copy-restore or atomic apply, update shipping) runs for real and
//     reacts to crashes as it would under execution, while the task
//     bodies only charge their recorded compute durations.

const (
	traceCompute   = iota // d: compute charge
	traceSend             // peer, tag, bytes: modeled payload size
	traceRecv             // peer, tag
	traceAllreduce        // peer: element count
	traceBarrier
	traceSection // peer: index into Trace.sections
)

type traceOp struct {
	kind  int
	peer  int // send dst / recv src; allreduce element count; section index
	tag   int
	bytes int64
	d     sim.Time
}

// sectionRec is one recorded intra-parallel section: the registered task
// types' argument tags and every launched task in launch order.
type sectionRec struct {
	defs  [][]ArgTag
	tasks []taskRec
	// pre holds compute charged between SectionBegin and SectionEnd
	// outside any task body.
	pre []sim.Time
}

// taskRec is one launched task: its registration, a sized stand-in per
// argument, and every compute charge its body made, one entry per
// Ctx.Compute call. Charges are never merged: each is one sleep of the
// executing replica, and a replay must park and wake exactly as often as
// the execution did.
type taskRec struct {
	def     TaskID
	args    []Value
	charges []sim.Time
}

// Trace is the recorded operation sequence of one logical rank.
type Trace struct {
	ops       []traceOp
	sections  []sectionRec // sectioned form only
	sectioned bool
	total     sim.Time // the recording main's returned in-app total

	// Recording state of the sectioned form.
	open  bool            // inside a section
	sized map[int64]Value // stand-in per modeled byte size
}

// Ops returns the number of recorded operations (diagnostics and tests).
func (tr *Trace) Ops() int { return len(tr.ops) }

// compute records a charge made outside any task body.
func (tr *Trace) compute(d sim.Time) {
	switch {
	case tr == nil:
	case tr.open:
		sec := &tr.sections[len(tr.sections)-1]
		sec.pre = append(sec.pre, d)
	case !tr.sectioned && len(tr.ops) > 0 && tr.ops[len(tr.ops)-1].kind == traceCompute:
		tr.ops[len(tr.ops)-1].d += d
	default:
		tr.ops = append(tr.ops, traceOp{kind: traceCompute, d: d})
	}
}

// taskCompute records a charge made by the body of task t.
func (tr *Trace) taskCompute(t *task, d sim.Time) {
	switch {
	case tr == nil:
	case tr.sectioned:
		rec := &tr.sections[len(tr.sections)-1].tasks[t.idx]
		rec.charges = append(rec.charges, d)
	default:
		tr.compute(d)
	}
}

func (tr *Trace) comm(kind, peer, tag int, bytes int64) {
	if tr == nil {
		return
	}
	tr.ops = append(tr.ops, traceOp{kind: kind, peer: peer, tag: tag, bytes: bytes})
}

// The section hooks below record structure only in the sectioned form;
// a flat recording sees just the compute charges of the task bodies.

func (tr *Trace) beginSection() {
	if tr == nil || !tr.sectioned {
		return
	}
	tr.ops = append(tr.ops, traceOp{kind: traceSection, peer: len(tr.sections)})
	tr.sections = append(tr.sections, sectionRec{})
	tr.open = true
}

// launch records a task launch with a sized stand-in for each argument.
func (tr *Trace) launch(def TaskID, args []Value) {
	if tr == nil || !tr.sectioned {
		return
	}
	if tr.sized == nil {
		tr.sized = map[int64]Value{}
	}
	t := taskRec{def: def, args: make([]Value, len(args))}
	for i, a := range args {
		n := a.ByteSize()
		v, ok := tr.sized[n]
		if !ok {
			v = &sizedValue{bytes: n}
			tr.sized[n] = v
		}
		t.args[i] = v
	}
	sec := &tr.sections[len(tr.sections)-1]
	sec.tasks = append(sec.tasks, t)
}

// endSection copies the section's registered tag lists.
func (tr *Trace) endSection(defs []taskDef) {
	if tr == nil || !tr.sectioned {
		return
	}
	sec := &tr.sections[len(tr.sections)-1]
	sec.defs = make([][]ArgTag, len(defs))
	for i, d := range defs {
		sec.defs[i] = append([]ArgTag(nil), d.tags...)
	}
	tr.open = false
}

// replayTask is the body of every replayed task: it charges the recorded
// durations of the task the engine is running, one sleep each, exactly as
// the original body's Ctx.Compute calls did.
func replayTask(c Ctx, _ []Value) {
	tc := c.(taskCtx)
	for _, d := range tc.r.replaying.tasks[tc.r.running.idx].charges {
		tc.charge(d)
	}
}

// sizedValue stands in for a recorded task argument: it has the original's
// modeled size and no contents. It is immutable, so every replay shares it.
type sizedValue struct{ bytes int64 }

func (v *sizedValue) ByteSize() int64              { return v.bytes }
func (v *sizedValue) Snapshot() Value              { return v }
func (v *sizedValue) SnapshotInto(dst Value) Value { return v }
func (v *sizedValue) Restore(from Value)           {}
func (v *sizedValue) Encode() []float64            { return nil }
func (v *sizedValue) Apply(data []float64)         {}

// TraceSet holds one trace per logical rank. In replicated modes every
// replica of a rank records the identical sequence (that is the
// send-determinism the replay argument rests on), so the set keeps the
// first committed trace per rank.
type TraceSet struct {
	traces []*Trace
}

// NewTraceSet allocates an empty set for `logical` ranks.
func NewTraceSet(logical int) *TraceSet {
	return &TraceSet{traces: make([]*Trace, logical)}
}

// Commit stores rank's recorded trace and the app main's returned total.
// The first completed replica of a rank wins; its twins recorded the same
// sequence.
func (ts *TraceSet) Commit(rank int, tr *Trace, total sim.Time) {
	if ts.traces[rank] == nil {
		tr.total = total
		tr.sized = nil
		ts.traces[rank] = tr
	}
}

// Complete reports whether every logical rank has committed a trace.
func (ts *TraceSet) Complete() bool {
	for _, tr := range ts.traces {
		if tr == nil {
			return false
		}
	}
	return true
}

// Rank returns the committed trace for one logical rank (nil if absent).
func (ts *TraceSet) Rank(rank int) *Trace {
	if rank < 0 || rank >= len(ts.traces) {
		return nil
	}
	return ts.traces[rank]
}

// StartRecording attaches a fresh trace to the runner and returns it. It
// must be called before the application main runs, and only on the
// section-free engines (native, classic), where every replica runs every
// task in launch order, so the trace records what the program does, not
// what one engine's section protocol made of it. sectioned selects the
// form: a sectioned trace replays on every engine, the intra engine
// included; a flat one replays faster, on the section-free engines only.
func StartRecording(rt Runner, sectioned bool) (*Trace, error) {
	r, ok := rt.(*R)
	if !ok {
		return nil, fmt.Errorf("core: trace recording requires the standard runner, got %T", rt)
	}
	if _, ok := r.engine.(*localEngine); !ok {
		return nil, fmt.Errorf("core: trace recording is limited to section-free engines (native, classic), not %q", r.Mode())
	}
	tr := &Trace{sectioned: sectioned}
	r.rec = tr
	return tr, nil
}

// Replay re-issues the trace of rt's logical rank against the runner and
// returns the recorded in-app total.
//
// A sectioned trace replays every compute charge as recorded and runs
// every section through SectionBegin, TaskRegister, TaskLaunch and
// SectionEnd on the recorded tag lists and sized stand-ins. On the intra
// engine the section protocol — scheduling, update shipping, re-execution
// after a crash, copy-restore or atomic apply, the hooks — is therefore
// the real one, and the run is event-for-event the execution: same
// virtual times, same event count, same Stats. A flat trace keeps every
// virtual time but issues fewer compute events and counts task charges as
// outside compute; the intra engine rejects it.
//
// Payload contents are not reproduced: replayed sends carry empty arrays
// with the recorded modeled sizes, allreduces run on a zeroed scratch
// buffer of the recorded length, and updates carry no data.
func Replay(rt Runner, ts *TraceSet) (sim.Time, error) {
	r, ok := rt.(*R)
	if !ok {
		return 0, fmt.Errorf("core: replay requires the standard runner, got %T", rt)
	}
	tr := ts.Rank(r.LogicalRank())
	if tr == nil {
		return 0, fmt.Errorf("core: no trace recorded for logical rank %d", r.LogicalRank())
	}
	if _, intra := r.engine.(*intraEngine); intra && !tr.sectioned {
		return 0, fmt.Errorf("core: the intra engine replays sectioned traces only")
	}
	var scratch []float64
	for i := range tr.ops {
		op := &tr.ops[i]
		var err error
		switch op.kind {
		case traceCompute:
			r.chargeOutside(op.d)
		case traceSend:
			err = r.sendSized(op.peer, op.tag, nil, op.bytes)
		case traceRecv:
			_, err = r.recv(op.peer, op.tag)
		case traceAllreduce:
			if op.peer > len(scratch) {
				scratch = make([]float64, op.peer)
			}
			err = r.allreduce(mpi.OpSum, scratch[:op.peer])
		case traceBarrier:
			err = r.barrier()
		case traceSection:
			err = r.replaySection(&tr.sections[op.peer])
		}
		if err != nil {
			return 0, fmt.Errorf("replay op %d: %w", i, err)
		}
	}
	return tr.total, nil
}

// replaySection runs one recorded section through the section API: its
// task types registered in recorded order, so each keeps its TaskID, all
// with the replayTask body, and its tasks launched on their stand-ins.
func (r *R) replaySection(sec *sectionRec) error {
	r.SectionBegin()
	for _, d := range sec.pre {
		r.chargeOutside(d)
	}
	for _, tags := range sec.defs {
		r.TaskRegister(replayTask, tags...)
	}
	for i := range sec.tasks {
		r.TaskLaunch(sec.tasks[i].def, sec.tasks[i].args...)
	}
	r.replaying = sec
	err := r.SectionEnd()
	r.replaying = nil
	return err
}
