package core

import (
	"fmt"

	"repro/internal/mpi"
	"repro/internal/perf"
	"repro/internal/replication"
	"repro/internal/sim"
)

// Ctx is passed to task functions so they can charge the virtual CPU cost
// of the computation they perform.
type Ctx interface {
	// Compute charges w of compute time to the executing replica.
	Compute(w perf.Work)
}

// TaskFunc is the body of an intra-parallel task. It performs real
// computation on args (in the declared order of its registration) and
// charges its cost through c.
type TaskFunc func(c Ctx, args []Value)

// TaskID identifies a registered task type within the current section.
type TaskID int

// Stats aggregates per-replica runtime accounting used to regenerate the
// paper's figures.
type Stats struct {
	SectionTime    sim.Time // wall time between SectionBegin and SectionEnd return
	SectionCompute sim.Time // task compute charged inside sections
	UpdateWait     sim.Time // section-end time after local tasks finished (Fig 5a dashed area)
	CopyTime       sim.Time // inout snapshot/restore and atomic-apply overhead
	OutsideCompute sim.Time // compute charged outside sections
	Sections       int
	TasksRun       int   // tasks executed locally
	TasksReceived  int   // tasks whose updates were received from a peer
	TasksRecovered int   // tasks re-executed or re-sent due to a failure
	UpdateBytes    int64 // update payload bytes sent to peers
	RecoveryRounds int   // extra section-end scheduling rounds after failures
}

// Runner is the logical-process programming interface the applications are
// written against: MPI-style communication plus the paper's section API
// (§III-C). Three engines implement it: native, classic replication, and
// intra-parallelization.
type Runner interface {
	LogicalRank() int
	LogicalSize() int
	Now() sim.Time
	Mode() string

	Send(dst, tag int, data []float64) error
	// SendSized models a message whose on-wire payload is payloadBytes even
	// though the in-memory array is smaller (scaled experiment runs).
	SendSized(dst, tag int, data []float64, payloadBytes int64) error
	Recv(src, tag int) ([]float64, error)
	Allreduce(op mpi.ReduceOp, data []float64) error
	AllreduceScalar(op mpi.ReduceOp, v float64) (float64, error)
	Barrier() error

	// Compute charges work performed outside intra-parallel sections.
	Compute(w perf.Work)

	// SectionBegin opens an intra-parallel section (Intra_Section_begin).
	SectionBegin()
	// TaskRegister declares a task type executed by fn with the given
	// argument tags (Intra_Task_register).
	TaskRegister(fn TaskFunc, tags ...ArgTag) TaskID
	// TaskLaunch instantiates a task with concrete arguments
	// (Intra_Task_launch). Arguments must match the registered tags.
	TaskLaunch(id TaskID, args ...Value)
	// SectionEnd runs the section protocol to completion
	// (Intra_Section_end): on return, every live replica of this logical
	// process holds the results of every task.
	SectionEnd() error

	Stats() *Stats
}

// comm abstracts the logical communication substrate (plain MPI for the
// native engine, the replication layer otherwise).
type comm interface {
	logicalRank() int
	logicalSize() int
	send(dst, tag int, data []float64) error
	sendSized(dst, tag int, data []float64, payloadBytes int64) error
	recv(src, tag int) ([]float64, error)
	allreduce(op mpi.ReduceOp, data []float64) error
	barrier() error
	rank() *mpi.Rank
}

type mpiComm struct{ r *mpi.Rank }

func (c mpiComm) logicalRank() int { return c.r.Rank() }
func (c mpiComm) logicalSize() int { return c.r.Size() }
func (c mpiComm) send(dst, tag int, data []float64) error {
	return c.r.Send(c.r.World(), dst, tag, data, nil)
}
func (c mpiComm) sendSized(dst, tag int, data []float64, payloadBytes int64) error {
	return c.r.Wait(c.r.IsendSized(c.r.World(), dst, tag, data, nil, payloadBytes))
}
func (c mpiComm) recv(src, tag int) ([]float64, error) {
	msg, err := c.r.Recv(c.r.World(), src, tag)
	if err != nil {
		return nil, err
	}
	return msg.Data, nil
}
func (c mpiComm) allreduce(op mpi.ReduceOp, data []float64) error {
	return c.r.Allreduce(c.r.World(), op, data)
}
func (c mpiComm) barrier() error  { return c.r.Barrier(c.r.World()) }
func (c mpiComm) rank() *mpi.Rank { return c.r }

type replComm struct{ p *replication.Proc }

func (c replComm) logicalRank() int { return c.p.Logical }
func (c replComm) logicalSize() int { return c.p.LogicalSize() }
func (c replComm) send(dst, tag int, data []float64) error {
	return c.p.Send(dst, tag, data, nil)
}
func (c replComm) sendSized(dst, tag int, data []float64, payloadBytes int64) error {
	return c.p.SendSized(dst, tag, data, nil, payloadBytes)
}
func (c replComm) recv(src, tag int) ([]float64, error) {
	msg, err := c.p.Recv(src, tag)
	if err != nil {
		return nil, err
	}
	return msg.Data, nil
}
func (c replComm) allreduce(op mpi.ReduceOp, data []float64) error {
	return c.p.Allreduce(op, data)
}
func (c replComm) barrier() error  { return c.p.Barrier() }
func (c replComm) rank() *mpi.Rank { return c.p.R }

// sectionEngine runs a buffered section to completion.
type sectionEngine interface {
	runSection(r *R) error
	mode() string
}

// R is the concrete Runner shared by all three engines.
type R struct {
	comm
	engine    sectionEngine
	machine   perf.Machine
	costScale float64 // multiplies Value sizes for update transfers and copies
	rec       *Trace  // non-nil while recording the logical-op trace
	stats     Stats
	running   *task       // the task whose body is executing
	replaying *sectionRec // the recorded section being replayed
	inSection bool
	secStart  sim.Time
	// The current section's task types, their argument tags and its
	// tasks, all in storage reused by every section.
	defs  []taskDef
	tags  []ArgTag
	tasks []*task
}

type taskDef struct {
	fn   TaskFunc
	tags []ArgTag
}

// task is one launched task. Records are reused across sections (the i-th
// task of every section gets the same record), so TaskLaunch resets every
// per-section field; the inout snapshots keep their storage for
// SnapshotInto.
type task struct {
	idx  int
	def  taskDef
	args []Value
	arg  []argState // per-argument protocol state, parallel to args
	done bool
	// Inline storage backing args and arg for tasks of up to
	// inlineArgs arguments.
	argsBuf [inlineArgs]Value
	argBuf  [inlineArgs]argState
}

// inlineArgs covers the argument count of every app's tasks.
const inlineArgs = 4

// argState is the intra protocol's state for one task argument.
type argState struct {
	snap    Value        // inout snapshot storage (copy-restore mode)
	snapped bool         // snap holds this section's snapshot
	recvd   bool         // update applied (copy mode) or buffered (atomic)
	pending *mpi.Message // buffered update (atomic mode)
}

// reset prepares a reused record for a task of def with the given args.
func (t *task) reset(idx int, def taskDef, args []Value) {
	t.idx = idx
	t.def = def
	if t.args == nil {
		t.args, t.arg = t.argsBuf[:0], t.argBuf[:0]
	}
	t.args = append(t.args[:0], args...)
	t.done = false
	n := len(args)
	if cap(t.arg) < n {
		t.arg = append(t.arg[:cap(t.arg)], make([]argState, n-cap(t.arg))...)
	}
	t.arg = t.arg[:n]
	for i := range t.arg {
		t.arg[i] = argState{snap: t.arg[i].snap}
	}
}

// LogicalRank returns the logical MPI rank.
func (r *R) LogicalRank() int { return r.logicalRank() }

// LogicalSize returns the number of logical ranks.
func (r *R) LogicalSize() int { return r.logicalSize() }

// Now returns the current virtual time.
func (r *R) Now() sim.Time { return r.rank().Now() }

// Mode identifies the engine ("native", "classic", or "intra").
func (r *R) Mode() string { return r.engine.mode() }

// Send performs a logical send.
func (r *R) Send(dst, tag int, data []float64) error {
	r.rec.comm(traceSend, dst, tag, 8*int64(len(data)))
	return r.send(dst, tag, data)
}

// SendSized performs a logical send with an explicit modeled payload size.
func (r *R) SendSized(dst, tag int, data []float64, payloadBytes int64) error {
	r.rec.comm(traceSend, dst, tag, payloadBytes)
	return r.sendSized(dst, tag, data, payloadBytes)
}

// Recv performs a logical receive.
func (r *R) Recv(src, tag int) ([]float64, error) {
	r.rec.comm(traceRecv, src, tag, 0)
	return r.recv(src, tag)
}

// Allreduce reduces data across all logical ranks.
func (r *R) Allreduce(op mpi.ReduceOp, data []float64) error {
	r.rec.comm(traceAllreduce, len(data), 0, 0)
	return r.allreduce(op, data)
}

// AllreduceScalar reduces a single value across all logical ranks.
func (r *R) AllreduceScalar(op mpi.ReduceOp, v float64) (float64, error) {
	r.rec.comm(traceAllreduce, 1, 0, 0)
	buf := []float64{v}
	if err := r.allreduce(op, buf); err != nil {
		return 0, err
	}
	return buf[0], nil
}

// Barrier synchronizes all logical ranks.
func (r *R) Barrier() error {
	r.rec.comm(traceBarrier, 0, 0, 0)
	return r.barrier()
}

// Compute charges work performed outside sections.
func (r *R) Compute(w perf.Work) { r.chargeOutside(r.machine.Duration(w)) }

func (r *R) chargeOutside(d sim.Time) {
	r.stats.OutsideCompute += d
	r.rec.compute(d)
	r.rank().Compute(d)
}

// Stats returns the runtime counters (live; callers may snapshot by copy).
func (r *R) Stats() *Stats { return &r.stats }

// SectionBegin opens an intra-parallel section. Sections must not nest and
// must not contain message-passing communication (Definition 1).
func (r *R) SectionBegin() {
	if r.inSection {
		panic("core: nested intra-parallel sections are not allowed")
	}
	r.inSection = true
	r.secStart = r.Now()
	r.rec.beginSection()
	r.defs = r.defs[:0]
	r.tags = r.tags[:0]
	r.tasks = r.tasks[:0]
}

// TaskRegister declares a task type for the current section.
func (r *R) TaskRegister(fn TaskFunc, tags ...ArgTag) TaskID {
	if !r.inSection {
		panic("core: TaskRegister outside a section")
	}
	// Copy the tags into section-owned storage so the variadic slice does
	// not escape. Appending may move r.tags, but earlier defs keep valid
	// views of the old array, which nothing writes until the next section.
	n := len(r.tags)
	r.tags = append(r.tags, tags...)
	r.defs = append(r.defs, taskDef{fn: fn, tags: r.tags[n:len(r.tags):len(r.tags)]})
	return TaskID(len(r.defs) - 1)
}

// TaskLaunch instantiates a registered task with concrete arguments.
func (r *R) TaskLaunch(id TaskID, args ...Value) {
	if !r.inSection {
		panic("core: TaskLaunch outside a section")
	}
	def := r.defs[id]
	if len(args) != len(def.tags) {
		panic(fmt.Sprintf("core: task %d launched with %d args, registered with %d",
			id, len(args), len(def.tags)))
	}
	// Slots past len hold the records of earlier, larger sections. When
	// the slice grows, one block of records fills every slot it added.
	n := len(r.tasks)
	if n < cap(r.tasks) {
		r.tasks = r.tasks[:n+1]
	} else {
		r.tasks = append(r.tasks, nil)
		added := r.tasks[n:cap(r.tasks)]
		block := make([]task, len(added))
		for i := range added {
			added[i] = &block[i]
		}
	}
	r.tasks[n].reset(n, def, args)
	r.rec.launch(id, args)
}

// SectionEnd completes the section under the configured engine.
func (r *R) SectionEnd() error {
	if !r.inSection {
		panic("core: SectionEnd without SectionBegin")
	}
	err := r.engine.runSection(r)
	r.rec.endSection(r.defs)
	r.inSection = false
	r.stats.Sections++
	r.stats.SectionTime += r.Now() - r.secStart
	return err
}

// taskCtx charges compute performed inside a task.
type taskCtx struct {
	r *R
}

func (c taskCtx) Compute(w perf.Work) { c.charge(c.r.machine.Duration(w)) }

func (c taskCtx) charge(d sim.Time) {
	c.r.stats.SectionCompute += d
	c.r.rec.taskCompute(c.r.running, d)
	c.r.rank().Compute(d)
}

// scaledBytes returns a Value's modeled size under the experiment's cost
// scale.
func (r *R) scaledBytes(v Value) int64 {
	return int64(float64(v.ByteSize()) * r.costScale)
}

// runTaskLocally executes a task's body after restoring inout snapshots if
// a copy exists (Algorithm 1, execute_task lines 30-32).
func (r *R) runTaskLocally(t *task) {
	for i, tag := range t.def.tags {
		if tag == InOut && t.arg[i].snapped {
			d := r.machine.MemcpyDuration(r.scaledBytes(t.args[i]))
			r.stats.CopyTime += d
			r.rank().Compute(d)
			t.args[i].Restore(t.arg[i].snap)
		}
	}
	r.running = t
	t.def.fn(taskCtx{r: r}, t.args)
	r.running = nil
	r.stats.TasksRun++
}
