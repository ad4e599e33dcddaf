package jobstream

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"repro/internal/ckptsim"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// maxGrow bounds the observation-window growth loop of one job's
// execution: each iteration the window at least covers the previous
// makespan, so hitting the cap means a pathological failure rate; the
// last replay stands, slightly optimistic, like the campaign layer's
// horizon-doubling cap.
const maxGrow = 20

// classCtx is one job class resolved for execution: the fault-free
// degree-2 replicated template, the measured fault-free makespans of the
// native and replicated shapes, and the template's trace recording. Built
// once per run, shared by every cell.
type classCtx struct {
	class      scenario.JobClass
	replSpec   experiments.Spec // classic degree-2, fault-free
	nativeWall float64
	replWall   float64
	// replTrace returns replSpec's recorded trace, recording it on the
	// first call (concurrent callers wait for that one recording). Crashed
	// replicated jobs replay it: send-deterministic replication keeps every
	// logical rank's operation sequence crash-invariant, so a replay's
	// makespan and crash consequences equal an execution's. nil means
	// crashed jobs execute the app.
	replTrace func() (*core.TraceSet, error)
}

// recordFunc records a spec's per-rank traces: experiments.RecordTraces,
// or nil to have crashed replicated jobs execute the app instead.
type recordFunc func(experiments.Spec) (*core.TraceSet, error)

// buildClasses resolves the workload mix: per class, the degree-2
// replicated template on the workload's platform and the native and
// replicated fault-free makespans. The 2×classes references run as one
// parallel batch through the shared runner, so they are simulated once,
// persist alongside everything else and seed the runner's memo (a
// fault-free replicated job memo-hits its reference). The replicated job
// keeps the native per-rank problem — replication is a footprint
// decision, not a problem resizing. A class records its trace only when
// its first crashed replicated job misses the memo.
func buildClasses(workers int, w *scenario.Workload, r *memoRunner, record recordFunc) ([]classCtx, error) {
	out := make([]classCtx, len(w.Mix))
	refs := make([]experiments.Spec, 0, 2*len(w.Mix))
	for i, c := range w.Mix {
		base := scenario.Scenario{
			Name: c.Label(), App: c.App, Config: c.Config,
			Mode: scenario.Native, Logical: c.Logical,
			Net: w.Net, Machine: w.Machine,
		}
		nspec, err := experiments.SpecFor(base)
		if err != nil {
			return nil, fmt.Errorf("jobstream: class %q: %w", c.Label(), err)
		}
		repl := base
		repl.Mode = scenario.Classic
		repl.Degree = 2
		rspec, err := experiments.SpecFor(repl)
		if err != nil {
			return nil, fmt.Errorf("jobstream: class %q: %w", c.Label(), err)
		}
		out[i] = classCtx{class: c, replSpec: rspec}
		if record != nil {
			out[i].replTrace = sync.OnceValues(func() (*core.TraceSet, error) {
				ts, err := record(rspec)
				if err != nil {
					return nil, fmt.Errorf("jobstream: class %q trace recording: %w", c.Label(), err)
				}
				return ts, nil
			})
		}
		refs = append(refs, nspec, rspec)
	}
	res, err := r.runBatch(workers, refs)
	if err != nil {
		return nil, fmt.Errorf("jobstream: class references: %w", err)
	}
	for i := range out {
		out[i].nativeWall = res[2*i].WallSeconds
		out[i].replWall = res[2*i+1].WallSeconds
	}
	return out, nil
}

// cellParams identifies one simulation cell: a single-rate stream point
// under one scheduler and one policy, for one trial.
type cellParams struct {
	w         *scenario.Workload
	rate      float64
	seed      int64
	trial     int
	scheduler string
	policy    string
	classes   []classCtx
	runner    *memoRunner
}

// cellWire is one cell's measured outcome — the stored and aggregated
// form. Every float64 marshals shortest-round-trip, so a store hit
// reproduces the fresh run's aggregates bit for bit.
type cellWire struct {
	Jobs       int     `json:"jobs"`
	Completed  int     `json:"completed"`
	Failed     int     `json:"failed"`
	Native     int     `json:"jobs_native"`
	Replicated int     `json:"jobs_replicated"`
	CCR        int     `json:"jobs_ccr"`
	Span       float64 `json:"span_seconds"`            // last completion
	Throughput float64 `json:"throughput_jobs_per_sec"` // completed / span
	BSLDMean   float64 `json:"bounded_slowdown_mean"`   // completed jobs
	BSLDP95    float64 `json:"bounded_slowdown_p95"`    // completed jobs
	WaitMean   float64 `json:"wait_mean_seconds"`       // all jobs
	Util       float64 `json:"utilization"`             // busy/total node-seconds
	Goodput    float64 `json:"goodput"`                 // useful native work fraction
}

// job is one submission's lifecycle inside a cell.
type job struct {
	class int
	dec   Decision
	ref   float64 // fault-free service of the chosen configuration
	width int

	arrive, start, end float64
	nodes              []int
	ok                 bool
}

// cellRun is the mutable state of one cell simulation.
type cellRun struct {
	p     cellParams
	trace *failTrace
	cl    *Cluster
	sched Scheduler
	pol   Policy
	jobs  []job

	view    View
	pend    []int
	running []int // job ids by ascending (end, id)

	relBuf  []float64 // scratch: relative failure times
	evBuf   []crashEv // scratch: replica crash events
	killBuf []int     // scratch: per-rank kill counts
}

// crashEv is one node failure mapped onto a replicated job's slot grid.
type crashEv struct {
	t          float64 // relative to job start
	rank, lane int
}

// runCell replays one cell: the trial's arrival stream through one
// scheduler and one policy on a fresh cluster, against the trial's shared
// failure trace. Everything is deterministic in the cell coordinates.
func runCell(p cellParams) (cellWire, error) {
	c, err := newCellRun(p)
	if err != nil {
		return cellWire{}, err
	}
	return c.run()
}

// newCellRun builds one cell's scheduler, policy, cluster and failure
// trace, ready to run.
func newCellRun(p cellParams) (*cellRun, error) {
	sched, err := newScheduler(p.scheduler)
	if err != nil {
		return nil, err
	}
	pol, err := newPolicy(p.policy)
	if err != nil {
		return nil, err
	}
	c := &cellRun{
		p:     p,
		trace: newFailTrace(p.w.Nodes, p.w.MTBFSeconds, fault.TrialSeed(p.seed, failureLane, p.trial)),
		cl:    NewCluster(p.w.Nodes),
		sched: sched, pol: pol,
		jobs:    make([]job, p.w.Jobs),
		killBuf: make([]int, maxLogical(p.classes)),
	}
	c.view.Nodes = p.w.Nodes
	return c, nil
}

// run drives the cell's event loop to the last completion and folds the
// outcome into its wire record.
func (c *cellRun) run() (cellWire, error) {
	arrivals := genArrivals(c.p.w, c.p.rate, c.p.seed, c.p.trial)
	nextA, done := 0, 0
	now := 0.0
	for done < len(c.jobs) {
		switch {
		case len(c.running) > 0 && (nextA >= len(arrivals) || c.jobs[c.running[0]].end <= arrivals[nextA].at):
			// Completions before arrivals on ties: nodes free up before the
			// arriving job's policy reads spare capacity.
			id := c.running[0]
			c.running = c.running[1:]
			now = c.jobs[id].end
			c.cl.Release(c.jobs[id].nodes)
			done++
		case nextA < len(arrivals):
			id := nextA
			now = arrivals[id].at
			if err := c.admit(id, arrivals[id].class, now); err != nil {
				return cellWire{}, err
			}
			c.pend = append(c.pend, id)
			nextA++
		default:
			return cellWire{}, fmt.Errorf("jobstream: stalled with %d pending jobs and nothing running", len(c.pend))
		}
		if err := c.schedulePass(now); err != nil {
			return cellWire{}, err
		}
	}
	return c.metrics(), nil
}

func maxLogical(classes []classCtx) int {
	m := 0
	for _, cc := range classes {
		if cc.class.Logical > m {
			m = cc.class.Logical
		}
	}
	return m
}

// admit runs the arrival-time policy decision for job id.
func (c *cellRun) admit(id, class int, now float64) error {
	cc := &c.p.classes[class]
	j := &c.jobs[id]
	j.class = class
	j.arrive = now
	j.dec = c.pol.Decide(Request{
		Logical: cc.class.Logical, NativeWall: cc.nativeWall,
		NodeMTBF: c.p.w.MTBFSeconds, DeltaFrac: c.p.w.DeltaFrac(),
		Nodes: c.cl.Nodes(), Free: c.cl.Free(),
	})
	switch j.dec.Mode {
	case scenario.Native:
		j.width = cc.class.Logical
		j.ref = cc.nativeWall
	case scenario.CCR:
		j.width = cc.class.Logical
		j.ref = j.dec.Params.FaultFreeMakespan(cc.nativeWall)
	case scenario.Classic:
		if j.dec.Degree != 2 {
			return fmt.Errorf("jobstream: policy %q chose unsupported degree %d", c.pol.Name(), j.dec.Degree)
		}
		j.width = 2 * cc.class.Logical
		j.ref = cc.replWall
	default:
		return fmt.Errorf("jobstream: policy %q chose unsupported mode %s", c.pol.Name(), j.dec.Mode.Name())
	}
	if j.width > c.cl.Nodes() {
		return fmt.Errorf("jobstream: policy %q sized job %q to %d of %d nodes", c.pol.Name(), cc.class.Label(), j.width, c.cl.Nodes())
	}
	return nil
}

// schedulePass drains the scheduler at one decision point: place until it
// returns -1.
func (c *cellRun) schedulePass(now float64) error {
	for len(c.pend) > 0 {
		c.buildView(now)
		i := c.sched.Next(&c.view)
		if i < 0 {
			return nil
		}
		if i >= len(c.pend) {
			return fmt.Errorf("jobstream: scheduler %q returned index %d of %d pending", c.sched.Name(), i, len(c.pend))
		}
		id := c.pend[i]
		if c.jobs[id].width > c.cl.Free() {
			return fmt.Errorf("jobstream: scheduler %q placed a %d-node job on %d free nodes", c.sched.Name(), c.jobs[id].width, c.cl.Free())
		}
		c.pend = append(c.pend[:i], c.pend[i+1:]...)
		if err := c.place(id, now); err != nil {
			return err
		}
	}
	return nil
}

// buildView refreshes the scheduler's picture into reused buffers.
func (c *cellRun) buildView(now float64) {
	c.view.Now = now
	c.view.Free = c.cl.Free()
	c.view.Pending = c.view.Pending[:0]
	for _, id := range c.pend {
		j := &c.jobs[id]
		c.view.Pending = append(c.view.Pending, PendingJob{Width: j.width, Arrival: j.arrive, Est: j.ref})
	}
	c.view.RunEnds = c.view.RunEnds[:0]
	for _, id := range c.running {
		j := &c.jobs[id]
		c.view.RunEnds = append(c.view.RunEnds, RunEnd{Time: j.end, Width: j.width})
	}
}

// place allocates nodes for job id, resolves its outcome against the
// failure trace, and books its completion event.
func (c *cellRun) place(id int, now float64) error {
	j := &c.jobs[id]
	j.start = now
	j.nodes = c.cl.Alloc(j.width, j.nodes[:0])
	dur, ok, err := c.exec(j)
	if err != nil {
		return err
	}
	j.end = now + dur
	j.ok = ok
	// Insert into running, keyed (end, id): deterministic completion order.
	pos := sort.Search(len(c.running), func(k int) bool {
		jk := &c.jobs[c.running[k]]
		if jk.end != j.end {
			return jk.end > j.end
		}
		return c.running[k] > id
	})
	c.running = append(c.running, 0)
	copy(c.running[pos+1:], c.running[pos:])
	c.running[pos] = id
	return nil
}

// exec resolves a placed job's duration and outcome under its
// fault-tolerance configuration and its nodes' failure windows.
func (c *cellRun) exec(j *job) (dur float64, ok bool, err error) {
	cc := &c.p.classes[j.class]
	if c.p.w.MTBFSeconds == 0 {
		return j.ref, true, nil
	}
	switch j.dec.Mode {
	case scenario.Native:
		// First node failure inside the service window kills the job there.
		first := math.Inf(1)
		for _, node := range j.nodes {
			if w := c.trace.window(node, j.start, j.start+j.ref); len(w) > 0 && w[0] < first {
				first = w[0]
			}
		}
		if first < j.start+j.ref {
			return first - j.start, false, nil
		}
		return j.ref, true, nil
	case scenario.CCR:
		return c.execCCR(j, cc)
	default:
		return c.execReplicated(j, cc)
	}
}

// execCCR replays the job's native work under its checkpoint parameters
// against the failures its nodes see, growing the observation window
// until it covers the failure-stretched makespan.
func (c *cellRun) execCCR(j *job, cc *classCtx) (float64, bool, error) {
	win := j.ref
	for iter := 0; ; iter++ {
		c.relBuf = c.relBuf[:0]
		for _, node := range j.nodes {
			for _, f := range c.trace.window(node, j.start, j.start+win) {
				c.relBuf = append(c.relBuf, f-j.start)
			}
		}
		sort.Float64s(c.relBuf)
		tr, err := ckptsim.Replay(cc.nativeWall, j.dec.Params, c.relBuf)
		if err != nil {
			return 0, false, err
		}
		if tr.Makespan <= win || iter >= maxGrow {
			return tr.Makespan, true, nil
		}
		win = tr.Makespan
	}
}

// execReplicated maps the job's nodes onto the (rank, lane) slot grid —
// node index i hosts rank i%logical, lane i/logical — and walks its
// failure events chronologically. The first instant a rank has lost all
// its lanes interrupts the job (replication's unsurvivable case); the
// survivable prefix becomes a crash schedule for the cluster simulator,
// whose measured makespan is the job's duration if it completes first.
// A crashed run replays the class's recorded trace instead of executing
// the app; a crash-free one is the class reference, served from the memo.
func (c *cellRun) execReplicated(j *job, cc *classCtx) (float64, bool, error) {
	logical := cc.class.Logical
	degree := j.dec.Degree
	win := j.ref
	for iter := 0; ; iter++ {
		c.evBuf = c.evBuf[:0]
		for idx, node := range j.nodes {
			rank, lane := idx%logical, idx/logical
			for _, f := range c.trace.window(node, j.start, j.start+win) {
				c.evBuf = append(c.evBuf, crashEv{t: f - j.start, rank: rank, lane: lane})
			}
		}
		sort.Slice(c.evBuf, func(a, b int) bool {
			ea, eb := c.evBuf[a], c.evBuf[b]
			if ea.t != eb.t {
				return ea.t < eb.t
			}
			if ea.rank != eb.rank {
				return ea.rank < eb.rank
			}
			return ea.lane < eb.lane
		})
		kills := c.killBuf[:logical]
		for k := range kills {
			kills[k] = 0
		}
		fatalIdx := len(c.evBuf)
		fatalT := math.Inf(1)
		for k, e := range c.evBuf {
			kills[e.rank]++
			if kills[e.rank] >= degree {
				fatalIdx, fatalT = k, e.t
				break
			}
		}
		spec := cc.replSpec
		var trace func() (*core.TraceSet, error)
		if fatalIdx > 0 {
			fs := &fault.Schedule{Crashes: make([]fault.Crash, fatalIdx)}
			for k, e := range c.evBuf[:fatalIdx] {
				fs.Crashes[k] = fault.Crash{Logical: e.rank, Lane: e.lane, Time: sim.Seconds(e.t)}
			}
			spec.Fault = fs
			trace = cc.replTrace
		}
		res, err := c.p.runner.Run(spec, trace)
		if err != nil {
			return 0, false, err
		}
		m := res.WallSeconds
		if fatalIdx < len(c.evBuf) {
			// Every survivable crash before fatalT is in the schedule, so m is
			// exact up to fatalT: the job either finished first or dies there.
			if m > fatalT {
				return fatalT, false, nil
			}
			return m, true, nil
		}
		if m <= win || iter >= maxGrow {
			return m, true, nil
		}
		win = m
	}
}

// metrics folds the finished cell into its wire record.
func (c *cellRun) metrics() cellWire {
	w := cellWire{Jobs: len(c.jobs)}
	bound := c.p.w.SlowdownBound()
	var busy, useful, waitSum float64
	c.relBuf = c.relBuf[:0] // reuse as the completed-job BSLD list
	for i := range c.jobs {
		j := &c.jobs[i]
		if j.end > w.Span {
			w.Span = j.end
		}
		busy += float64(j.width) * (j.end - j.start)
		waitSum += j.start - j.arrive
		switch j.dec.Mode {
		case scenario.Native:
			w.Native++
		case scenario.CCR:
			w.CCR++
		default:
			w.Replicated++
		}
		if !j.ok {
			w.Failed++
			continue
		}
		w.Completed++
		useful += c.p.classes[j.class].nativeWall * float64(c.p.classes[j.class].class.Logical)
		denom := math.Max(j.ref, bound)
		c.relBuf = append(c.relBuf, math.Max(1, (j.end-j.arrive)/denom))
	}
	w.WaitMean = waitSum / float64(len(c.jobs))
	if w.Span > 0 {
		total := float64(c.cl.Nodes()) * w.Span
		w.Throughput = float64(w.Completed) / w.Span
		w.Util = busy / total
		w.Goodput = useful / total
	}
	if bslds := c.relBuf; len(bslds) > 0 {
		sort.Float64s(bslds)
		sum := 0.0
		for _, b := range bslds {
			sum += b
		}
		w.BSLDMean = sum / float64(len(bslds))
		w.BSLDP95 = bslds[(95*len(bslds)+99)/100-1]
	}
	return w
}
