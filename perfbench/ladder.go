package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/jobstream"
	"repro/internal/kernels"
	"repro/internal/mpi"
	"repro/internal/perf"
	"repro/internal/replication"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/store"
)

// The substrate ladder: one micro body per layer, each timed around calls
// to the layer's exported functions, from one engine event up through a
// store lookup. Bodies run at GOMAXPROCS=1 so a number moves only when the
// layer's own code does.

// stopwatch times the measured part of a body in process CPU time (see
// hostTime) and counts its heap allocations; set-up before start() is
// excluded.
type stopwatch struct {
	t0      stamp
	m0      uint64
	d       time.Duration
	mallocs uint64
}

func (s *stopwatch) start() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.m0 = ms.Mallocs
	s.t0 = now()
}

func (s *stopwatch) stop() {
	s.d = time.Duration(s.t0.since().cpu * float64(time.Second))
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.mallocs = ms.Mallocs - s.m0
}

// rung is one ladder body. run performs the operation n times between
// sw.start and sw.stop and returns how many items the metric divides by
// (n for a per-operation metric).
type rung struct {
	metric string  // per-item time metric
	unit   string  // its unit
	perNs  float64 // unit per nanosecond (1 for ns, 1e-3 for us, 1e-6 for ms)
	allocs string  // optional allocs-per-operation metric
	layer  string  // layer the span is attributed to
	run    func(n int, sw *stopwatch) (items float64, err error)
}

// fixtures are the prepared inputs the upper rungs share.
type fixtures struct {
	tmp         string
	classic     *campaign.Point // GTC classic point (trace replay trials)
	ccr         *campaign.Point // GTC ccr point
	classicSpec experiments.Spec
	apps        map[string]experiments.Spec // native spec per app
	record      experiments.Result          // a trial result, the stored payload
	effs        []float64                   // a point's efficiency samples
}

func newFixtures(o options) (*fixtures, error) {
	classicSc, err := campaignPoint("gtc", gtcConfig, scenario.Classic, 0.1)
	if err != nil {
		return nil, err
	}
	ccrSc, err := campaignPoint("gtc", gtcConfig, scenario.CCR, 0.1)
	if err != nil {
		return nil, err
	}
	pts, err := campaign.PreparePoints(campaign.Config{Seed: subSeed(o.seed, 4, 0), Workers: 1}, []campaign.Scenario{classicSc, ccrSc})
	if err != nil {
		return nil, err
	}
	f := &fixtures{tmp: o.tmp, classic: pts[0], ccr: pts[1], apps: map[string]experiments.Spec{}}
	if f.classicSpec, err = experiments.SpecFor(classicSc.Point); err != nil {
		return nil, err
	}
	mix, err := mixWorkload(fullSizes)
	if err != nil {
		return nil, err
	}
	natives := []scenario.Scenario{
		{App: "gtc", Config: json.RawMessage(gtcConfig), Logical: 8},
		{App: "hpccg", Config: json.RawMessage(hpccgConfig), Logical: 8},
	}
	for _, cl := range mix.Mix {
		if cl.App == "amg" || cl.App == "minighost" {
			natives = append(natives, scenario.Scenario{App: cl.App, Config: cl.Config, Logical: cl.Logical})
		}
	}
	for _, sc := range natives {
		sc.Name, sc.Mode = sc.App+"/native", scenario.Native
		if f.apps[sc.App], err = experiments.SpecFor(sc); err != nil {
			return nil, err
		}
	}
	spec, _ := f.classic.TrialSpec(0)
	res, err := experiments.SweepN(1, []experiments.Spec{spec})
	if err != nil {
		return nil, err
	}
	f.record = res[0]
	for t := 0; t < 250; t++ {
		_, _, eff := f.ccr.Metrics(f.ccr.CCRTrial(t).Makespan)
		f.effs = append(f.effs, eff)
	}
	return f, nil
}

// hpccgN is the per-rank grid edge of the HPCCG job (the app's default).
const hpccgN = 16

func ladder(f *fixtures) []rung {
	return []rung{
		{metric: "sim.event_ns", unit: "ns", perNs: 1, layer: "sim", run: eventChain},
		{metric: "simnet.transfer_ns", unit: "ns", perNs: 1, layer: "simnet", run: transfers},
		{metric: "mpi.pingpong_ns", unit: "ns", perNs: 1, allocs: "mpi.pingpong_allocs", layer: "mpi", run: pingPong},
		{metric: "mpi.allreduce64_us", unit: "us", perNs: 1e-3, allocs: "mpi.allreduce64_allocs", layer: "mpi", run: allreduce(64)},
		{metric: "mpi.allreduce512_us", unit: "us", perNs: 1e-3, allocs: "mpi.allreduce512_allocs", layer: "mpi", run: allreduce(512)},
		{metric: "replication.logical_send_ns", unit: "ns", perNs: 1, layer: "replication", run: logicalSend},
		{metric: "core.intra_section_us", unit: "us", perNs: 1e-3, allocs: "core.intra_section_allocs", layer: "core", run: intraSection},
		{metric: "core.trace_record_ms", unit: "ms", perNs: 1e-6, layer: "core", run: f.traceRecord},
		{metric: "core.replay_trial_us", unit: "us", perNs: 1e-3, layer: "core", run: f.replayTrials},
		{metric: "kernels.gen27point_ms", unit: "ms", perNs: 1e-6, layer: "kernels", run: gen27},
		{metric: "kernels.spmv_ns_per_nnz", unit: "ns", perNs: 1, layer: "kernels", run: spmv},
		{metric: "kernels.stencil27_ns_per_cell", unit: "ns", perNs: 1, layer: "kernels", run: stencil27},
		{metric: "kernels.pic_ns_per_particle", unit: "ns", perNs: 1, layer: "kernels", run: pic},
		{metric: "apps.native_run_ms.gtc", unit: "ms", perNs: 1e-6, layer: "apps", run: f.nativeRun("gtc")},
		{metric: "apps.native_run_ms.hpccg", unit: "ms", perNs: 1e-6, layer: "apps", run: f.nativeRun("hpccg")},
		{metric: "apps.native_run_ms.amg", unit: "ms", perNs: 1e-6, layer: "apps", run: f.nativeRun("amg")},
		{metric: "apps.native_run_ms.minighost", unit: "ms", perNs: 1e-6, layer: "apps", run: f.nativeRun("minighost")},
		{metric: "fault.draw_us", unit: "us", perNs: 1e-3, layer: "fault", run: f.draws},
		{metric: "ckptsim.replay_us", unit: "us", perNs: 1e-3, layer: "ckptsim", run: f.ccrReplays},
		{metric: "store.put_us", unit: "us", perNs: 1e-3, layer: "store", run: f.puts},
		{metric: "store.get_ns", unit: "ns", perNs: 1, layer: "store", run: f.gets},
		{metric: "campaign.aggregate_us", unit: "us", perNs: 1e-3, layer: "campaign", run: f.aggregate},
		{metric: "jobstream.alloc_release_ns", unit: "ns", perNs: 1, layer: "jobstream", run: allocRelease},
	}
}

// runLadder measures every rung: calibrate n to the per-sample target,
// then take the median of the samples. It also reports the store's
// on-disk bytes per record, which needs no timing.
func runLadder(f *fixtures, tr *tracer, target time.Duration, samples int) (map[string]metric, error) {
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	out := map[string]metric{}
	for _, r := range ladder(f) {
		id := tr.begin("ladder", r.layer, r.metric)
		per, allocs, err := measure(r, target, samples)
		tr.end(id)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", r.metric, err)
		}
		out[r.metric] = metric{per * r.perNs, r.unit}
		if r.allocs != "" {
			out[r.allocs] = metric{allocs, "count"}
		}
	}
	bpr, err := f.bytesPerRecord()
	if err != nil {
		return nil, err
	}
	out["store.bytes_per_record"] = metric{bpr, "B"}
	return out, nil
}

// measure calibrates n until one run lasts about target, then returns the
// median nanoseconds per item and allocations per operation over samples.
func measure(r rung, target time.Duration, samples int) (nsPerItem, allocsPerOp float64, err error) {
	n := 1
	for {
		var sw stopwatch
		if _, err := r.run(n, &sw); err != nil {
			return 0, 0, err
		}
		if sw.d >= target/4 {
			n = max(1, int(float64(n)*float64(target)/float64(sw.d)))
			break
		}
		grow := 16
		if sw.d > 0 {
			grow = int(float64(target)/float64(sw.d)) + 1
		}
		n *= min(max(grow, 2), 16)
	}
	var per, allocs []float64
	for i := 0; i < samples; i++ {
		var sw stopwatch
		items, err := r.run(n, &sw)
		if err != nil {
			return 0, 0, err
		}
		per = append(per, float64(sw.d.Nanoseconds())/items)
		allocs = append(allocs, float64(sw.mallocs)/float64(n))
	}
	return median(per), median(allocs), nil
}

// --- sim, simnet, mpi, replication, core ---

func eventChain(n int, sw *stopwatch) (float64, error) {
	e := sim.New()
	left := n
	var tick func()
	tick = func() {
		if left--; left > 0 {
			e.After(1, tick)
		}
	}
	e.After(1, tick)
	sw.start()
	err := e.Run()
	sw.stop()
	return float64(n), err
}

// relay re-sends a 4 KiB transfer between two nodes each time the previous
// one is delivered.
type relay struct {
	net  *simnet.Network
	tr   simnet.Transfer
	left int
}

func (r *relay) Fire() {
	if r.left--; r.left > 0 {
		r.net.SendInto(&r.tr, 0, 1, 4096, r)
	}
}

func transfers(n int, sw *stopwatch) (float64, error) {
	e := sim.New()
	r := &relay{net: simnet.New(e, simnet.InfiniBand20G, 2), left: n}
	r.net.SendInto(&r.tr, 0, 1, 4096, r)
	sw.start()
	err := e.Run()
	sw.stop()
	return float64(n), err
}

// pingPong is a recycled 1 KiB Send/Recv round trip between two ranks on
// one node.
func pingPong(n int, sw *stopwatch) (float64, error) {
	e := sim.New()
	w := mpi.NewWorld(e, simnet.New(e, simnet.InfiniBand20G, 1), 2, perf.Grid5000, nil)
	payload := make([]float64, 128)
	var firstErr error
	fail := func(err error) {
		if firstErr == nil {
			firstErr = err
		}
	}
	w.Launch("ping", 0, func(r *mpi.Rank) {
		for i := 0; i < n; i++ {
			if err := r.Send(r.World(), 1, 0, payload, nil); err != nil {
				fail(err)
				return
			}
			m, err := r.Recv(r.World(), 1, 1)
			if err != nil {
				fail(err)
				return
			}
			w.RecycleMessage(m)
		}
	})
	w.Launch("pong", 1, func(r *mpi.Rank) {
		for i := 0; i < n; i++ {
			m, err := r.Recv(r.World(), 0, 0)
			if err != nil {
				fail(err)
				return
			}
			w.RecycleMessage(m)
			if err := r.Send(r.World(), 0, 1, payload, nil); err != nil {
				fail(err)
				return
			}
		}
	})
	sw.start()
	err := e.Run()
	sw.stop()
	if err == nil {
		err = firstErr
	}
	return float64(n), err
}

// allreduce is a scalar sum over ranks ranks, four per node.
func allreduce(ranks int) func(n int, sw *stopwatch) (float64, error) {
	return func(n int, sw *stopwatch) (float64, error) {
		e := sim.New()
		w := mpi.NewWorld(e, simnet.New(e, simnet.InfiniBand20G, ranks/4), ranks, perf.Grid5000, nil)
		var firstErr error
		w.LaunchAll("p", func(r *mpi.Rank) {
			for i := 0; i < n; i++ {
				if _, err := r.AllreduceScalar(r.World(), mpi.OpSum, 1); err != nil {
					if firstErr == nil {
						firstErr = err
					}
					return
				}
			}
		})
		sw.start()
		err := e.Run()
		sw.stop()
		if err == nil {
			err = firstErr
		}
		return float64(n), err
	}
}

// replicated builds a degree-2 system with the send log on, on a fresh
// engine, with the replicas of each logical rank on different nodes.
func replicated(logical int) (*sim.Engine, *replication.System) {
	e := sim.New()
	net := simnet.New(e, simnet.InfiniBand20G, 2)
	w := mpi.NewWorld(e, net, 2*logical, perf.Grid5000, func(rank int) int { return rank / logical })
	return e, replication.New(w, replication.Config{Logical: logical, Degree: 2, SendLog: true})
}

// logicalSend is a 128-byte logical Send/Recv round trip between two
// degree-2 logical ranks; each logical op is one physical message per
// replica.
func logicalSend(n int, sw *stopwatch) (float64, error) {
	e, sys := replicated(2)
	payload := make([]float64, 16)
	var firstErr error
	sys.Launch("p", func(p *replication.Proc) {
		peer := 1 - p.Logical
		for i := 0; i < n; i++ {
			var err error
			if p.Logical == 0 {
				if err = p.Send(peer, 0, payload, nil); err == nil {
					_, err = p.Recv(peer, 1)
				}
			} else if _, err = p.Recv(peer, 0); err == nil {
				err = p.Send(peer, 1, payload, nil)
			}
			if err != nil {
				if firstErr == nil {
					firstErr = err
				}
				return
			}
		}
	})
	sw.start()
	err := e.Run()
	sw.stop()
	if err == nil {
		err = firstErr
	}
	return float64(n), err
}

// intraSection is one intra-parallel section of 8 tasks of a fixed 1 KiB
// output task on core.NewIntra: the two replicas split the tasks and ship
// the updates.
func intraSection(n int, sw *stopwatch) (float64, error) {
	e, sys := replicated(1)
	var firstErr error
	sys.Launch("p", func(p *replication.Proc) {
		rt := core.NewIntra(p, core.Options{})
		out := make(core.Float64s, 8*128)
		task := func(c core.Ctx, args []core.Value) { c.Compute(perf.Work{Flops: 1000}) }
		for i := 0; i < n; i++ {
			rt.SectionBegin()
			id := rt.TaskRegister(task, core.Out)
			for k := 0; k < 8; k++ {
				rt.TaskLaunch(id, out[k*128:(k+1)*128])
			}
			if err := rt.SectionEnd(); err != nil {
				if firstErr == nil {
					firstErr = err
				}
				return
			}
		}
	})
	sw.start()
	err := e.Run()
	sw.stop()
	if err == nil {
		err = firstErr
	}
	return float64(n), err
}

// traceRecord records the classic GTC point's logical-op traces.
func (f *fixtures) traceRecord(n int, sw *stopwatch) (float64, error) {
	sw.start()
	defer sw.stop()
	for i := 0; i < n; i++ {
		if _, err := experiments.RecordTraces(f.classicSpec); err != nil {
			return 0, err
		}
	}
	return float64(n), nil
}

// replayTrials simulates n crash-injected classic trials by trace replay
// on one worker.
func (f *fixtures) replayTrials(n int, sw *stopwatch) (float64, error) {
	specs := make([]experiments.Spec, n)
	for t := range specs {
		specs[t], _ = f.classic.TrialSpec(t)
	}
	sw.start()
	_, err := experiments.SweepN(1, specs)
	sw.stop()
	return float64(n), err
}

// --- kernels and apps, at the job sizes ---

func gen27(n int, sw *stopwatch) (float64, error) {
	sw.start()
	for i := 0; i < n; i++ {
		kernels.Gen27Point(hpccgN, hpccgN, hpccgN, true, true)
	}
	sw.stop()
	return float64(n), nil
}

func spmv(n int, sw *stopwatch) (float64, error) {
	m := kernels.Gen27Point(hpccgN, hpccgN, hpccgN, true, true)
	rows := hpccgN * hpccgN * hpccgN
	x := make([]float64, rows+2*hpccgN*hpccgN) // owned rows plus both halo planes
	for i := range x {
		x[i] = 1
	}
	y := make([]float64, rows)
	sw.start()
	for i := 0; i < n; i++ {
		m.MulVecRange(x, y, 0, rows)
	}
	sw.stop()
	return float64(n) * float64(m.Nnz()), nil
}

// stencil27 sweeps the AMG job's 8^3 fine grid.
func stencil27(n int, sw *stopwatch) (float64, error) {
	const edge = 8
	in, out := kernels.NewSlab(edge, edge, edge), kernels.NewSlab(edge, edge, edge)
	for i := range in.Interior() {
		in.Interior()[i] = float64(i % 7)
	}
	sw.start()
	for i := 0; i < n; i++ {
		kernels.Stencil27Range(in, out, 26, -1, 0, edge)
	}
	sw.stop()
	return float64(n) * edge * edge * edge, nil
}

// pic pushes and deposits the GTC job's particles (64 cells x 25).
func pic(n int, sw *stopwatch) (float64, error) {
	const cells, perCell = 64, 25
	ps := kernels.NewParticles(cells*perCell, 0, cells)
	rho, phi := make([]float64, cells), make([]float64, cells)
	for i := range phi {
		phi[i] = float64(i%5) * 0.01
	}
	sw.start()
	for i := 0; i < n; i++ {
		kernels.Push(ps.Psi, ps.Vpar, phi, 0, cells, 0.02)
		kernels.ChargeDeposit(ps.Psi, ps.W, rho, 0)
	}
	sw.stop()
	return float64(n) * cells * perCell, nil
}

// nativeRun is one fault-free native run of an app through the sweep
// runner; every SweepN call has a fresh memo.
func (f *fixtures) nativeRun(app string) func(n int, sw *stopwatch) (float64, error) {
	return func(n int, sw *stopwatch) (float64, error) {
		spec := []experiments.Spec{f.apps[app]}
		sw.start()
		defer sw.stop()
		for i := 0; i < n; i++ {
			if _, err := experiments.SweepN(1, spec); err != nil {
				return 0, err
			}
		}
		return float64(n), nil
	}
}

// --- fault, ckptsim, store, campaign, jobstream ---

// draws draws 8x2 crash schedules over the classic point's horizon.
func (f *fixtures) draws(n int, sw *stopwatch) (float64, error) {
	sc := f.classic.Scenario
	sw.start()
	for i := 0; i < n; i++ {
		fault.ExponentialDraw(8, 2, sc.MTBF, f.classic.Horizon, int64(i))
	}
	sw.stop()
	return float64(n), nil
}

func (f *fixtures) ccrReplays(n int, sw *stopwatch) (float64, error) {
	sw.start()
	for t := 0; t < n; t++ {
		f.ccr.CCRTrial(t)
	}
	sw.stop()
	return float64(n), nil
}

// storeKey is the content address of the i-th ladder record.
func storeKey(i int) string { return store.Key(fmt.Sprintf("perfbench-record-%d", i)) }

// puts appends n trial records to a fresh store (cold).
func (f *fixtures) puts(n int, sw *stopwatch) (float64, error) {
	dir, err := os.MkdirTemp(f.tmp, "store-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(dir, "")
	if err != nil {
		return 0, err
	}
	sw.start()
	for i := 0; i < n && err == nil; i++ {
		err = st.Put("perfbench", storeKey(i), f.record)
	}
	sw.stop()
	if cerr := st.Close(); err == nil {
		err = cerr
	}
	return float64(n), err
}

// warmStoreRecords is the number of records behind the warm-get rung.
const warmStoreRecords = 1024

// gets looks records up in a warm store; every lookup must hit.
func (f *fixtures) gets(n int, sw *stopwatch) (float64, error) {
	dir, err := os.MkdirTemp(f.tmp, "store-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(dir, "")
	if err != nil {
		return 0, err
	}
	defer st.Close() // a scratch store, deleted with dir
	keys := make([]string, warmStoreRecords)
	for i := range keys {
		keys[i] = storeKey(i)
		if err := st.Put("perfbench", keys[i], f.record); err != nil {
			return 0, err
		}
	}
	misses := 0
	sw.start()
	for i := 0; i < n; i++ {
		if _, ok := st.Get("perfbench", keys[i%len(keys)]); !ok {
			misses++
		}
	}
	sw.stop()
	if misses > 0 {
		return 0, fmt.Errorf("warm store missed %d of %d lookups", misses, n)
	}
	return float64(n), nil
}

// bytesPerRecord is the on-disk size of one stored trial record.
func (f *fixtures) bytesPerRecord() (float64, error) {
	dir, err := os.MkdirTemp(f.tmp, "store-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(dir, "")
	if err != nil {
		return 0, err
	}
	for i := 0; i < warmStoreRecords; i++ {
		if err := st.Put("perfbench", storeKey(i), f.record); err != nil {
			return 0, err
		}
	}
	if err := st.Close(); err != nil {
		return 0, err
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.jsonl"))
	if err != nil {
		return 0, err
	}
	total := int64(0)
	for _, name := range files {
		fi, err := os.Stat(name)
		if err != nil {
			return 0, err
		}
		total += fi.Size()
	}
	return float64(total) / warmStoreRecords, nil
}

// aggregate folds a point's efficiency samples into a campaign.Agg and
// derives its statistics.
func (f *fixtures) aggregate(n int, sw *stopwatch) (float64, error) {
	sw.start()
	for i := 0; i < n; i++ {
		var a campaign.Agg
		for _, x := range f.effs {
			a.Add(x)
		}
		a.Stat()
	}
	sw.stop()
	return float64(n), nil
}

// allocRelease places and frees an 8-node job on the 32-node cluster of
// the job mix.
func allocRelease(n int, sw *stopwatch) (float64, error) {
	c := jobstream.NewCluster(32)
	c.Alloc(4, nil) // a held prefix, so allocation scans past busy nodes
	dst := make([]int, 0, 8)
	sw.start()
	for i := 0; i < n; i++ {
		dst = c.Alloc(8, dst[:0])
		c.Release(dst)
	}
	sw.stop()
	return float64(n), nil
}
