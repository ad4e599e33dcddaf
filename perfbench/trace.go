package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/campaign"
	"repro/internal/experiments"
	"repro/internal/scenario"
)

// span is one traced call from the benchmark into a layer.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // -1 at top level
	Name     string `json:"name"`
	Layer    string `json:"layer"`
	Workload string `json:"workload"`
	Run      string `json:"run"`
	StartNs  int64  `json:"start_ns"` // since the tracer started
	EndNs    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. The benchmark calls
// into the library from one goroutine, so a stack gives each span its
// parent. A nil *tracer records nothing: the untraced drive of the
// overhead comparison runs the same code with tracing off.
type tracer struct {
	run   string
	t0    time.Time
	spans []span
	stack []int
}

func newTracer(run string) *tracer { return &tracer{run: run, t0: time.Now()} }

func (t *tracer) begin(workload, layer, name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Name: name, Layer: layer, Workload: workload, Run: t.run,
		StartNs: time.Since(t.t0).Nanoseconds(),
	})
	t.stack = append(t.stack, id)
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].EndNs = time.Since(t.t0).Nanoseconds()
	t.stack = t.stack[:len(t.stack)-1]
}

// selfTime is each span's duration minus the part its children cover,
// summed per workload and layer, in milliseconds. Children of one span
// never overlap (one calling goroutine), so their durations add.
func (t *tracer) selfTime() map[string]map[string]float64 {
	self := make([]int64, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.EndNs - s.StartNs
		if s.Parent >= 0 {
			self[s.Parent] -= s.EndNs - s.StartNs
		}
	}
	out := map[string]map[string]float64{}
	for i, s := range t.spans {
		if out[s.Workload] == nil {
			out[s.Workload] = map[string]float64{}
		}
		out[s.Workload][s.Layer] += float64(self[i]) / 1e6
	}
	return out
}

// overheadReps is how many untraced and traced drives of the named
// workload the overhead comparison alternates.
const overheadReps = 2

// tracedLayers are the layers the drives put spans around; their self
// time is reported per run. The substrate layers below experiments.SweepN
// are seen through the ladder instead.
var tracedLayers = []string{"campaign", "ckptsim", "core", "experiments", "explore", "jobstream", "store"}

// runTraced is the traced run: every workload's decomposed drive with
// spans around each layer call, the overhead comparison on the named
// workload, and the substrate ladder. It reports the per-layer metrics.
func runTraced(o options, wl *workload, rep *report) (*result, error) {
	c := &ops{rep: rep, failCheck: o.failCheck}
	// The ladder gets about a third of the run: 23 rungs of calibration
	// plus three samples each.
	ps, target, samples := probeSizes, time.Duration(o.seconds*0.35/100*float64(time.Second)), 3
	if o.tiny {
		ps, target, samples = warmSizes, 2*time.Millisecond, 1
	}
	tr := newTracer(fmt.Sprintf("%s-seed%d-%d", o.workload, o.seed, processStart.UnixNano()))
	metrics := map[string]metric{}

	// 1. Every workload's drive, traced: per-layer self time and counters.
	ls := newLayerStats()
	for i := range workloads {
		w := &workloads[i]
		id := tr.begin(w.name, "bench", "drive")
		_, err := w.drive(tr, o, ps, ls, c)
		tr.end(id)
		if !c.call(w.name+" traced drive", err) {
			return nil, err
		}
	}

	// 2. Tracing overhead on the named workload: the same drive with
	// tracing off and on, alternated.
	var off, on []float64
	var digests [2]string
	for i := 0; i < overheadReps; i++ {
		for _, traced := range []bool{false, true} {
			var t *tracer
			if traced {
				t = newTracer(tr.run + "-overhead")
			}
			t0 := time.Now()
			d, err := wl.drive(t, o, ps, newLayerStats(), c)
			s := time.Since(t0).Seconds()
			if !c.call(fmt.Sprintf("%s drive (traced=%v)", wl.name, traced), err) {
				continue
			}
			if traced {
				on, digests[1] = append(on, s), d
			} else {
				off, digests[0] = append(off, s), d
			}
		}
	}
	c.check("trace_digest", digests[0] != "" && digests[0] == digests[1],
		"untraced %s, traced %s", digests[0], digests[1])
	untraced, traced := median(off), median(on)
	metrics["trace.untraced_s"] = metric{untraced, "s"}
	metrics["trace.traced_s"] = metric{traced, "s"}
	rep.linef("tracing overhead on %s: %.2f%% (traced %.4f s vs untraced %.4f s, median of %d)",
		wl.name, 100*(traced/untraced-1), traced, untraced, overheadReps)

	// 3. The substrate ladder and the worker scaling of intra trials.
	f, err := newFixtures(o)
	if !c.call("ladder fixtures", err) {
		return nil, err
	}
	lm, err := runLadder(f, tr, target, samples)
	if !c.call("ladder", err) {
		return nil, err
	}
	for k, v := range lm {
		metrics[k] = v
	}
	scaling, err := workerScaling(o, ps)
	if !c.call("worker scaling", err) {
		return nil, err
	}
	metrics["experiments.worker_scaling_x"] = metric{scaling, "ratio"}

	for k, v := range ls.metrics() {
		metrics[k] = v
	}
	// Model output, not a cost: reported beside the metrics, not among them.
	rep.named("campaign.crash_trial_frac", float64(ls.crashed)/float64(max(ls.replicated, 1)), "ratio")
	self := tr.selfTime()
	for _, layer := range tracedLayers {
		total := 0.0
		for w, byLayer := range self {
			if w != "ladder" {
				total += byLayer[layer]
			}
		}
		metrics["self_ms."+layer] = metric{total, "ms"}
	}
	reportSelfTime(rep, self)
	if err := writeTrace(o.traceOut, tr, self, untraced, traced); !c.call("write trace", err) {
		return nil, err
	}
	rep.linef("trace: %d spans written to %s", len(tr.spans), o.traceOut)
	for _, k := range sortedKeys(metrics) {
		rep.named(k, metrics[k].Value, metrics[k].Unit)
	}
	return c.result(metrics), nil
}

// reportSelfTime prints the self-time table, workload by layer.
func reportSelfTime(rep *report, self map[string]map[string]float64) {
	for _, w := range sortedKeys(self) {
		for _, layer := range sortedKeys(self[w]) {
			rep.linef("self %-16s %-12s %12.3f ms", w, layer, self[w][layer])
		}
	}
}

func writeTrace(path string, tr *tracer, self map[string]map[string]float64, untraced, traced float64) error {
	b, err := json.MarshalIndent(struct {
		Run       string                        `json:"run"`
		Spans     []span                        `json:"spans"`
		SelfMs    map[string]map[string]float64 `json:"self_ms"`
		Untraced  float64                       `json:"untraced_s"`
		Traced    float64                       `json:"traced_s"`
		GoVersion string                        `json:"go_version"`
	}{tr.run, tr.spans, self, untraced, traced, runtime.Version()}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// workerScaling is intra trials/s at Workers=nproc over Workers=1, on the
// GTC intra trial specs of the probe.
func workerScaling(o options, ps sizes) (float64, error) {
	scs, err := campaignAxis("gtc", gtcConfig, scenario.Intra, intraAxis)
	if err != nil {
		return 0, err
	}
	pts, err := campaign.PreparePoints(campaign.Config{Seed: subSeed(o.seed, 5, 0), Workers: o.workers}, scs)
	if err != nil {
		return 0, err
	}
	var specs []experiments.Spec
	for _, p := range pts {
		for t := 0; t < ps.gtcTrials; t++ {
			s, _ := p.TrialSpec(t)
			specs = append(specs, s)
		}
	}
	rate := func(workers int) (float64, error) {
		t0 := time.Now()
		_, err := experiments.SweepN(workers, specs)
		return float64(len(specs)) / time.Since(t0).Seconds(), err
	}
	one, err := rate(1)
	if err != nil {
		return 0, err
	}
	all, err := rate(o.workers)
	return all / one, err
}

// layerStats accumulates the counters the drives observe at layer
// boundaries.
type layerStats struct {
	simulated     []experiments.Result // trial results that ran a simulation
	trialSpecs    int
	memoized      int
	updateBytes   []float64 // per intra trial
	replicated    int
	crashed       int
	allocs, bytes map[string]uint64 // per trial mode, over the trial phase
	trials        map[string]int
	prepareS      float64
	exploreSpent  [2]int // refine+bisect, tau
	cellMs        map[string]float64
}

func newLayerStats() *layerStats {
	return &layerStats{
		allocs: map[string]uint64{}, bytes: map[string]uint64{}, trials: map[string]int{},
		cellMs: map[string]float64{},
	}
}

// memDelta measures heap allocations around fn.
func memDelta(fn func() error) (mallocs, bytes uint64, err error) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	err = fn()
	runtime.ReadMemStats(&b)
	return b.Mallocs - a.Mallocs, b.TotalAlloc - a.TotalAlloc, err
}

// addTrials folds one trial phase of a mode in.
func (ls *layerStats) addTrials(mode string, res []experiments.Result, mallocs, bytes uint64) {
	ls.allocs[mode] += mallocs
	ls.bytes[mode] += bytes
	ls.trials[mode] += len(res)
	for _, r := range res {
		ls.trialSpecs++
		if r.Memoized {
			ls.memoized++
		} else {
			ls.simulated = append(ls.simulated, r)
		}
		if mode == "intra" {
			ls.updateBytes = append(ls.updateBytes, float64(r.UpdateBytes))
		}
	}
}

func (ls *layerStats) metrics() map[string]metric {
	var events, ms []float64
	for _, r := range ls.simulated {
		events = append(events, float64(r.SimEvents))
		ms = append(ms, r.ElapsedMS)
	}
	out := map[string]metric{
		"sim.events_per_trial":        {mean(events), "count"},
		"core.update_bytes_per_trial": {mean(ls.updateBytes), "B"},
		"experiments.spec_ms.p50":     {quantile(ms, 0.5), "ms"},
		"experiments.spec_ms.p99":     {quantile(ms, 0.99), "ms"},
		"experiments.memo_hit_frac":   {float64(ls.memoized) / float64(max(ls.trialSpecs, 1)), "ratio"},
		"campaign.prepare_s":          {ls.prepareS, "s"},
		"explore.trials_to_answer":    {float64(ls.exploreSpent[0]), "count"},
		"explore.tau_trials":          {float64(ls.exploreSpent[1]), "count"},
	}
	for _, mode := range []string{"intra", "classic", "ccr"} {
		n := float64(max(ls.trials[mode], 1))
		out["campaign.allocs_per_trial."+mode] = metric{float64(ls.allocs[mode]) / n, "count"}
		out["campaign.bytes_per_trial."+mode] = metric{float64(ls.bytes[mode]) / n, "B"}
	}
	for _, p := range sortedKeys(ls.cellMs) {
		out["jobstream.cell_ms."+p] = metric{ls.cellMs[p], "ms"}
	}
	return out
}

// aggregate folds a point's trial walls into the campaign's metric triple.
func aggregate(p *campaign.Point, walls []float64) [3]campaign.Stat {
	var aggs [3]campaign.Agg
	for _, w := range walls {
		m, s, e := p.Metrics(w)
		aggs[0].Add(m)
		aggs[1].Add(s)
		aggs[2].Add(e)
	}
	return [3]campaign.Stat{aggs[0].Stat(), aggs[1].Stat(), aggs[2].Stat()}
}
