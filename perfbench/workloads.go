package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"

	"repro/internal/campaign"
	"repro/internal/explore"
	"repro/internal/fault"
	"repro/internal/jobstream"
	"repro/internal/scenario"
	"repro/internal/store"
)

// gtcConfig is the GTC configuration of
// scenarios/campaign-ccr-vs-replication.json, pinned here so that editing
// the scenario file cannot silently change what the benchmark measures.
const gtcConfig = `{"Cells": 64, "PerCell": 25, "Zones": 8, "Steps": 2, "Dt": 0.02, "Scale": 64, "ShiftFrac": 0.05, "AuxBytes": 180, "IntraCharge": true, "IntraPush": true}`

// hpccgConfig is the HPCCG job of the jobstream-policies arrival stream.
const hpccgConfig = `{"Iters": 5, "Scale": 64}`

// jobMix is the jobstream-policies workload (scenarios/jobstream-policies.json)
// with an AMG and a MiniGhost class added beside HPCCG and GTC, so the
// stencil kernels run too.
const jobMix = `{"workload": {
  "nodes": 32, "jobs": 50, "rates_jobs_per_sec": [4, 10], "mtbf_seconds": 0.6, "seed": 11,
  "mix": [
    {"name": "hpccg-wide", "app": "hpccg", "config": {"Iters": 5, "Scale": 64}, "logical": 8, "weight": 1},
    {"name": "hpccg-small", "app": "hpccg", "config": {"Iters": 5, "Scale": 64}, "logical": 4, "weight": 2},
    {"name": "gtc-small", "app": "gtc", "config": {"Steps": 2, "Scale": 512}, "logical": 2, "weight": 1},
    {"name": "amg-small", "app": "amg", "config": {"Iters": 4, "Scale": 64}, "logical": 4, "weight": 1},
    {"name": "minighost-small", "app": "minighost", "config": {"Steps": 4, "Scale": 64}, "logical": 4, "weight": 1}
  ],
  "schedulers": ["fcfs", "easy", "kchoices"],
  "policies": ["native", "replicate", "ccr", "adaptive"]
}}`

// The MTBF axes, per replica (= per node) in seconds. The intra campaign
// spans the paper's failure-rate range; the crossover axis brackets the
// classic-vs-ccr crossover (about 0.1-0.2 s on this GTC configuration),
// and the explorer starts from its two ends.
var (
	intraAxis     = []float64{0.02, 0.1, 0.5}
	crossoverAxis = []float64{0.05, 0.1, 0.2, 0.4}
	exploreAxis   = []float64{0.05, 0.4}
)

// The paper's fault-free efficiency bands (§V): SDR-MPI about 0.5,
// intra-parallelization 0.7-0.8. The checks allow 0.05 either side.
var (
	sdrBand   = [2]float64{0.45, 0.55}
	intraBand = [2]float64{0.65, 0.85}
)

// bracketRatio is the explorer's target: hi/lo of the final crossover
// bracket.
const bracketRatio = 1.5

// sizes fixes how much work one round, warm-up pass or traced drive does.
type sizes struct {
	gtcTrials, hpccgTrials int // intra-campaign trials per MTBF point
	axisTrials             int // crossover-study trials per MTBF point
	exploreSeeds           int // explore.Run calls per round
	exploreBudget          int // 0 = the explorer's default
	jobTrials, jobJobs     int // jobstream trials per cell, arrivals per trial (0 = workload's)
	jobRates               int // leading arrival rates kept (0 = all)
}

// fullSizes split one intra round about evenly between its GTC and HPCCG
// halves and keep every step (one input variant on one and on two
// workers) at two to four seconds of wall time on a 2-vCPU Xeon, so that a
// 36-second run holds about ten steps or more. probeSizes are the traced
// drives: big enough for every layer to show (over 1000 simulated trial
// specs), small enough that three drives and the overhead repetitions fit
// one run. warmSizes are the warm-up pass, and every size of the
// self-tests.
var (
	fullSizes  = sizes{gtcTrials: 90, hpccgTrials: 8, axisTrials: 300, exploreSeeds: 4, jobTrials: 1, jobJobs: 20}
	probeSizes = sizes{gtcTrials: 30, hpccgTrials: 4, axisTrials: 250, jobJobs: 20}
	warmSizes  = sizes{gtcTrials: 10, hpccgTrials: 2, axisTrials: 20, exploreSeeds: 1, exploreBudget: 600, jobTrials: 1, jobJobs: 10, jobRates: 1}
)

// subSeed derives an independent, nonzero seed for one consumer (stream)
// of the workload seed, in one input variant.
func subSeed(seed int64, stream, variant int) int64 {
	s := fault.TrialSeed(seed, stream, variant)
	if s == 0 {
		s = 1
	}
	return s
}

// roundOut is what one measured round reports.
type roundOut struct {
	digest string
	// units of work in the throughput phase (trials or jobs) and the host
	// time it took; answer is the host time of the call that produces the
	// workload's answer.
	units  float64
	unit   hostTime
	answer hostTime
	// named holds the workload's own named metrics (wall-clock based) for
	// the report.
	named map[string]float64
}

// roundFunc runs one measured round of a set-up workload on input variant
// v with the given sweep workers: every variant derives its own seeds from
// the workload seed, so a run's median spans several inputs and no single
// draw dominates it.
type roundFunc func(c *ops, v, workers int) (roundOut, error)

// workload is one named benchmark workload.
type workload struct {
	name string
	// namedUnits are the units of the workload's own named metrics.
	namedUnits map[string]string
	// setup builds and validates the workload's inputs and runs a warm-up
	// pass at small size.
	setup func(o options, sz sizes) (roundFunc, error)
	// drive runs the workload decomposed into its layer calls, with a span
	// around each when tr is non-nil, and returns its results' digest.
	drive func(tr *tracer, o options, sz sizes, ls *layerStats, c *ops) (string, error)
}

var workloads = []workload{
	{
		name:       "intra-campaign",
		namedUnits: map[string]string{"intra_trials_per_s": "trials/s", "intra_gtc_s": "s", "intra_hpccg_s": "s"},
		setup:      setupIntra,
		drive:      driveIntra,
	},
	{
		name: "crossover-study",
		namedUnits: map[string]string{
			"classic_trials_per_s": "trials/s", "ccr_trials_per_s": "trials/s",
			"merge_s": "s", "crossover_answer_s": "s",
		},
		setup: setupCrossover,
		drive: driveCrossover,
	},
	{
		name:       "jobstream-mix",
		namedUnits: map[string]string{"jobs_per_s": "jobs/s"},
		setup:      setupJobstream,
		drive:      driveJobstream,
	},
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

func workloadByName(name string) (*workload, bool) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], true
		}
	}
	return nil, false
}

// warmUp collects the warm-up pass's calls and checks, which are not
// timed and do not count toward ops_failed_frac; a failed call still fails
// the set-up. The pass runs on one worker: parallel sweeps burn a varying
// amount of CPU with scheduling (jobstream cells can race to simulate the
// same job twice), which would make setup_s noisy rather than slower.
func warmUp() *ops { return &ops{rep: newReport(io.Discard)} }

// warmUpSeed seeds every warm-up pass, so that a set-up does the same work
// whatever the workload seed is.
const warmUpSeed = 1

// warmOptions are the options of a warm-up pass.
func warmOptions(o options) options {
	o.seed = warmUpSeed
	return o
}

// digestOf hashes the JSON encoding of simulated results. Every result
// type hashed here carries virtual times and counts only, no host times.
func digestOf(v any) (string, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8]), nil
}

// campaignPoint builds one validated campaign scenario on 8 logical ranks
// (degree 2 for the replicated modes).
func campaignPoint(app, cfg string, mode scenario.Mode, mtbf float64) (campaign.Scenario, error) {
	sc := scenario.Scenario{
		Name:   fmt.Sprintf("%s/%s/p8/mtbf%g", app, mode.Name(), mtbf),
		App:    app,
		Config: json.RawMessage(cfg),
		Mode:   mode, Logical: 8,
		Fault: &scenario.FaultSpec{MTBFSeconds: mtbf},
	}
	if mode.Replicated() {
		sc.Degree = 2
	}
	if err := sc.Validate(); err != nil {
		return campaign.Scenario{}, err
	}
	return campaign.FromScenario(sc)
}

func campaignAxis(app, cfg string, mode scenario.Mode, axis []float64) ([]campaign.Scenario, error) {
	var out []campaign.Scenario
	for _, m := range axis {
		sc, err := campaignPoint(app, cfg, mode, m)
		if err != nil {
			return nil, err
		}
		out = append(out, sc)
	}
	return out, nil
}

// checkBand checks every scenario's fault-free efficiency against a band.
func checkBand(c *ops, name string, band [2]float64, results ...*campaign.Result) {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, r := range results {
		for _, s := range r.Scenarios {
			lo = math.Min(lo, s.FaultFreeEfficiency)
			hi = math.Max(hi, s.FaultFreeEfficiency)
		}
	}
	c.check(name, lo >= band[0] && hi <= band[1],
		"fault-free efficiency %.3f..%.3f within [%.2f, %.2f]", lo, hi, band[0], band[1])
}

// --- intra-campaign ---

type intraInst struct {
	o          options
	sz         sizes
	gtc, hpccg []campaign.Scenario
}

func setupIntra(o options, sz sizes) (roundFunc, error) {
	in := &intraInst{o: o, sz: sz}
	var err error
	if in.gtc, err = campaignAxis("gtc", gtcConfig, scenario.Intra, intraAxis); err != nil {
		return nil, err
	}
	if in.hpccg, err = campaignAxis("hpccg", hpccgConfig, scenario.Intra, intraAxis); err != nil {
		return nil, err
	}
	warm := *in
	warm.sz = warmSizes
	warm.o = warmOptions(o)
	_, err = warm.round(warmUp(), 0, 1)
	return in.round, err
}

func (in *intraInst) run(scs []campaign.Scenario, trials, v, workers int) (*campaign.Result, hostTime, error) {
	t0 := now()
	res, err := campaign.Run(campaign.Config{Trials: trials, Seed: subSeed(in.o.seed, 1, v), Workers: workers}, scs)
	return res, t0.since(), err
}

func (in *intraInst) round(c *ops, v, workers int) (roundOut, error) {
	gtcRes, gtcS, err := in.run(in.gtc, in.sz.gtcTrials, v, workers)
	if !c.call("campaign.Run(gtc intra)", err) {
		return roundOut{}, err
	}
	hpRes, hpS, err := in.run(in.hpccg, in.sz.hpccgTrials, v, workers)
	if !c.call("campaign.Run(hpccg intra)", err) {
		return roundOut{}, err
	}
	checkBand(c, "intra_band", intraBand, gtcRes, hpRes)
	d, err := digestOf([]*campaign.Result{gtcRes, hpRes})
	if err != nil {
		return roundOut{}, err
	}
	trials := float64(len(in.gtc)*in.sz.gtcTrials + len(in.hpccg)*in.sz.hpccgTrials)
	both := gtcS.add(hpS)
	// The answer is the GTC campaign: the paper's efficiency-under-failures
	// curve for one application.
	return roundOut{
		digest: d, units: trials, unit: both, answer: gtcS,
		named: map[string]float64{
			"intra_trials_per_s": trials / both.wall,
			"intra_gtc_s":        gtcS.wall,
			"intra_hpccg_s":      hpS.wall,
		},
	}, nil
}

// --- crossover-study ---

type crossoverInst struct {
	o            options
	sz           sizes
	classic, ccr []campaign.Scenario
	exploreGrid  []campaign.Scenario
}

func setupCrossover(o options, sz sizes) (roundFunc, error) {
	in := &crossoverInst{o: o, sz: sz}
	var err error
	if in.classic, err = campaignAxis("gtc", gtcConfig, scenario.Classic, crossoverAxis); err != nil {
		return nil, err
	}
	if in.ccr, err = campaignAxis("gtc", gtcConfig, scenario.CCR, crossoverAxis); err != nil {
		return nil, err
	}
	if in.exploreGrid, err = exploreGrid(); err != nil {
		return nil, err
	}
	warm := *in
	warm.sz = warmSizes
	warm.o = warmOptions(o)
	_, err = warm.round(warmUp(), 0, 1)
	return in.round, err
}

func (in *crossoverInst) campaignCfg(st *store.Store, v, workers int) campaign.Config {
	return campaign.Config{Trials: in.sz.axisTrials, Seed: subSeed(in.o.seed, 2, v), Workers: workers, Store: st}
}

// timedRun times one store-backed campaign.
func (in *crossoverInst) timedRun(c *ops, name string, st *store.Store, scs []campaign.Scenario, v, workers int) (*campaign.Result, hostTime, bool) {
	t0 := now()
	res, err := campaign.Run(in.campaignCfg(st, v, workers), scs)
	s := t0.since()
	return res, s, c.call(name, err)
}

func (in *crossoverInst) exploreCfg(j, v, workers int) explore.Config {
	return explore.Config{
		Budget: in.sz.exploreBudget, BracketRatio: bracketRatio,
		Seed: subSeed(in.o.seed, 20+j, v), Workers: workers,
	}
}

func (in *crossoverInst) round(c *ops, v, workers int) (roundOut, error) {
	dir, err := os.MkdirTemp(in.o.tmp, "xover-")
	if err != nil {
		return roundOut{}, err
	}
	defer os.RemoveAll(dir)

	// 1. Cold: both campaigns simulate into a fresh store.
	cold, err := store.Open(dir, "cold")
	if !c.call("store.Open(cold)", err) {
		return roundOut{}, err
	}
	classicRes, classicS, ok1 := in.timedRun(c, "campaign.Run(classic, cold)", cold, in.classic, v, workers)
	ccrRes, ccrS, ok2 := in.timedRun(c, "campaign.Run(ccr, cold)", cold, in.ccr, v, workers)
	if err := cold.Close(); !c.call("store.Close(cold)", err) || !ok1 || !ok2 {
		return roundOut{}, fmt.Errorf("cold campaigns failed")
	}

	// 2. Warm: a fresh handle on the same directory re-derives both
	// campaigns from the store, as `sweep merge` does.
	t0 := now()
	warm, err := store.Open(dir, "warm")
	if !c.call("store.Open(warm)", err) {
		return roundOut{}, err
	}
	classicWarm, err1 := campaign.Run(in.campaignCfg(warm, v, workers), in.classic)
	ccrWarm, err2 := campaign.Run(in.campaignCfg(warm, v, workers), in.ccr)
	mergeS := t0.since()
	stats := warm.Stats()
	_ = warm.Close() // read-mostly handle; the warm result is already checked below
	if !c.call("campaign.Run(classic, warm)", err1) || !c.call("campaign.Run(ccr, warm)", err2) {
		return roundOut{}, fmt.Errorf("warm campaigns failed")
	}
	c.check("warm_misses", stats.Misses == 0, "warm re-run: %d hits, %d misses", stats.Hits, stats.Misses)
	coldJSON, _ := json.Marshal([]*campaign.Result{classicRes, ccrRes})
	warmJSON, _ := json.Marshal([]*campaign.Result{classicWarm, ccrWarm})
	c.check("warm_identical", string(coldJSON) == string(warmJSON),
		"warm output %d bytes, byte-identical to cold: %v", len(warmJSON), string(coldJSON) == string(warmJSON))
	checkBand(c, "sdr_band", sdrBand, classicRes)

	// 3. The explorer locates the same crossover adaptively.
	grid := gridCrossover(classicRes, ccrRes)
	var answer hostTime
	var explored []*explore.Result
	for j := 0; j < in.sz.exploreSeeds; j++ {
		t := now()
		er, err := explore.Run(in.exploreCfg(j, v, workers), in.exploreGrid)
		answer = answer.add(t.since())
		if !c.call("explore.Run", err) {
			return roundOut{}, err
		}
		explored = append(explored, er)
		checkExploreCrossover(c, er, grid)
	}
	d, err := digestOf(struct {
		Classic, CCR *campaign.Result
		Explore      []*explore.Result
	}{classicRes, ccrRes, explored})
	if err != nil {
		return roundOut{}, err
	}
	classicN := float64(len(in.classic) * in.sz.axisTrials)
	ccrN := float64(len(in.ccr) * in.sz.axisTrials)
	answer = answer.scale(1 / float64(in.sz.exploreSeeds)) // per explore.Run
	return roundOut{
		digest: d, units: classicN + ccrN, unit: classicS.add(ccrS), answer: answer,
		named: map[string]float64{
			"classic_trials_per_s": classicN / classicS.wall,
			"ccr_trials_per_s":     ccrN / ccrS.wall,
			"merge_s":              mergeS.wall,
			"crossover_answer_s":   answer.wall,
		},
	}, nil
}

// gridCrossover is the fixed grid's estimate of the per-node MTBF where the
// measured ccr efficiency crosses the measured classic efficiency,
// log-interpolated between the bracketing axis points (0 = no crossing).
func gridCrossover(repl, ccr *campaign.Result) float64 {
	replAt := map[float64]float64{}
	for _, s := range repl.Scenarios {
		replAt[s.MTBFSeconds] = s.Efficiency.Mean
	}
	type pt struct{ mtbf, diff float64 }
	var pts []pt
	for _, s := range ccr.Scenarios {
		if r, ok := replAt[s.MTBFSeconds]; ok {
			pts = append(pts, pt{s.MTBFSeconds, s.Efficiency.Mean - r})
		}
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i].mtbf < pts[j].mtbf })
	for i := 1; i < len(pts); i++ {
		a, b := pts[i-1], pts[i]
		if (a.diff < 0) == (b.diff < 0) {
			continue
		}
		la, lb := math.Log(a.mtbf), math.Log(b.mtbf)
		return math.Exp(la + (lb-la)*(-a.diff)/(b.diff-a.diff))
	}
	return 0
}

// checkExploreCrossover requires the explorer's measured crossover to lie
// within two bracket ratios of the fixed grid's.
func checkExploreCrossover(c *ops, er *explore.Result, grid float64) {
	got := 0.0
	for _, x := range er.Crossovers {
		if x.ReplMode == scenario.Classic.String() {
			got = x.MeasuredNodeMTBFSeconds
		}
	}
	limit := bracketRatio * bracketRatio
	ratio := math.Max(got/grid, grid/got)
	c.check("explore_crossover", got > 0 && grid > 0 && ratio <= limit,
		"explorer %.4g s vs grid %.4g s (ratio %.3f, limit %.3f)", got, grid, ratio, limit)
}

// --- jobstream-mix ---

type jobsInst struct {
	o  options
	sz sizes
	w  *scenario.Workload
}

// mixWorkload parses and validates the job mix, trimmed to sz.
func mixWorkload(sz sizes) (*scenario.Workload, error) {
	f, err := scenario.Parse([]byte(jobMix))
	if err != nil {
		return nil, err
	}
	w := f.Workload
	if sz.jobJobs > 0 {
		w.Jobs = sz.jobJobs
	}
	if sz.jobRates > 0 {
		w.Rates = w.Rates[:sz.jobRates]
	}
	if err := w.Validate(); err != nil {
		return nil, err
	}
	return w, jobstream.CheckNames(w)
}

func setupJobstream(o options, sz sizes) (roundFunc, error) {
	w, err := mixWorkload(sz)
	if err != nil {
		return nil, err
	}
	in := &jobsInst{o: o, sz: sz, w: w}
	warm := *in
	warm.sz = warmSizes
	warm.o = warmOptions(o)
	if warm.w, err = mixWorkload(warmSizes); err != nil {
		return nil, err
	}
	_, err = warm.round(warmUp(), 0, 1)
	return in.round, err
}

func (in *jobsInst) round(c *ops, v, workers int) (roundOut, error) {
	cfg := jobstream.Config{Trials: in.sz.jobTrials, Seed: subSeed(in.o.seed, 3, v), Workers: workers}
	t0 := now()
	res, err := jobstream.Run(cfg, in.w)
	s := t0.since()
	if !c.call("jobstream.Run", err) {
		return roundOut{}, err
	}
	checkJobCounts(c, res)
	d, err := digestOf(res)
	if err != nil {
		return roundOut{}, err
	}
	jobs := float64(submitted(res))
	// The answer is the whole schedulers × policies figure, so on this
	// workload answer_cpu_s is the throughput call's CPU time per step.
	return roundOut{
		digest: d, units: jobs, unit: s, answer: s,
		named: map[string]float64{"jobs_per_s": jobs / s.wall},
	}, nil
}

func submitted(res *jobstream.Result) int {
	n := 0
	for _, g := range res.Groups {
		n += g.Jobs
	}
	return n
}

// checkJobCounts requires every submitted job to end completed or failed.
// A failed job is model output (the policy lost it to a node failure), not
// a failed operation.
func checkJobCounts(c *ops, res *jobstream.Result) {
	jobs, done, failed := 0, 0, 0
	for _, g := range res.Groups {
		jobs += g.Jobs
		done += g.Completed
		failed += g.Failed
	}
	c.check("job_accounting", jobs > 0 && done+failed == jobs,
		"completed %d + failed %d = submitted %d", done, failed, jobs)
}
