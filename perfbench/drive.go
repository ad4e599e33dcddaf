package main

import (
	"encoding/json"
	"os"
	"time"

	"repro/internal/campaign"
	"repro/internal/experiments"
	"repro/internal/explore"
	"repro/internal/fault"
	"repro/internal/jobstream"
	"repro/internal/scenario"
	"repro/internal/store"
)

// The traced drives run each workload decomposed into the calls a
// campaign makes — campaign.PreparePoints, then Point.TrialSpec through
// experiments.SweepN (or SweepStore) and Point.CCRTrial, then the
// aggregation — so references, trace recording, trial simulation and ccr
// replays are separate spans. With a nil tracer they run untraced, which
// is what the overhead comparison times against.

// trialPhase simulates one replicated point's trials through the sweep
// runner (store-backed when st is non-nil), under a span, and folds the
// phase into ls.
func trialPhase(tr *tracer, wl, mode, name string, o options, st *store.Store, p *campaign.Point, n int, ls *layerStats) ([]experiments.Result, error) {
	specs := make([]experiments.Spec, n)
	for t := range specs {
		var draw fault.Draw
		specs[t], draw = p.TrialSpec(t)
		ls.replicated++
		if len(draw.Schedule.Crashes) > 0 {
			ls.crashed++
		}
	}
	var res []experiments.Result
	id := tr.begin(wl, "experiments", name)
	mallocs, bytes, err := memDelta(func() (err error) {
		res, err = experiments.SweepStore(o.workers, st, specs)
		return err
	})
	tr.end(id)
	if err != nil {
		return nil, err
	}
	ls.addTrials(mode, res, mallocs, bytes)
	return res, nil
}

// aggregatePhase folds trial walls into the campaign's statistics under a
// span.
func aggregatePhase(tr *tracer, wl string, p *campaign.Point, walls []float64) [3]campaign.Stat {
	id := tr.begin(wl, "campaign", "campaign.Agg")
	defer tr.end(id)
	return aggregate(p, walls)
}

func walls(res []experiments.Result) []float64 {
	out := make([]float64, len(res))
	for i, r := range res {
		out[i] = r.WallSeconds
	}
	return out
}

// driveIntra is the intra-campaign: references, then each point's intra
// trials (real execution, no replay), then the aggregates.
func driveIntra(tr *tracer, o options, ps sizes, ls *layerStats, c *ops) (string, error) {
	const wl = "intra-campaign"
	gtc, err := campaignAxis("gtc", gtcConfig, scenario.Intra, intraAxis)
	if err != nil {
		return "", err
	}
	hpccg, err := campaignAxis("hpccg", hpccgConfig, scenario.Intra, intraAxis)
	if err != nil {
		return "", err
	}
	id := tr.begin(wl, "campaign", "campaign.PreparePoints")
	t0 := time.Now()
	pts, err := campaign.PreparePoints(campaign.Config{Seed: subSeed(o.seed, 1, 0), Workers: o.workers}, append(gtc, hpccg...))
	ls.prepareS += time.Since(t0).Seconds()
	tr.end(id)
	if err != nil {
		return "", err
	}
	var stats [][3]campaign.Stat
	for i, p := range pts {
		n := ps.gtcTrials
		if i >= len(gtc) {
			n = ps.hpccgTrials
		}
		res, err := trialPhase(tr, wl, "intra", "experiments.SweepN", o, nil, p, n, ls)
		if err != nil {
			return "", err
		}
		stats = append(stats, aggregatePhase(tr, wl, p, walls(res)))
	}
	return digestOf(stats)
}

// nativeOf is a scenario point's unreplicated reference (fixed-size apps).
func nativeOf(sc scenario.Scenario) scenario.Scenario {
	sc.Name += "/native"
	sc.Mode, sc.Degree, sc.Intra, sc.Ckpt, sc.Fault = scenario.Native, 0, nil, nil, nil
	return sc
}

// driveCrossover is the crossover-study: references into a fresh store,
// trace recording, classic trials by trace replay (cold puts), ccr replays,
// a warm re-read of every classic trial, and one explorer run.
func driveCrossover(tr *tracer, o options, ps sizes, ls *layerStats, c *ops) (string, error) {
	const wl = "crossover-study"
	classic, err := campaignAxis("gtc", gtcConfig, scenario.Classic, crossoverAxis)
	if err != nil {
		return "", err
	}
	ccr, err := campaignAxis("gtc", gtcConfig, scenario.CCR, crossoverAxis)
	if err != nil {
		return "", err
	}
	dir, err := os.MkdirTemp(o.tmp, "xover-trace-")
	if err != nil {
		return "", err
	}
	defer os.RemoveAll(dir)
	id := tr.begin(wl, "store", "store.Open")
	st, err := store.Open(dir, "cold")
	tr.end(id)
	if err != nil {
		return "", err
	}
	defer st.Close()

	// References first, so PreparePoints below is served from the store
	// and its self time on the classic points is trace recording alone.
	var refs []experiments.Spec
	for _, sc := range append(append([]campaign.Scenario{}, classic...), ccr...) {
		for _, s := range []scenario.Scenario{nativeOf(sc.Point), sc.Point} {
			spec, err := experiments.SpecFor(s)
			if err != nil {
				return "", err
			}
			refs = append(refs, spec)
		}
	}
	id = tr.begin(wl, "experiments", "experiments.SweepStore(references)")
	_, err = experiments.SweepStore(o.workers, st, refs)
	tr.end(id)
	if err != nil {
		return "", err
	}
	cfg := campaign.Config{Seed: subSeed(o.seed, 2, 0), Workers: o.workers, Store: st}
	id = tr.begin(wl, "campaign", "campaign.PreparePoints(ccr)")
	ccrPts, err := campaign.PreparePoints(cfg, ccr)
	tr.end(id)
	if err != nil {
		return "", err
	}
	id = tr.begin(wl, "core", "campaign.PreparePoints(classic): trace recording")
	classicPts, err := campaign.PreparePoints(cfg, classic)
	tr.end(id)
	if err != nil {
		return "", err
	}

	var stats [][3]campaign.Stat
	var cold [][]experiments.Result
	for _, p := range classicPts {
		res, err := trialPhase(tr, wl, "classic", "experiments.SweepStore(trials, cold)", o, st, p, ps.axisTrials, ls)
		if err != nil {
			return "", err
		}
		cold = append(cold, res)
		stats = append(stats, aggregatePhase(tr, wl, p, walls(res)))
	}
	for _, p := range ccrPts {
		ws := make([]float64, ps.axisTrials)
		id := tr.begin(wl, "ckptsim", "campaign.Point.CCRTrial")
		mallocs, bytes, _ := memDelta(func() error {
			for t := range ws {
				ws[t] = p.CCRTrial(t).Makespan
			}
			return nil
		})
		tr.end(id)
		ls.allocs["ccr"] += mallocs
		ls.bytes["ccr"] += bytes
		ls.trials["ccr"] += len(ws)
		stats = append(stats, aggregatePhase(tr, wl, p, ws))
	}

	// Warm: a second handle re-reads every classic trial from the store.
	if err := st.Close(); err != nil {
		return "", err
	}
	id = tr.begin(wl, "store", "store.Open(warm)")
	warm, err := store.Open(dir, "warm")
	tr.end(id)
	if err != nil {
		return "", err
	}
	defer warm.Close()
	same := true
	for i, p := range classicPts {
		specs := make([]experiments.Spec, ps.axisTrials)
		for t := range specs {
			specs[t], _ = p.TrialSpec(t)
		}
		id := tr.begin(wl, "store", "experiments.SweepStore(trials, warm)")
		res, err := experiments.SweepStore(o.workers, warm, specs)
		tr.end(id)
		if err != nil {
			return "", err
		}
		a, _ := json.Marshal(res)
		b, _ := json.Marshal(cold[i])
		same = same && string(a) == string(b)
	}
	ws := warm.Stats()
	c.check("drive_warm_store", same && ws.Misses == 0,
		"warm re-read: %d hits, %d misses, identical to cold: %v", ws.Hits, ws.Misses, same)

	grid, err := exploreGrid()
	if err != nil {
		return "", err
	}
	id = tr.begin(wl, "explore", "explore.Run")
	er, err := explore.Run(explore.Config{
		Budget: ps.exploreBudget, BracketRatio: bracketRatio, Seed: subSeed(o.seed, 20, 0), Workers: o.workers,
	}, grid)
	tr.end(id)
	if err != nil {
		return "", err
	}
	ls.exploreSpent[0] += er.SpentRefine + er.SpentBisect
	ls.exploreSpent[1] += er.SpentTau
	return digestOf(struct {
		Stats   [][3]campaign.Stat
		Explore *explore.Result
	}{stats, er})
}

// exploreGrid is the explorer's coarse two-point axis per side.
func exploreGrid() ([]campaign.Scenario, error) {
	var out []campaign.Scenario
	for _, mode := range []scenario.Mode{scenario.CCR, scenario.Classic} {
		pts, err := campaignAxis("gtc", gtcConfig, mode, exploreAxis)
		if err != nil {
			return nil, err
		}
		out = append(out, pts...)
	}
	return out, nil
}

// driveJobstream runs the job mix once per fault-tolerance policy, each a
// one-policy sub-workload, so every policy's cell cost is its own span.
func driveJobstream(tr *tracer, o options, ps sizes, ls *layerStats, c *ops) (string, error) {
	const wl = "jobstream-mix"
	w, err := mixWorkload(sizes{jobJobs: ps.jobJobs, jobRates: ps.jobRates})
	if err != nil {
		return "", err
	}
	var results []*jobstream.Result
	for _, pol := range w.Policies {
		sub := *w
		sub.Policies = []string{pol}
		id := tr.begin(wl, "jobstream", "jobstream.Run("+pol+")")
		t0 := time.Now()
		res, err := jobstream.Run(jobstream.Config{Trials: 1, Seed: subSeed(o.seed, 3, 0), Workers: o.workers}, &sub)
		s := time.Since(t0).Seconds()
		tr.end(id)
		if err != nil {
			return "", err
		}
		ls.cellMs[pol] += 1e3 * s / float64(len(res.Groups))
		checkJobCounts(c, res)
		results = append(results, res)
	}
	return digestOf(results)
}
