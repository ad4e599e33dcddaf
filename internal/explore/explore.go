// Package explore is the adaptive campaign driver: it spends one global
// trial budget where statistical uncertainty is highest instead of
// spreading a fixed grid's identical batches over settled and contested
// points alike.
//
// Three engines share the budget, in deterministic order:
//
//  1. CI-width-driven refinement runs trials in fixed-size batches per
//     scenario point; after each round the next batches go to the points
//     with the widest relative CI95 on efficiency/makespan, until every
//     point meets the target or the budget runs out.
//  2. Measured-crossover bisection replaces the fixed grid's
//     log-interpolation: it bisects the per-node MTBF axis between a
//     measured replication series and a measured cCR series, each probe a
//     budgeted mini-campaign that stops as soon as the two efficiency
//     CI95s separate, until the bracket is narrower than the configured
//     ratio.
//  3. Optimal-tau search golden-sections the checkpoint interval of each
//     ccr grid point over microsecond-cheap ckptsim.Replay evaluations on
//     a common set of seeded failure traces, cross-checked against
//     ckpt.OptimalInterval.
//
// Determinism is the load-bearing property. Every point's trial stream is
// seeded from its content fingerprint (campaign.PointSeed), not its grid
// position, and trial indices are consumed in stable ascending blocks — so
// an adaptive run's per-point aggregate is a byte-identical
// prefix-extension of any fixed run over the same indices, the output is
// identical at any worker count, and a store-backed re-run is fully warm
// (misses=0) even for probe points the original grid never named.
package explore

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/campaign"
	"repro/internal/ckpt"
	"repro/internal/experiments"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/store"
)

// Config are the explorer-wide knobs.
type Config struct {
	// Budget is the global number of trials the three engines may spend
	// (replicated simulations, ccr replays and tau-search replays all
	// count one each). Default 4000.
	Budget int
	// Round is the per-point batch size of one allocation round (and of
	// one bisection probe step per side). Default 10, minimum 2 — a CI
	// needs two samples.
	Round int
	// TargetCI is the refinement goal: the widest acceptable relative
	// CI95 (half-width / |mean|) on a point's efficiency and makespan.
	// Default 0.05.
	TargetCI float64
	// BracketRatio is where bisection stops: the final crossover bracket
	// satisfies hi/lo <= BracketRatio. Default 1.5.
	BracketRatio float64
	// TauTraces is the number of common seeded failure traces behind each
	// optimal-tau objective evaluation. Default 24.
	TauTraces int

	Seed    int64
	Workers int

	// Horizon, CkptDelta, CkptRestart, CkptTau have campaign.Config
	// semantics and flow through unchanged.
	Horizon     sim.Time
	CkptDelta   float64
	CkptRestart float64
	CkptTau     float64

	// Store, when non-nil, backs every simulation with the persistent
	// result cache and persists per-cell aggregates, bisection outcomes
	// and tau results as content-keyed records. Records already present
	// are byte-compared against the recomputation — a mismatch means
	// nondeterminism or corruption and fails the run.
	Store *store.Store
}

func (cfg Config) withDefaults() Config {
	if cfg.Budget <= 0 {
		cfg.Budget = 4000
	}
	if cfg.Round <= 0 {
		cfg.Round = 10
	}
	if cfg.Round < 2 {
		cfg.Round = 2
	}
	if cfg.TargetCI <= 0 {
		cfg.TargetCI = 0.05
	}
	if cfg.BracketRatio <= 1 {
		cfg.BracketRatio = 1.5
	}
	if cfg.TauTraces <= 0 {
		cfg.TauTraces = 24
	}
	return cfg
}

// campaignConfig maps the shared knobs onto the campaign layer.
func (cfg Config) campaignConfig() campaign.Config {
	return campaign.Config{
		Seed: cfg.Seed, Workers: cfg.Workers, Horizon: cfg.Horizon,
		CkptDelta: cfg.CkptDelta, CkptRestart: cfg.CkptRestart, CkptTau: cfg.CkptTau,
		Store: cfg.Store,
	}
}

// cell is one explored point: a prepared campaign.Point plus the running
// aggregates over the trial prefix consumed so far.
type cell struct {
	p       *campaign.Point
	aggs    [3]campaign.Agg // makespan, slowdown, efficiency
	n       int             // trials folded: indices [0, n)
	crashes int
	grid    int // index into the input grid; -1 for bisection probes
}

// relCI is the cell's uncertainty measure: the wider of the relative CI95s
// on makespan and efficiency (+Inf below two trials or at zero mean).
func (c *cell) relCI() float64 {
	if c.n < 2 {
		return math.Inf(1)
	}
	r := relOf(c.aggs[0].Stat())
	if e := relOf(c.aggs[2].Stat()); e > r {
		r = e
	}
	return r
}

func relOf(s campaign.Stat) float64 {
	if math.IsNaN(s.CI95) || s.Mean == 0 {
		return math.Inf(1)
	}
	return s.CI95 / math.Abs(s.Mean)
}

type explorer struct {
	cfg    Config
	cells  []*cell // grid cells, input order
	probes []*cell // bisection probe cells, creation order
	rounds int

	spent       int
	spentRefine int
	spentBisect int
	spentTau    int

	crossovers []CrossoverResult
	tau        []TauResult
	verified   int // store records byte-verified against a previous run
}

// take grants up to n trials from the remaining budget.
func (e *explorer) take(n int) int {
	if left := e.cfg.Budget - e.spent; n > left {
		n = left
	}
	if n < 0 {
		n = 0
	}
	e.spent += n
	return n
}

// tryTake grants exactly n trials or none.
func (e *explorer) tryTake(n int) bool {
	if e.cfg.Budget-e.spent < n {
		return false
	}
	e.spent += n
	return true
}

// Run executes the adaptive campaign over the scenario grid.
func Run(cfg Config, scenarios []campaign.Scenario) (*Result, error) {
	cfg = cfg.withDefaults()
	points, err := campaign.PreparePoints(cfg.campaignConfig(), scenarios)
	if err != nil {
		return nil, fmt.Errorf("explore: %w", err)
	}
	e := &explorer{cfg: cfg}
	for i, p := range points {
		e.cells = append(e.cells, &cell{p: p, grid: i})
	}
	if err := e.refine(); err != nil {
		return nil, err
	}
	if err := e.bisectCrossovers(); err != nil {
		return nil, err
	}
	e.tauSearch()
	experiments.Progress.SetStatus(fmt.Sprintf("explore: done, budget %d/%d", e.spent, cfg.Budget))
	res := e.result()
	if cfg.Store != nil {
		if err := e.persist(res); err != nil {
			return nil, err
		}
		res.storeVerified = e.verified
	}
	return res, nil
}

// refine is engine 1: rounds of fixed-size batches, each round allocated
// to the points with the widest relative CI95, widest first, until every
// point meets TargetCI or the budget is gone.
func (e *explorer) refine() error {
	for {
		// Candidates still above target, widest first; ties keep grid
		// order (sort stability), and fresh cells (+Inf) lead round one.
		var cand []int
		for i, c := range e.cells {
			if c.relCI() > e.cfg.TargetCI {
				cand = append(cand, i)
			}
		}
		if len(cand) == 0 {
			break
		}
		sort.SliceStable(cand, func(a, b int) bool {
			return e.cells[cand[a]].relCI() > e.cells[cand[b]].relCI()
		})
		allocs := make([]int, len(e.cells))
		total := 0
		for _, ci := range cand {
			a := e.take(e.cfg.Round)
			if a == 0 {
				break
			}
			allocs[ci] = a
			total += a
		}
		if total == 0 {
			break // budget exhausted
		}
		e.rounds++
		e.spentRefine += total
		widest := e.cells[cand[0]]
		experiments.Progress.SetStatus(fmt.Sprintf(
			"explore: round %d, budget %d/%d, widest %s relCI %.3g",
			e.rounds, e.spent, e.cfg.Budget, widest.p.Scenario.Point.Name, widest.relCI()))
		if err := e.runBatch(e.cells, allocs); err != nil {
			return err
		}
	}
	return nil
}

// runBatch measures trials [n, n+alloc) of each cell and folds them into
// the aggregates in cell order, trial index ascending — the same order any
// fixed-grid run over the same indices would use, so the aggregate partials
// stay byte-identical. Replicated trials flow through one sweep (pool
// saturation, memo, store); ccr replays fan out over the worker count.
func (e *explorer) runBatch(cells []*cell, allocs []int) error {
	var specs []experiments.Spec
	specAt := make([]int, len(cells)) // cell -> first spec index, -1 = none
	type job struct{ cell, trial int }
	var jobs []job
	for i, c := range cells {
		specAt[i] = -1
		a := allocs[i]
		if a == 0 {
			continue
		}
		if c.p.IsCCR() {
			for t := c.n; t < c.n+a; t++ {
				jobs = append(jobs, job{i, t})
			}
			continue
		}
		specAt[i] = len(specs)
		for t := c.n; t < c.n+a; t++ {
			spec, _ := c.p.TrialSpec(t)
			specs = append(specs, spec)
		}
	}
	trialRes, err := experiments.SweepStore(e.cfg.Workers, e.cfg.Store, specs)
	if err != nil {
		return fmt.Errorf("explore trials: %w", err)
	}
	replayWalls := make([]float64, len(jobs))
	replayFails := make([]int, len(jobs))
	experiments.ForEach(e.cfg.Workers, len(jobs), func(j int) {
		tr := cells[jobs[j].cell].p.CCRTrial(jobs[j].trial)
		replayWalls[j] = tr.Makespan
		replayFails[j] = tr.Failures
	})
	// Fold in deterministic order: cells in slice order, trials ascending.
	ji := 0
	for i, c := range cells {
		a := allocs[i]
		if a == 0 {
			continue
		}
		for k := 0; k < a; k++ {
			var wall float64
			if c.p.IsCCR() {
				wall = replayWalls[ji]
				c.crashes += replayFails[ji]
				ji++
			} else {
				r := trialRes[specAt[i]+k]
				wall = r.Measure.Wall.Seconds()
				c.crashes += r.Crashes
			}
			mk, sd, eff := c.p.Metrics(wall)
			c.aggs[0].Add(mk)
			c.aggs[1].Add(sd)
			c.aggs[2].Add(eff)
		}
		c.n += a
	}
	return nil
}

// bisectCrossovers is engine 2: pair each measured ccr series with the
// replicated series sharing its native baseline, bracket the efficiency
// crossover on the refined grid, then bisect the per-node MTBF axis with
// budgeted CI-separated probes until the bracket ratio meets the target.
func (e *explorer) bisectCrossovers() error {
	pairs := pairSeries(e.cells)
	for _, pr := range pairs {
		x := CrossoverResult{
			App:          pr.repl[0].p.Scenario.Point.App,
			ReplMode:     pr.repl[0].p.Scenario.Point.Mode.String(),
			Logical:      pr.repl[0].p.Scenario.Point.Logical,
			Degree:       pr.repl[0].p.Scenario.Point.EffectiveDegree(),
			CCRPhysProcs: pr.ccr[0].p.PhysProcs,
		}
		ccr0 := pr.ccr[0].p
		x.AnalyticNodeMTBFSeconds = ckpt.CrossoverMTBF(
			ccr0.Params.Delta, ccr0.Params.Restart, pr.repl[0].p.FFEff) * float64(ccr0.PhysProcs)

		// The shared refined axis, ascending, with the efficiency
		// difference (ccr - repl) at each sampled MTBF.
		replAt := map[float64]*cell{}
		for _, c := range pr.repl {
			replAt[c.p.Scenario.MTBF.Seconds()] = c
		}
		var axis []axisSample
		for _, c := range pr.ccr {
			m := c.p.Scenario.MTBF.Seconds()
			if rc, ok := replAt[m]; ok {
				axis = append(axis, axisSample{
					mtbf: m,
					diff: c.aggs[2].Stat().Mean - rc.aggs[2].Stat().Mean,
				})
			}
		}
		sort.Slice(axis, func(a, b int) bool { return axis[a].mtbf < axis[b].mtbf })
		x.GridNodeMTBFSeconds = gridInterpolate(axis)

		// First adjacent sign change brackets the crossover.
		bi := -1
		for i := 1; i < len(axis); i++ {
			if (axis[i-1].diff < 0) != (axis[i].diff < 0) {
				bi = i
				break
			}
		}
		if bi < 0 {
			e.crossovers = append(e.crossovers, x)
			continue
		}
		lo, hi := axis[bi-1], axis[bi]
		out, err := e.bisect(bracket{
			lo: lo.mtbf, hi: hi.mtbf, dlo: lo.diff, dhi: hi.diff,
			targetRatio: e.cfg.BracketRatio,
		}, pr)
		if err != nil {
			return err
		}
		x.BracketLoSeconds, x.BracketHiSeconds = out.lo, out.hi
		x.BracketRatio = out.hi / out.lo
		x.MeasuredNodeMTBFSeconds = out.mid
		x.Separated = out.separated
		x.Probes = out.probes
		x.Trials = out.trials
		e.crossovers = append(e.crossovers, x)
	}
	return nil
}

// axisSample is one shared-MTBF grid sample of the efficiency difference
// (ccr mean - replicated mean).
type axisSample struct {
	mtbf, diff float64
}

// gridInterpolate is the fixed-grid estimator the bisection supersedes:
// log-linear interpolation between the first bracketing sampled MTBFs
// (campaign's measured-crossover rule), kept in the output for comparison.
func gridInterpolate(axis []axisSample) float64 {
	for i := 1; i < len(axis); i++ {
		a, b := axis[i-1], axis[i]
		if a.diff == 0 {
			return a.mtbf
		}
		if (a.diff < 0) == (b.diff < 0) {
			continue
		}
		la, lb := math.Log(a.mtbf), math.Log(b.mtbf)
		return math.Exp(la + (lb-la)*(0-a.diff)/(b.diff-a.diff))
	}
	if n := len(axis); n > 0 && axis[n-1].diff == 0 {
		return axis[n-1].mtbf
	}
	return 0
}

// pair is a crossover pairing: a ccr series and a replicated series over
// the same native baseline, each MTBF-ascending in grid order.
type pairT struct {
	repl, ccr []*cell
}

// pairSeries groups grid cells into series (same native fingerprint, mode,
// sizing) in first-appearance order and pairs replicated with ccr series
// sharing a native baseline — campaign.Run's crossover rule.
func pairSeries(cells []*cell) []pairT {
	type seriesKey struct {
		base            string
		mode            string
		logical, degree int
	}
	var order []seriesKey
	byKey := map[seriesKey][]*cell{}
	for _, c := range cells {
		sc := c.p.Scenario.Point
		k := seriesKey{c.p.NativeFingerprint(), sc.Mode.String(), sc.Logical, sc.EffectiveDegree()}
		if _, ok := byKey[k]; !ok {
			order = append(order, k)
		}
		byKey[k] = append(byKey[k], c)
	}
	ccrName := scenario.CCR.String()
	var out []pairT
	for _, rk := range order {
		if rk.mode == ccrName {
			continue
		}
		for _, ck := range order {
			if ck.mode != ccrName || ck.base != rk.base {
				continue
			}
			out = append(out, pairT{repl: byKey[rk], ccr: byKey[ck]})
		}
	}
	return out
}
