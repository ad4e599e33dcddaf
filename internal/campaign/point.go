package campaign

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"

	"repro/internal/ckpt"
	"repro/internal/ckptsim"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// Point is one prepared scenario point of an adaptive campaign: the
// fault-free references are measured, the cCR machine parameters and the
// failure window are resolved, and trials are exposed one index at a time
// instead of as a fixed-size batch. The adaptive explorer builds on it.
//
// Unlike Run, whose trial seeds derive from the scenario's position in the
// grid (fault.TrialSeed(seed, index, trial)), a Point's trial stream is
// seeded from the scenario's content fingerprint. Any driver that reaches
// the same point — whatever subset, ordering or dynamically chosen probe
// got it there — draws the identical trials, so adaptive aggregates are a
// prefix-extension of any other run's and warm store hits line up across
// campaigns that never saw each other's grids.
type Point struct {
	Scenario  Scenario
	PhysProcs int

	// NativeWall is the unreplicated reference wall time in seconds;
	// FFWall / FFEff the scenario mode's fault-free wall time (checkpoints
	// included for ccr) and resource-normalized efficiency.
	NativeWall float64
	FFWall     float64
	FFEff      float64

	// Params is the resolved cCR machine (ccr points only); Delta and
	// Restart are the analytic comparison's checkpoint parameters for
	// replicated points, resolved with Run's defaulting rules.
	Params  ckptsim.Params
	Delta   float64
	Restart float64
	// Horizon is the crash-draw window; Grow marks the defaulted ccr
	// window that doubles per trial until it covers the stretched makespan.
	Horizon sim.Time
	Grow    bool
	// Seed is the fingerprint-derived trial-stream seed: trial t draws
	// with fault.TrialSeed(Seed, 0, t); auxiliary streams (the optimal-tau
	// search's common random traces) use stream indices >= 1.
	Seed int64

	fp       string // scenario fingerprint (see scenarioFingerprint)
	nativeFP string
	template experiments.Spec
	replay   *core.TraceSet
}

// PointSeed derives the trial-stream seed of one scenario from the master
// seed and the scenario's content fingerprint. It is independent of grid
// position, so two drivers exploring overlapping scenario sets draw
// identical trial streams for the shared points.
func PointSeed(master int64, scenarioFP string) int64 {
	sum := sha256.Sum256([]byte(scenarioFP))
	h := int64(binary.LittleEndian.Uint64(sum[:8]))
	return fault.TrialSeed(master^h, 0, 0)
}

// PreparePoints measures the fault-free references of the scenarios (one
// sweep, memo- and store-backed like Run's phase 1) and returns one
// prepared Point per scenario, in input order.
func PreparePoints(cfg Config, scenarios []Scenario) ([]*Point, error) {
	_, base, templates, err := planReferences(cfg, scenarios)
	if err != nil {
		return nil, err
	}
	baseRes, traces, err := measureReferences(cfg, scenarios, base, templates)
	if err != nil {
		return nil, err
	}
	pts := make([]*Point, len(scenarios))
	for i, sc := range scenarios {
		native, ff := baseRes[2*i], baseRes[2*i+1]
		p := &Point{
			Scenario:   sc,
			PhysProcs:  ff.PhysProcs,
			NativeWall: native.Measure.Wall.Seconds(),
		}
		sfp, err := scenarioFingerprint(sc)
		if err != nil {
			return nil, err
		}
		p.fp = sfp
		nfp, err := sc.nativeScenario().Fingerprint()
		if err != nil {
			return nil, fmt.Errorf("campaign: %w", err)
		}
		p.nativeFP = nfp
		p.Seed = PointSeed(cfg.Seed, sfp)

		horizon := sc.Horizon
		if horizon == 0 {
			horizon = cfg.Horizon
		}
		if sc.Point.Mode == scenario.CCR {
			w := p.NativeWall
			p.Params = cfg.ckptParams(sc, w, sc.MTBF.Seconds()/float64(sc.Point.Logical))
			if err := p.Params.Validate(); err != nil {
				return nil, fmt.Errorf("campaign: scenario %q: %w", sc.Point.Name, err)
			}
			p.FFWall = p.Params.FaultFreeMakespan(w)
			p.FFEff = w / p.FFWall * experiments.Efficiency(native.Measure, ff.Measure)
			p.Delta, p.Restart = p.Params.Delta, p.Params.Restart
			if horizon == 0 {
				horizon = sim.Seconds(p.FFWall)
				p.Grow = true
			}
		} else {
			p.FFWall = ff.Measure.Wall.Seconds()
			p.FFEff = experiments.Efficiency(native.Measure, ff.Measure)
			p.Delta = cfg.CkptDelta
			if p.Delta <= 0 {
				p.Delta = 0.05 * p.FFWall
			}
			p.Restart = cfg.CkptRestart
			if p.Restart <= 0 {
				p.Restart = p.Delta
			}
			if horizon == 0 {
				horizon = ff.Measure.Wall
			}
			p.template = templates[i]
			p.replay = traces[i]
		}
		p.Horizon = horizon
		pts[i] = p
	}
	return pts, nil
}

// IsCCR reports whether trials replay under ckptsim instead of simulating
// replicated executions.
func (p *Point) IsCCR() bool { return p.Scenario.Point.Mode == scenario.CCR }

// Fingerprint is the canonical identity of the point (scenario + native
// reference + MTBF + horizon), the basis of its seed and store keys.
func (p *Point) Fingerprint() string { return p.fp }

// NativeFingerprint identifies the shared native baseline, the pairing key
// for crossover series.
func (p *Point) NativeFingerprint() string { return p.nativeFP }

// TrialSpec lays out replicated trial t as a sweep spec (panics on ccr
// points, which have no replicated execution). The draw is returned for
// crash accounting.
func (p *Point) TrialSpec(t int) (experiments.Spec, fault.Draw) {
	if p.IsCCR() {
		panic("campaign: TrialSpec on a ccr point")
	}
	sc := p.Scenario
	d := fault.ExponentialDraw(sc.Point.Logical, sc.Point.EffectiveDegree(), sc.MTBF, p.Horizon,
		fault.TrialSeed(p.Seed, 0, t))
	spec := p.template
	spec.Name = fmt.Sprintf("%s/x%04d", sc.Point.Name, t)
	spec.Fault = d.Schedule
	spec.Replay = p.replay
	return spec, d
}

// CCRTrial replays ccr trial t (panics on replicated points).
func (p *Point) CCRTrial(t int) ckptsim.Trial {
	if !p.IsCCR() {
		panic("campaign: CCRTrial on a replicated point")
	}
	sc := p.Scenario
	return ccrTrial(p.NativeWall, p.Params, sc.Point.Logical, sc.MTBF, p.Horizon, p.Grow,
		fault.TrialSeed(p.Seed, 0, t))
}

// ReplayTrace draws auxiliary failure-trace stream `stream` >= 1, index k,
// for the point's system — the optimal-tau search's common random numbers.
// The window doubles from the point's horizon until the replayed makespan
// at the given params fits (the unclamped draw extends prefix-stably), so
// one trace serves every candidate interval.
func (p *Point) ReplayTrace(stream, k int, params ckptsim.Params) ckptsim.Trial {
	if !p.IsCCR() {
		panic("campaign: ReplayTrace on a replicated point")
	}
	sc := p.Scenario
	return ccrTrial(p.NativeWall, params, sc.Point.Logical, sc.MTBF, p.Horizon, true,
		fault.TrialSeed(p.Seed, stream, k))
}

// Metrics converts one trial's wall time into the campaign's metric triple.
func (p *Point) Metrics(wall float64) (makespan, slowdown, eff float64) {
	slowdown = wall / p.FFWall
	return wall, slowdown, p.FFEff / slowdown
}

// SysMTBF is the MTBF of the unreplicated system on the point's node
// count — the axis Daly's model and the crossover are expressed in.
func (p *Point) SysMTBF() float64 {
	return p.Scenario.MTBF.Seconds() / float64(p.PhysProcs)
}

// AnalyticEfficiency evaluates the §II model at the point's operating
// point: Daly's cCR efficiency for ccr points (at the interval the replays
// run), the Ferreira-style replicated efficiency otherwise.
func (p *Point) AnalyticEfficiency() float64 {
	if p.IsCCR() {
		return ckpt.Efficiency(p.Params.Tau, p.Params.Delta, p.Params.Restart, p.SysMTBF())
	}
	return ckpt.ReplicatedEfficiency(p.FFEff, p.Scenario.Point.Logical, p.Scenario.MTBF.Seconds(), p.Delta, p.Restart)
}
