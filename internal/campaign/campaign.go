// Package campaign runs Monte Carlo failure campaigns: many seeded
// replicated simulations per scenario point, with crash schedules drawn
// from an exponential per-replica MTBF (fault.ExponentialDraw), aggregated
// into expected-makespan, workload-efficiency and failure-survival
// statistics with confidence intervals.
//
// A campaign measures both sides of the paper's §II comparison. The
// replicated side crashes replicas mid-run (clamped fault.ExponentialDraw
// schedules) and times the recovered executions. The checkpoint/restart
// side (scenario mode "ccr") measures the competing scheme the same way:
// the scenario's fault-free makespan — one memoized native sweep run — is
// replayed per trial under an unclamped seeded failure trace with periodic
// checkpoints, rollback re-execution and restarts (internal/ckptsim), and
// both measured series are reported next to Daly's analytic prediction,
// including the crossover MTBF found from the measured data next to
// ckpt.CrossoverMTBF.
//
// Every replicated trial is one experiments.Spec, so campaigns inherit the
// sweep runner's worker pool, content-keyed memo and deterministic
// ordering: trials whose draw contains no crash are simulated once and
// served from the memo, and the aggregate output is byte-identical for any
// worker count. The ccr trials fan out over the same worker count, each a
// deterministic replay. All randomness flows from Config.Seed through
// fault.TrialSeed, so a campaign is reproducible from (seed, scenario
// grid) alone.
package campaign

import (
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"sort"

	"repro/internal/ckpt"
	"repro/internal/ckptsim"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/store"
)

// Scenario is one point of the campaign grid: a canonical scenario under a
// replicated or checkpoint/restart fault-tolerance mode, subjected to an
// exponential per-replica failure process of mean MTBF. The campaign layer
// is a thin adapter over scenario.Scenario: every reference and trial run
// goes through experiments.SpecFor.
type Scenario struct {
	// Point is the scenario the failures perturb, in its fault-free form
	// (its Fault field must be empty; the campaign draws the schedules).
	// Replicated modes crash replicas inside the simulation; ccr points
	// replay their native makespan under ckptsim.
	Point scenario.Scenario
	// MTBF is the per-replica mean time between failures.
	MTBF sim.Time
	// Horizon overrides Config.Horizon for this scenario (0 = inherit).
	Horizon sim.Time

	// Native optionally overrides the unreplicated reference run used for
	// the resource-normalized efficiency metric. Nil derives it from Point
	// (same app/config/platform in native mode: the Figure 6
	// constant-problem protocol); weak-scaling campaigns (HPCCG, Figure 5)
	// set it to the full physical budget on the ungrown problem.
	Native *scenario.Scenario
}

// FromScenario adapts a scenario-file point carrying an MTBF fault model
// (fault.mtbf_seconds > 0) into a campaign scenario. For weak-scaling apps
// it reconstructs the CLI grid's native reference — the full physical
// budget on the degree-shrunk per-rank problem — so the efficiency
// baseline is identical whether a point came from flags or from a file.
func FromScenario(sc scenario.Scenario) (Scenario, error) {
	if sc.Fault == nil || sc.Fault.MTBFSeconds <= 0 {
		return Scenario{}, fmt.Errorf("campaign: scenario %q has no MTBF fault model", sc.Name)
	}
	if len(sc.Fault.Crashes) > 0 {
		return Scenario{}, fmt.Errorf("campaign: scenario %q mixes explicit crashes with an MTBF", sc.Name)
	}
	out := Scenario{
		MTBF:    sim.Seconds(sc.Fault.MTBFSeconds),
		Horizon: sim.Seconds(sc.Fault.HorizonSeconds),
	}
	sc.Fault = nil
	out.Point = sc
	native, err := weakScalingNative(sc)
	if err != nil {
		return Scenario{}, err
	}
	out.Native = native
	return out, nil
}

// weakScalingNative builds the weak-scaling native reference of a point,
// or nil for fixed-size apps and unreplicated (ccr) points, whose
// reference is the point itself in native mode.
func weakScalingNative(sc scenario.Scenario) (*scenario.Scenario, error) {
	if !sc.Mode.Replicated() {
		return nil, nil
	}
	ent, err := scenario.AppByName(sc.App)
	if err != nil {
		return nil, fmt.Errorf("campaign: %w", err)
	}
	if !ent.WeakScaling || ent.ShrinkPerDegree == nil {
		return nil, nil
	}
	cfg, err := sc.AppConfig()
	if err != nil {
		return nil, fmt.Errorf("campaign: %w", err)
	}
	d := sc.EffectiveDegree()
	if err := ent.ShrinkPerDegree(cfg, d); err != nil {
		return nil, fmt.Errorf("campaign: scenario %q: %w", sc.Name, err)
	}
	return &scenario.Scenario{
		App: sc.App, Config: scenario.MustRaw(cfg),
		Mode: scenario.Native, Logical: sc.Logical * d,
		Net: sc.Net, Machine: sc.Machine,
		NetConfig: sc.NetConfig, MachineConfig: sc.MachineConfig,
	}, nil
}

// nativeScenario is the unreplicated reference of the point.
func (sc Scenario) nativeScenario() scenario.Scenario {
	if sc.Native != nil {
		n := *sc.Native
		if n.Name == "" {
			n.Name = sc.Point.Name + "/native"
		}
		return n
	}
	n := sc.Point
	n.Name = sc.Point.Name + "/native"
	n.Mode = scenario.Native
	n.Degree = 0
	n.Intra = nil
	n.Ckpt = nil
	n.Fault = nil
	return n
}

// Config are the campaign-wide knobs.
type Config struct {
	Trials  int   // seeded trials per scenario (0 = default 100)
	Seed    int64 // master seed; trial seeds derive via fault.TrialSeed
	Workers int   // sweep workers (0 = GOMAXPROCS)

	// Horizon bounds the crash-drawing window — a hard cap for every
	// fault-tolerance side. Zero uses each scenario's measured fault-free
	// wall time (checkpoints included for ccr points), and the defaulted
	// ccr window additionally grows until it covers a failure-stretched
	// makespan, so the failure process covers exactly the execution it
	// perturbs.
	Horizon sim.Time

	// CkptDelta / CkptRestart parameterize the cCR machine — both the
	// analytic comparison and the measured ccr-mode replays — in seconds.
	// Zero defaults delta to 5% of the scenario's fault-free wall time and
	// restart to delta. CkptTau is the ccr replay's checkpoint interval
	// (0 = Daly's optimal interval at each scenario's system MTBF). A
	// scenario's own Ckpt options take precedence over all three.
	CkptDelta   float64
	CkptRestart float64
	CkptTau     float64

	// Store, when non-nil, backs every simulation with the persistent
	// result cache: references and replicated trials already present are
	// served without simulating, fresh ones are appended, and the
	// campaign's per-scenario aggregates are persisted as mergeable
	// count/sum/sumsq records (see Populate for the sharded producer).
	// The aggregate output is byte-identical with or without a store.
	Store *store.Store
}

// ckptParams resolves the cCR machine parameters of one scenario from the
// scenario's Ckpt options, the campaign config, and the defaults, given
// the measured native wall time W and the system MTBF.
func (cfg Config) ckptParams(sc Scenario, w, sysMTBF float64) ckptsim.Params {
	var o scenario.CkptOptions
	if sc.Point.Ckpt != nil {
		o = *sc.Point.Ckpt
	}
	p := ckptsim.Params{Tau: o.TauSeconds, Delta: o.DeltaSeconds, Restart: o.RestartSeconds}
	if p.Delta == 0 {
		p.Delta = cfg.CkptDelta
	}
	if p.Delta == 0 {
		p.Delta = 0.05 * w
	}
	if p.Restart == 0 {
		p.Restart = cfg.CkptRestart
	}
	if p.Restart == 0 {
		p.Restart = p.Delta
	}
	if p.Tau == 0 {
		p.Tau = cfg.CkptTau
	}
	if p.Tau == 0 {
		p.Tau = ckpt.OptimalInterval(p.Delta, p.Restart, sysMTBF)
	}
	return p
}

// Stat summarizes one metric over a scenario's trials: mean, sample
// standard deviation, 95% confidence half-width (normal approximation),
// and range. With fewer than two samples there is no dispersion estimate:
// CI95 is NaN (JSON null, "-" in tables), never a misleading zero that
// reads as a perfectly tight interval.
type Stat struct {
	Mean float64 `json:"mean"`
	Std  float64 `json:"std"`
	CI95 float64 `json:"ci95"`
	Min  float64 `json:"min"`
	Max  float64 `json:"max"`
}

// statJSON is the wire form of Stat: ci95 is nullable because NaN has no
// JSON encoding.
type statJSON struct {
	Mean float64  `json:"mean"`
	Std  float64  `json:"std"`
	CI95 *float64 `json:"ci95"`
	Min  float64  `json:"min"`
	Max  float64  `json:"max"`
}

// MarshalJSON encodes an undefined CI95 (fewer than two trials) as null.
func (s Stat) MarshalJSON() ([]byte, error) {
	w := statJSON{Mean: s.Mean, Std: s.Std, Min: s.Min, Max: s.Max}
	if !math.IsNaN(s.CI95) {
		w.CI95 = &s.CI95
	}
	return json.Marshal(w)
}

// UnmarshalJSON decodes a null ci95 back to NaN.
func (s *Stat) UnmarshalJSON(b []byte) error {
	var w statJSON
	if err := json.Unmarshal(b, &w); err != nil {
		return err
	}
	*s = Stat{Mean: w.Mean, Std: w.Std, CI95: math.NaN(), Min: w.Min, Max: w.Max}
	if w.CI95 != nil {
		s.CI95 = *w.CI95
	}
	return nil
}

// CrashStats counts the injected failures of a scenario's trials.
type CrashStats struct {
	Total           int     `json:"total"`             // crashes injected across all trials
	MeanPerTrial    float64 `json:"mean_per_trial"`    // expected crashes per run
	MaxPerTrial     int     `json:"max_per_trial"`     // worst single trial
	TrialsWithCrash int     `json:"trials_with_crash"` // trials that saw >= 1 failure
	// SuppressedKills counts drawn failures dropped by the survivability
	// clamp (they would have killed a logical rank's last replica), and
	// InterruptedDraws the trials containing at least one: the fraction of
	// runs the raw failure process would have interrupted, forcing a
	// checkpoint restart in a real system.
	SuppressedKills  int `json:"suppressed_kills"`
	InterruptedDraws int `json:"interrupted_draws"`
}

// Analytic is the §II model evaluated at the scenario's operating point,
// for the measured-vs-analytic comparison.
type Analytic struct {
	CkptDeltaSeconds   float64 `json:"ckpt_delta_seconds"`
	CkptRestartSeconds float64 `json:"ckpt_restart_seconds"`
	// CkptTauSeconds is the checkpoint interval a ccr scenario's replays
	// actually ran (Daly's optimal interval unless overridden); zero for
	// replicated scenarios, which never checkpoint inside a run.
	CkptTauSeconds float64 `json:"ckpt_tau_seconds,omitempty"`
	// SystemMTBFSeconds is the MTBF of an unreplicated system on the same
	// node count (MTBF / phys procs): the platform a cCR scheme would run
	// on.
	SystemMTBFSeconds float64 `json:"system_mtbf_seconds"`
	// CCREfficiency is Daly's analytic cCR efficiency at that system MTBF:
	// for ccr scenarios, at the interval the replays ran (CkptTauSeconds),
	// so measured and analytic describe the same machine; for replicated
	// scenarios, at the optimal interval.
	CCREfficiency float64 `json:"ccr_efficiency"`
	// ReplEfficiency is the Ferreira-style replicated efficiency using the
	// measured fault-free efficiency as base (exact for degree 2, the
	// paper's configuration; an approximation otherwise). Zero for ccr
	// scenarios, which have no replicas to model.
	ReplEfficiency float64 `json:"repl_efficiency,omitempty"`
	// CrossoverNodeMTBFSeconds is the per-node MTBF below which cCR on
	// this node count drops under the scenario's measured fault-free
	// efficiency — i.e. where replication starts to win. Zero for ccr
	// scenarios (see Result.Crossovers for the measured pairing).
	CrossoverNodeMTBFSeconds float64 `json:"crossover_node_mtbf_seconds,omitempty"`
}

// Crossover pairs a measured ccr series with a measured replication series
// that shares its native baseline, and reports the per-node MTBF at which
// the measured ccr efficiency drops below the measured replicated
// efficiency — the paper's Fig. 1 crossover — next to the analytic
// ckpt.CrossoverMTBF prediction at the same operating point.
type Crossover struct {
	App      string `json:"app"`
	ReplMode string `json:"repl_mode"` // replicated series: display mode name
	Logical  int    `json:"logical"`   // logical ranks of the replicated series
	Degree   int    `json:"degree"`
	// CCRPhysProcs is the node count of the paired ccr series — the
	// machine whose per-node MTBF both axes below are expressed in.
	CCRPhysProcs int `json:"ccr_phys_procs"`
	// MeasuredNodeMTBFSeconds is log-interpolated between the two sampled
	// MTBF points whose measured efficiencies bracket the crossover; zero
	// when the sampled grid never crosses.
	MeasuredNodeMTBFSeconds float64 `json:"measured_node_mtbf_seconds"`
	// AnalyticNodeMTBFSeconds is ckpt.CrossoverMTBF(delta, restart,
	// measured replicated fault-free efficiency), scaled from system to
	// per-node MTBF by the ccr node count.
	AnalyticNodeMTBFSeconds float64 `json:"analytic_node_mtbf_seconds"`
}

// ScenarioResult aggregates one scenario's trials.
type ScenarioResult struct {
	Name        string  `json:"name"`
	App         string  `json:"app"`
	Mode        string  `json:"mode"`
	Logical     int     `json:"logical"`
	Degree      int     `json:"degree"`
	PhysProcs   int     `json:"phys_procs"`
	MTBFSeconds float64 `json:"mtbf_seconds"`
	Trials      int     `json:"trials"`

	HorizonSeconds       float64 `json:"horizon_seconds"`
	FaultFreeWallSeconds float64 `json:"fault_free_wall_seconds"`
	NativeWallSeconds    float64 `json:"native_wall_seconds"`
	// FaultFreeEfficiency is the paper's resource-normalized workload
	// efficiency of the scenario mode without failures (the Figure 5/6
	// metric).
	FaultFreeEfficiency float64 `json:"fault_free_efficiency"`

	Makespan   Stat `json:"makespan_seconds"` // wall time over trials
	Slowdown   Stat `json:"slowdown"`         // trial wall / fault-free wall
	Efficiency Stat `json:"efficiency"`       // fault-free eff scaled by slowdown

	Crashes  CrashStats `json:"crashes"`
	MemoHits int        `json:"memo_hits"`
	Analytic Analytic   `json:"analytic"`
}

// Result is a whole campaign: the reproducibility envelope plus one
// aggregate per scenario, in grid order, and the measured ccr-vs-
// replication crossovers the grid supports.
type Result struct {
	Seed      int64            `json:"seed"`
	Trials    int              `json:"trials"`
	Scenarios []ScenarioResult `json:"scenarios"`
	// Crossovers is present when the grid pairs ccr and replicated series
	// over a shared MTBF axis and native baseline.
	Crossovers []Crossover `json:"crossovers,omitempty"`
}

// Run executes the campaign: two fault-free reference runs per scenario
// (native and scenario-mode; a ccr point's reference memo-hits its own
// native baseline), then Trials seeded failure injections per scenario —
// simulated crash schedules for replicated points, ckptsim replays for ccr
// points — all fanned out over the worker count, then the deterministic
// aggregation including the measured crossovers.
func Run(cfg Config, scenarios []Scenario) (*Result, error) {
	res, _, err := run(cfg, scenarios, store.Shard{})
	return res, err
}

// run is the one campaign pipeline behind Run and Populate: plan,
// references, the trials shard sh owns, their ccr replays, and the
// aggregation over those trials, persisted under the shard's label when
// the campaign has a store. The zero shard owns every trial, so its
// result is the whole campaign; an active shard's result covers only its
// own trials.
func run(cfg Config, scenarios []Scenario, sh store.Shard) (*Result, store.PopulateStats, error) {
	trials, base, templates, err := planReferences(cfg, scenarios)
	if err != nil {
		return nil, store.PopulateStats{}, err
	}
	experiments.Progress.SetStatus(fmt.Sprintf("campaign: %d scenarios, measuring references", len(scenarios)))
	baseRes, traces, err := measureReferences(cfg, scenarios, base, templates)
	if err != nil {
		return nil, store.PopulateStats{}, err
	}
	plan, err := armTrials(cfg, scenarios, trials, templates, baseRes, traces)
	if err != nil {
		return nil, store.PopulateStats{}, err
	}
	specs, draws, trialAt := plan.specs, plan.draws, plan.trialAt
	horizons, grow, params := plan.horizons, plan.grow, plan.params
	experiments.Progress.SetStatus(fmt.Sprintf("campaign: %d replicated trials (%d specs)", trials, len(specs)))
	trialRes, owned, stats, err := experiments.SweepShard(cfg.Workers, cfg.Store, sh, specs)
	if err != nil {
		return nil, stats, fmt.Errorf("campaign trials: %w", err)
	}

	// Phase 2b: ccr replays, fanned out over the same worker count. Each
	// replay is independent and deterministic in (seed, scenario, trial),
	// so the fan-out cannot affect the aggregate.
	experiments.Progress.SetStatus("campaign: ccr replays")
	replays, ccrStats := runCCRTrials(cfg, scenarios, trials, sh, baseRes, params, horizons, grow)
	stats.Add(ccrStats)
	experiments.Progress.SetStatus("campaign: aggregating")

	// Phase 3: aggregate per scenario, in grid order.
	out := &Result{Seed: cfg.Seed, Trials: trials}
	aggs := make([][3]Agg, len(scenarios))
	for i, sc := range scenarios {
		native, ff := baseRes[2*i], baseRes[2*i+1]
		mtbfS := sc.MTBF.Seconds()

		var walls []float64
		var cs CrashStats
		memoHits := 0
		var ffWall, ffEff float64
		var analytic Analytic
		phys := ff.PhysProcs

		if sc.Point.Mode == scenario.CCR {
			// Measured side: replays of the native makespan under cCR. The
			// "fault-free" run of a ccr scenario is the zero-failure replay:
			// checkpoints included, failures excluded.
			w := native.Measure.Wall.Seconds()
			p := params[i]
			ffWall = p.FaultFreeMakespan(w)
			ffEff = w / ffWall * experiments.Efficiency(native.Measure, ff.Measure)
			for t := 0; t < trials; t++ {
				if !sh.Owns(t) {
					continue
				}
				tr := replays[i][t]
				walls = append(walls, tr.Makespan)
				cs.Total += tr.Failures
				if tr.Failures > 0 {
					cs.TrialsWithCrash++
				}
				if tr.Failures > cs.MaxPerTrial {
					cs.MaxPerTrial = tr.Failures
				}
			}
			sysMTBF := mtbfS / float64(phys)
			analytic = Analytic{
				CkptDeltaSeconds:   p.Delta,
				CkptRestartSeconds: p.Restart,
				CkptTauSeconds:     p.Tau,
				SystemMTBFSeconds:  sysMTBF,
				CCREfficiency:      ckpt.Efficiency(p.Tau, p.Delta, p.Restart, sysMTBF),
			}
		} else {
			ffWall = ff.Measure.Wall.Seconds()
			ffEff = experiments.Efficiency(native.Measure, ff.Measure)
			for t := 0; t < trials; t++ {
				if !owned[trialAt[i]+t] {
					continue
				}
				r := trialRes[trialAt[i]+t]
				walls = append(walls, r.Measure.Wall.Seconds())
				cs.Total += r.Crashes
				if r.Crashes > 0 {
					cs.TrialsWithCrash++
				}
				if r.Crashes > cs.MaxPerTrial {
					cs.MaxPerTrial = r.Crashes
				}
				if d := draws[i][t]; d.Suppressed > 0 {
					cs.SuppressedKills += d.Suppressed
					cs.InterruptedDraws++
				}
				if r.Memoized {
					memoHits++
				}
			}
			delta := cfg.CkptDelta
			if delta <= 0 {
				delta = 0.05 * ffWall
			}
			restart := cfg.CkptRestart
			if restart <= 0 {
				restart = delta
			}
			analytic = Analytic{
				CkptDeltaSeconds:         delta,
				CkptRestartSeconds:       restart,
				SystemMTBFSeconds:        mtbfS / float64(phys),
				CCREfficiency:            ckpt.BestEfficiency(delta, restart, mtbfS/float64(phys)),
				ReplEfficiency:           ckpt.ReplicatedEfficiency(ffEff, sc.Point.Logical, mtbfS, delta, restart),
				CrossoverNodeMTBFSeconds: ckpt.CrossoverMTBF(delta, restart, ffEff) * float64(phys),
			}
		}
		cs.MeanPerTrial = float64(cs.Total) / float64(trials)

		slowdowns := make([]float64, len(walls))
		effs := make([]float64, len(walls))
		for t := range walls {
			slowdowns[t] = walls[t] / ffWall
			effs[t] = ffEff / slowdowns[t]
		}
		aggs[i] = [3]Agg{newAgg(walls), newAgg(slowdowns), newAgg(effs)}
		out.Scenarios = append(out.Scenarios, ScenarioResult{
			Name: sc.Point.Name, App: sc.Point.App, Mode: sc.Point.Mode.String(),
			Logical: sc.Point.Logical, Degree: sc.Point.EffectiveDegree(), PhysProcs: phys,
			MTBFSeconds: mtbfS, Trials: trials,
			HorizonSeconds:       horizons[i].Seconds(),
			FaultFreeWallSeconds: ffWall,
			NativeWallSeconds:    native.Measure.Wall.Seconds(),
			FaultFreeEfficiency:  ffEff,
			Makespan:             aggs[i][0].Stat(),
			Slowdown:             aggs[i][1].Stat(),
			Efficiency:           aggs[i][2].Stat(),
			Crashes:              cs,
			MemoHits:             memoHits,
			Analytic:             analytic,
		})
	}
	out.Crossovers = crossovers(scenarios, out.Scenarios)
	// A store-backed run persists its aggregates under its shard's label,
	// so a later merge can cross-check any sharded scheme's against the
	// pooled statistics.
	if cfg.Store != nil {
		if err := persistAggregates(cfg.Store, sh, cfg, trials, scenarios, aggs); err != nil {
			return nil, stats, err
		}
	}
	return out, stats, nil
}

// measureReferences runs phase 1: the fault-free reference sweep, and the
// trace recording of every replicated scenario's trial template. Trials
// replay the recording instead of re-executing the application's kernels:
// send-deterministic replication keeps the logical sequence
// crash-invariant, and an intra trial's section protocol still runs for
// real on the recorded sections. A trace depends on the template alone
// (mode, platform, app), never on the fault draw, so each distinct
// template, keyed by its memo fingerprint, records once and serves every
// MTBF point built on it. The recordings run beside the sweep unless the
// campaign is confined to one worker; both are deterministic, so the
// overlap changes nothing but wall time. traces[i] is nil for ccr
// scenarios.
func measureReferences(cfg Config, scenarios []Scenario, base, templates []experiments.Spec) (baseRes []experiments.Result, traces []*core.TraceSet, err error) {
	traces = make([]*core.TraceSet, len(scenarios))
	var recErr error
	recorded := make(chan struct{})
	record := func() {
		defer close(recorded)
		byKey := map[string]*core.TraceSet{}
		for i, sc := range scenarios {
			if sc.Point.Mode == scenario.CCR {
				continue
			}
			k := templates[i].Key()
			if ts, ok := byKey[k]; ok && k != "" {
				traces[i] = ts
				continue
			}
			ts, err := experiments.RecordTraces(templates[i])
			if err != nil {
				recErr = fmt.Errorf("campaign: scenario %q: trace recording: %w", sc.Point.Name, err)
				return
			}
			byKey[k], traces[i] = ts, ts
		}
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers == 1 {
		record()
	} else {
		go record()
	}
	baseRes, err = experiments.SweepStore(cfg.Workers, cfg.Store, base)
	<-recorded
	if err != nil {
		return nil, nil, fmt.Errorf("campaign references: %w", err)
	}
	if recErr != nil {
		return nil, nil, recErr
	}
	return baseRes, traces, nil
}

// planReferences validates the campaign and lays out phase 1: the
// fault-free reference specs (native + scenario-mode per scenario, spec
// order fixing result order) and the per-scenario trial templates.
func planReferences(cfg Config, scenarios []Scenario) (trials int, base, templates []experiments.Spec, err error) {
	trials = cfg.Trials
	if trials <= 0 {
		trials = 100
	}
	if len(scenarios) == 0 {
		return 0, nil, nil, fmt.Errorf("campaign: no scenarios")
	}
	if cfg.CkptDelta < 0 || cfg.CkptRestart < 0 || cfg.CkptTau < 0 {
		return 0, nil, nil, fmt.Errorf("campaign: negative checkpoint parameter")
	}
	for _, sc := range scenarios {
		if !sc.Point.Mode.Replicated() && sc.Point.Mode != scenario.CCR {
			return 0, nil, nil, fmt.Errorf("campaign: scenario %q: mode %s has no failures to survive (use classic, intra or ccr)",
				sc.Point.Name, sc.Point.Mode)
		}
		if sc.MTBF <= 0 {
			return 0, nil, nil, fmt.Errorf("campaign: scenario %q: MTBF must be positive", sc.Point.Name)
		}
		if f := sc.Point.Fault; f != nil && (f.MTBFSeconds > 0 || len(f.Crashes) > 0) {
			return 0, nil, nil, fmt.Errorf("campaign: scenario %q: carry the fault model in Scenario.MTBF, not the point", sc.Point.Name)
		}
	}
	base = make([]experiments.Spec, 0, 2*len(scenarios))
	templates = make([]experiments.Spec, len(scenarios))
	for i, sc := range scenarios {
		native, err := experiments.SpecFor(sc.nativeScenario())
		if err != nil {
			return 0, nil, nil, fmt.Errorf("campaign: %w", err)
		}
		ff, err := experiments.SpecFor(sc.Point)
		if err != nil {
			return 0, nil, nil, fmt.Errorf("campaign: %w", err)
		}
		templates[i] = ff
		ff.Name = sc.Point.Name + "/fault-free"
		base = append(base, native, ff)
	}
	return trials, base, templates, nil
}

// trialPlan is phase 2a laid out: every replicated trial as a spec, the
// draws behind them, and the per-scenario failure windows and cCR machine
// parameters. Deterministic in (cfg, scenarios, baseRes), so every shard
// of a campaign derives the identical plan.
type trialPlan struct {
	specs   []experiments.Spec
	draws   [][]fault.Draw
	trialAt []int // scenario -> first spec index (-1 for ccr scenarios)
	// Horizon resolution happens exactly once per scenario: the draws and
	// the reported HorizonSeconds must describe the same window. An
	// explicitly configured horizon is a hard cap on the failure window
	// for every fault-tolerance side; only the defaulted ccr window grows
	// with the makespan.
	horizons []sim.Time
	grow     []bool
	params   []ckptsim.Params
}

// armTrials draws and lays out every trial of the campaign: one Spec per
// replicated trial, all scenarios in a single sweep so the pool stays
// saturated across the whole grid.
func armTrials(cfg Config, scenarios []Scenario, trials int, templates []experiments.Spec,
	baseRes []experiments.Result, traces []*core.TraceSet) (*trialPlan, error) {
	p := &trialPlan{
		draws:    make([][]fault.Draw, len(scenarios)),
		trialAt:  make([]int, len(scenarios)),
		horizons: make([]sim.Time, len(scenarios)),
		grow:     make([]bool, len(scenarios)),
		params:   make([]ckptsim.Params, len(scenarios)),
	}
	for i, sc := range scenarios {
		horizon := sc.Horizon
		if horizon == 0 {
			horizon = cfg.Horizon
		}
		if sc.Point.Mode == scenario.CCR {
			p.trialAt[i] = -1
			w := baseRes[2*i].Measure.Wall.Seconds()
			p.params[i] = cfg.ckptParams(sc, w, sc.MTBF.Seconds()/float64(sc.Point.Logical))
			if err := p.params[i].Validate(); err != nil {
				return nil, fmt.Errorf("campaign: scenario %q: %w", sc.Point.Name, err)
			}
			if horizon == 0 {
				// The base draw window is the zero-failure ccr makespan; the
				// replay loop grows it per trial until it covers the
				// failure-stretched run. An explicit horizon stays a cap —
				// the same meaning it has for replicated draws — so the two
				// sides of one table never see different failure windows.
				horizon = sim.Seconds(p.params[i].FaultFreeMakespan(w))
				p.grow[i] = true
			}
			p.horizons[i] = horizon
			continue
		}
		if horizon == 0 {
			horizon = baseRes[2*i+1].Measure.Wall
		}
		p.horizons[i] = horizon
		p.trialAt[i] = len(p.specs)
		p.draws[i] = make([]fault.Draw, trials)
		for t := 0; t < trials; t++ {
			d := fault.ExponentialDraw(sc.Point.Logical, sc.Point.EffectiveDegree(), sc.MTBF, p.horizons[i],
				fault.TrialSeed(cfg.Seed, i, t))
			p.draws[i][t] = d
			spec := templates[i]
			spec.Name = fmt.Sprintf("%s/t%03d", sc.Point.Name, t)
			spec.Fault = d.Schedule
			// Trace replay keeps the op sequence and every communication
			// instant identical, so it is the only trial accelerator.
			spec.Replay = traces[i]
			p.specs = append(p.specs, spec)
		}
	}
	return p, nil
}

// maxHorizonDoublings bounds the ccr draw-window growth; past it the
// remaining tail of an effectively-stalled operating point (expected
// makespan > ~10^6 fault-free walls) is truncated rather than drawn.
const maxHorizonDoublings = 20

// runCCRTrials replays the ccr trials shard sh owns (by trial index)
// concurrently on the configured worker count. Results are indexed
// [scenario][trial]; entries for replicated scenarios are nil, and those
// of unowned trials zero.
func runCCRTrials(cfg Config, scenarios []Scenario, trials int, sh store.Shard,
	baseRes []experiments.Result, params []ckptsim.Params, horizons []sim.Time, grow []bool) ([][]ckptsim.Trial, store.PopulateStats) {
	out := make([][]ckptsim.Trial, len(scenarios))
	type job struct{ sc, trial int }
	var jobs []job
	var stats store.PopulateStats
	for i, sc := range scenarios {
		if sc.Point.Mode != scenario.CCR {
			continue
		}
		out[i] = make([]ckptsim.Trial, trials)
		stats.Units += trials
		for t := 0; t < trials; t++ {
			if sh.Owns(t) {
				jobs = append(jobs, job{i, t})
			}
		}
	}
	stats.Owned, stats.Computed = len(jobs), len(jobs)
	experiments.ForEach(cfg.Workers, len(jobs), func(j int) {
		i, t := jobs[j].sc, jobs[j].trial
		sc := scenarios[i]
		work := baseRes[2*i].Measure.Wall.Seconds()
		out[i][t] = ccrTrial(work, params[i], sc.Point.Logical, sc.MTBF,
			horizons[i], grow[i], fault.TrialSeed(cfg.Seed, i, t))
	})
	return out, stats
}

// ccrTrial draws one unclamped failure trace and replays the work under
// it. With grow set (the defaulted-horizon case) it doubles the draw
// window until it covers the failure-stretched makespan — the unclamped
// draw extends a trace without disturbing the failures already inside
// it, so growth refines the same trial rather than redrawing it. With an
// explicit horizon the window is a hard cap, exactly as it is for
// replicated draws.
func ccrTrial(work float64, p ckptsim.Params, nodes int, mtbf, horizon sim.Time, grow bool, seed int64) ckptsim.Trial {
	h := horizon
	for doublings := 0; ; doublings++ {
		d := fault.ExponentialDrawUnclamped(nodes, 1, mtbf, h, seed)
		times := make([]float64, len(d.Schedule.Crashes))
		for i, c := range d.Schedule.Crashes {
			times[i] = c.Time.Seconds()
		}
		// params were validated in Run; with work >= 0 the replay cannot
		// fail.
		tr, err := ckptsim.Replay(work, p, times)
		if err != nil {
			panic(fmt.Sprintf("campaign: ccr replay: %v", err))
		}
		if !grow || tr.Makespan <= h.Seconds() || doublings >= maxHorizonDoublings {
			return tr
		}
		h *= 2
	}
}

// crossovers pairs each ccr series with the replicated series sharing its
// native baseline and finds where the measured efficiencies cross over
// the sampled MTBF axis.
func crossovers(scenarios []Scenario, results []ScenarioResult) []Crossover {
	// A series is one scenario point swept over MTBF: same native
	// baseline, mode, sizing. Group in first-appearance order so the
	// output is deterministic.
	type seriesKey struct {
		base            string // native reference fingerprint
		mode            string
		logical, degree int
	}
	type series struct {
		key    seriesKey
		phys   int
		points []int // indices into results, MTBF ascending (grid order kept)
	}
	var order []seriesKey
	byKey := map[seriesKey]*series{}
	for i, sc := range scenarios {
		fp, err := sc.nativeScenario().Fingerprint()
		if err != nil {
			continue // phase 1 validated; unreachable in practice
		}
		k := seriesKey{fp, results[i].Mode, results[i].Logical, results[i].Degree}
		s := byKey[k]
		if s == nil {
			s = &series{key: k, phys: results[i].PhysProcs}
			byKey[k] = s
			order = append(order, k)
		}
		s.points = append(s.points, i)
	}
	ccrName := scenario.CCR.String()
	var out []Crossover
	for _, rk := range order {
		if rk.mode == ccrName {
			continue
		}
		repl := byKey[rk]
		for _, ck := range order {
			if ck.mode != ccrName || ck.base != rk.base {
				continue
			}
			cs := byKey[ck]
			x := Crossover{
				App:          results[repl.points[0]].App,
				ReplMode:     rk.mode,
				Logical:      rk.logical,
				Degree:       rk.degree,
				CCRPhysProcs: cs.phys,
			}
			ccrRes := results[cs.points[0]]
			replRes := results[repl.points[0]]
			x.AnalyticNodeMTBFSeconds = ckpt.CrossoverMTBF(
				ccrRes.Analytic.CkptDeltaSeconds, ccrRes.Analytic.CkptRestartSeconds,
				replRes.FaultFreeEfficiency) * float64(cs.phys)
			x.MeasuredNodeMTBFSeconds = measuredCrossover(repl.points, cs.points, results)
			out = append(out, x)
		}
	}
	return out
}

// measuredCrossover finds the per-node MTBF where the measured ccr
// efficiency crosses the measured replicated efficiency, log-interpolated
// between the bracketing sampled points; 0 when the sampled axis never
// crosses or the series share fewer than two MTBF values.
func measuredCrossover(replPts, ccrPts []int, results []ScenarioResult) float64 {
	replAt := map[float64]float64{}
	for _, i := range replPts {
		replAt[results[i].MTBFSeconds] = results[i].Efficiency.Mean
	}
	type pt struct{ mtbf, diff float64 }
	var pts []pt
	for _, i := range ccrPts {
		m := results[i].MTBFSeconds
		if re, ok := replAt[m]; ok {
			pts = append(pts, pt{m, results[i].Efficiency.Mean - re})
		}
	}
	sort.Slice(pts, func(a, b int) bool { return pts[a].mtbf < pts[b].mtbf })
	for i := 1; i < len(pts); i++ {
		a, b := pts[i-1], pts[i]
		if a.diff == 0 {
			return a.mtbf
		}
		if (a.diff < 0) == (b.diff < 0) {
			continue
		}
		// Log-linear interpolation between the bracketing MTBFs.
		la, lb := math.Log(a.mtbf), math.Log(b.mtbf)
		return math.Exp(la + (lb-la)*(0-a.diff)/(b.diff-a.diff))
	}
	if n := len(pts); n > 0 && pts[n-1].diff == 0 {
		return pts[n-1].mtbf
	}
	return 0
}

// fmtCI renders a confidence half-width, with "-" for the undefined
// (fewer-than-two-trials) case instead of a misleading 0.
func fmtCI(ci float64) string {
	if math.IsNaN(ci) {
		return "-"
	}
	return fmt.Sprintf("%.4f", ci)
}

// Table renders the campaign as the "efficiency vs MTBF" figure family:
// one row per scenario — measured replication and measured cCR series
// side by side — next to the analytic §II models, with the measured
// crossovers as footnotes.
func (r *Result) Table() *experiments.Table {
	t := &experiments.Table{
		ID:    "campaign",
		Title: fmt.Sprintf("Monte Carlo failure campaign (%d trials/point, seed %d)", r.Trials, r.Seed),
		Header: []string{"scenario", "mode", "d", "MTBF (s)", "crash/run",
			"makespan (s)", "±95%", "eff", "ff eff", "cCR model", "repl model", "memo"},
	}
	ccrName := scenario.CCR.String()
	for _, s := range r.Scenarios {
		replModel := fmt.Sprintf("%.3f", s.Analytic.ReplEfficiency)
		if s.Mode == ccrName {
			replModel = "-" // a ccr point has no replicas to model
		}
		t.AddRow(s.Name, s.Mode, fmt.Sprintf("%d", s.Degree),
			fmt.Sprintf("%.3g", s.MTBFSeconds),
			fmt.Sprintf("%.2f", s.Crashes.MeanPerTrial),
			fmt.Sprintf("%.3f", s.Makespan.Mean),
			fmtCI(s.Makespan.CI95),
			fmt.Sprintf("%.3f", s.Efficiency.Mean),
			fmt.Sprintf("%.3f", s.FaultFreeEfficiency),
			fmt.Sprintf("%.3f", s.Analytic.CCREfficiency),
			replModel,
			fmt.Sprintf("%d", s.MemoHits),
		)
	}
	t.Note("eff = fault-free efficiency scaled by the measured failure slowdown; cCR/repl model = §II analytic prediction at the same MTBF; ±95%% is '-' with fewer than two trials")
	t.Note("cCR rows measure coordinated checkpoint/restart by replaying the native makespan under a seeded failure trace (internal/ckptsim)")
	for _, x := range r.Crossovers {
		measured := "no crossover inside the sampled MTBF grid"
		if x.MeasuredNodeMTBFSeconds > 0 {
			measured = fmt.Sprintf("measured crossover at node MTBF ~%.3g s", x.MeasuredNodeMTBFSeconds)
		}
		t.Note("%s vs %s d%d (p%d): %s; analytic ckpt.CrossoverMTBF predicts %.3g s",
			ccrName, x.ReplMode, x.Degree, x.CCRPhysProcs, measured, x.AnalyticNodeMTBFSeconds)
	}
	if len(r.Crossovers) == 0 {
		t.Note("below a scenario's crossover node MTBF (see JSON), the cCR model drops under the measured fault-free efficiency and replication wins")
	}
	return t
}
