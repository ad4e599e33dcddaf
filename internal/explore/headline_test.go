package explore

import (
	"encoding/json"
	"fmt"
	"math"
	"testing"

	"repro/internal/campaign"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// headlineGrid is the crossover pairing the headline gate measures (the
// scenarios/explore-crossover.json workload inlined): GTC under ccr and
// under intra replication at p8, at each requested per-node MTBF.
func headlineGrid(mtbfs []float64) []campaign.Scenario {
	cfg := json.RawMessage(`{"Cells": 64, "PerCell": 25, "Zones": 8, "Steps": 2, "Dt": 0.02, "Scale": 64, "ShiftFrac": 0.05, "AuxBytes": 180, "IntraCharge": true, "IntraPush": true}`)
	var scs []campaign.Scenario
	for _, m := range mtbfs {
		scs = append(scs, campaign.Scenario{
			MTBF: sim.Seconds(m),
			Point: scenario.Scenario{
				Name: fmt.Sprintf("gtc/ccr/p8/mtbf%g", m),
				App:  "gtc", Config: cfg, Mode: scenario.CCR, Logical: 8,
			},
		}, campaign.Scenario{
			MTBF: sim.Seconds(m),
			Point: scenario.Scenario{
				Name: fmt.Sprintf("gtc/intra/p8/d2/mtbf%g", m),
				App:  "gtc", Config: cfg, Mode: scenario.Intra, Logical: 8, Degree: 2,
			},
		})
	}
	return scs
}

// TestAdaptiveCrossoverTrialsGate is the explorer's headline claim: it
// locates the ccr-vs-replication crossover with at most a third of the
// trials a fixed grid spends at the same resolution. The fixed side
// samples 9 log-spaced MTBFs over 0.02-0.5 s (8 steps of ratio r) at 100
// trials per point, the explorer's own per-probe cap: a fixed design
// cannot know in advance which points are contested, so it pays that
// count everywhere. The adaptive side gets only the two endpoints and a
// bracket target of r. Trials are counted, not timed, so the gate is
// deterministic.
func TestAdaptiveCrossoverTrialsGate(t *testing.T) {
	const loMTBF, hiMTBF = 0.02, 0.5
	const fixedSteps, perPoint = 8, 100
	stepRatio := math.Pow(hiMTBF/loMTBF, 1.0/fixedSteps)
	mtbfs := make([]float64, fixedSteps+1)
	for i := range mtbfs {
		mtbfs[i] = loMTBF * math.Pow(stepRatio, float64(i))
	}
	fixedScs := headlineGrid(mtbfs)
	fres, err := campaign.Run(campaign.Config{Trials: perPoint, Seed: 1}, fixedScs)
	if err != nil {
		t.Fatal(err)
	}
	if len(fres.Crossovers) != 1 || fres.Crossovers[0].MeasuredNodeMTBFSeconds == 0 {
		t.Fatalf("fixed grid found no crossover: %+v", fres.Crossovers)
	}

	// Generous budget: the adaptive run stops on its own convergence
	// criteria (target CI met, bracket ratio met), and what it actually
	// spent is the measurement.
	fixedTrials := len(fixedScs) * perPoint
	ares, err := Run(Config{
		Budget: fixedTrials, TargetCI: 0.1,
		BracketRatio: stepRatio, TauTraces: 2, Seed: 1,
	}, headlineGrid([]float64{loMTBF, hiMTBF}))
	if err != nil {
		t.Fatal(err)
	}
	if len(ares.Crossovers) != 1 || ares.Crossovers[0].MeasuredNodeMTBFSeconds == 0 {
		t.Fatalf("adaptive run found no bracketed crossover: %+v", ares.Crossovers)
	}
	// The two estimators must agree to within two fixed-grid steps;
	// otherwise the trial counts below compare different answers.
	fx, am := fres.Crossovers[0].MeasuredNodeMTBFSeconds, ares.Crossovers[0].MeasuredNodeMTBFSeconds
	if r := math.Max(fx, am) / math.Min(fx, am); r > stepRatio*stepRatio {
		t.Fatalf("estimates disagree: fixed %.4g vs adaptive %.4g (%.2fx apart)", fx, am, r)
	}

	// Refinement plus bisection; the tau search has no fixed-grid
	// counterpart, so it is excluded.
	adaptiveTrials := ares.SpentRefine + ares.SpentBisect
	ratio := float64(fixedTrials) / float64(adaptiveTrials)
	t.Logf("fixed %d trials -> %.4g s, adaptive %d trials -> %.4g s (%.2fx fewer trials)",
		fixedTrials, fx, adaptiveTrials, am, ratio)
	if ratio < 3 {
		t.Fatalf("adaptive crossover took %d trials, more than a third of the fixed grid's %d (%.2fx)",
			adaptiveTrials, fixedTrials, ratio)
	}
}
