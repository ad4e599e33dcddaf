package campaign

import (
	"fmt"
	"testing"

	"repro/internal/apps/hpccg"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// TestReferencesRecordOncePerTemplate pins the recording dedup: the MTBF
// points of one trial template share one trace set, a template of another
// mode gets its own, and a ccr scenario, which has no replicated trials,
// none. Recording beside the reference sweep (more than one worker) or
// before it (one worker) makes no difference.
func TestReferencesRecordOncePerTemplate(t *testing.T) {
	point := func(mode scenario.Mode, mtbf float64) Scenario {
		return Scenario{
			Point: scenario.Scenario{
				Name: fmt.Sprintf("%s/mtbf%g", mode, mtbf), App: "hpccg",
				Config: scenario.MustRaw(hpccg.Config{
					Nx: 8, Ny: 8, Nz: 8, Iters: 2, Tasks: 4, Scale: 64, PlaneScale: 16,
					IntraDdot: true, IntraSparsemv: true,
				}),
				Mode: mode, Logical: 2,
			},
			MTBF: sim.Seconds(mtbf),
		}
	}
	scs := []Scenario{
		point(scenario.Classic, 0.05), point(scenario.Classic, 0.1), point(scenario.Classic, 0.2),
		point(scenario.Intra, 0.1), point(scenario.Intra, 0.2),
		point(scenario.CCR, 0.1),
	}
	for _, workers := range []int{1, 2} {
		cfg := Config{Trials: 2, Seed: 1, Workers: workers}
		_, base, templates, err := planReferences(cfg, scs)
		if err != nil {
			t.Fatal(err)
		}
		_, traces, err := measureReferences(cfg, scs, base, templates)
		if err != nil {
			t.Fatal(err)
		}
		classic, intra := traces[0], traces[3]
		if classic == nil || intra == nil || classic == intra {
			t.Fatalf("workers %d: classic %p and intra %p must be two recordings", workers, classic, intra)
		}
		if traces[1] != classic || traces[2] != classic || traces[4] != intra {
			t.Errorf("workers %d: MTBF points of one template recorded apart: %p", workers, traces)
		}
		if traces[5] != nil {
			t.Errorf("workers %d: ccr scenario got a recording", workers)
		}
	}
}
