package hpccg_test

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/apps/hpccg"
	"repro/internal/campaign"
	"repro/internal/kernels"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// witness records every binding the "hpccg-witness" app hands out: its
// config and the view of its block memo.
var witness struct {
	sync.Mutex
	cfgs  []hpccg.Config
	views []func(hasBelow, hasAbove bool) *kernels.CSR
}

// hpccg-witness is HPCCG registered through BindWitness, so a campaign's
// bindings expose the blocks they memoized.
func init() {
	ent, err := scenario.AppByName("hpccg")
	if err != nil {
		panic(err)
	}
	ent.Name = "hpccg-witness"
	ent.Run = func(cfg any) (scenario.AppRun, error) {
		c := *cfg.(*hpccg.Config)
		run, view := hpccg.BindWitness(c)
		witness.Lock()
		witness.cfgs = append(witness.cfgs, c)
		witness.views = append(witness.views, view)
		witness.Unlock()
		return run, nil
	}
	scenario.RegisterApp(ent)
}

// TestCampaignBlocksMatchFreshGeneration: after a full intra failure
// campaign — references and crashed trials, two workers, every trial on
// its scenario's shared binding — each block a binding memoized is exactly
// the matrix a fresh Gen27Point builds for its key, and the campaign
// needed all four keys (single-rank, bottom, interior and top slabs).
func TestCampaignBlocksMatchFreshGeneration(t *testing.T) {
	witness.Lock()
	witness.cfgs, witness.views = nil, nil
	witness.Unlock()
	cfg := hpccg.Config{
		Nx: 6, Ny: 6, Nz: 6, Iters: 3, Tasks: 8,
		Scale: 64, PlaneScale: 16,
		IntraDdot: true, IntraSparsemv: true,
	}
	var scs []campaign.Scenario
	for _, logical := range []int{1, 4} {
		scs = append(scs, campaign.Scenario{
			Point: scenario.Scenario{
				Name: "witness", App: "hpccg-witness", Config: scenario.MustRaw(cfg),
				Mode: scenario.Intra, Logical: logical,
			},
			MTBF: 20 * sim.Millisecond,
		})
	}
	res, err := campaign.Run(campaign.Config{Trials: 20, Seed: 5, Workers: 2}, scs)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range res.Scenarios {
		if s.Crashes.TrialsWithCrash == 0 {
			t.Fatalf("scenario %q: no trial crashed", s.Name)
		}
	}
	witness.Lock()
	defer witness.Unlock()
	seen := map[[2]bool]bool{}
	for i, view := range witness.views {
		c := witness.cfgs[i]
		for _, key := range [][2]bool{{false, false}, {false, true}, {true, false}, {true, true}} {
			got := view(key[0], key[1])
			if got == nil {
				continue
			}
			seen[key] = true
			want := kernels.Gen27Point(c.Nx, c.Ny, c.Nz, key[0], key[1])
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("binding %d (%dx%dx%d), key %v: memoized block differs from a fresh Gen27Point",
					i, c.Nx, c.Ny, c.Nz, key)
			}
		}
	}
	if len(seen) != 4 {
		t.Fatalf("campaign memoized keys %v, want all four", seen)
	}
}
