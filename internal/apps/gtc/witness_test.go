package gtc_test

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/apps/gtc"
	"repro/internal/campaign"
	"repro/internal/kernels"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// pools records every binding the "gtc-witness" app hands out: its config
// and the probes of its start-state pool.
var pools struct {
	sync.Mutex
	cfgs  []gtc.Config
	frees []func() int
	takes []func() ([]*kernels.Particles, []float64, []float64)
}

// gtc-witness is GTC registered through BindWitness, so a campaign's
// bindings expose the start states they recycled.
func init() {
	ent, err := scenario.AppByName("gtc")
	if err != nil {
		panic(err)
	}
	ent.Name = "gtc-witness"
	ent.Run = func(cfg any) (scenario.AppRun, error) {
		c := *cfg.(*gtc.Config)
		run, free, take := gtc.BindWitness(c)
		pools.Lock()
		pools.cfgs = append(pools.cfgs, c)
		pools.frees = append(pools.frees, free)
		pools.takes = append(pools.takes, take)
		pools.Unlock()
		return run, nil
	}
	scenario.RegisterApp(ent)
}

// TestCampaignRecycledZonesMatchFresh: after a full intra failure campaign
// in both inout modes — crashed trials included, whose replicas return
// their state mid-run — every binding holds recycled start states, and a
// state drawn from the pool is exactly a fresh one: each zone equals
// NewParticles for its cell range, and the grids are zero.
func TestCampaignRecycledZonesMatchFresh(t *testing.T) {
	pools.Lock()
	pools.cfgs, pools.frees, pools.takes = nil, nil, nil
	pools.Unlock()
	cfg := gtc.DefaultConfig()
	cfg.Steps = 3
	var scs []campaign.Scenario
	for _, inout := range []string{"copy", "atomic"} {
		scs = append(scs, campaign.Scenario{
			Point: scenario.Scenario{
				Name: "witness/" + inout, App: "gtc-witness", Config: scenario.MustRaw(cfg),
				Mode: scenario.Intra, Logical: 4, Intra: &scenario.IntraOptions{Inout: inout},
			},
			MTBF: 2 * sim.Millisecond,
		})
	}
	res, err := campaign.Run(campaign.Config{Trials: 20, Seed: 9, Workers: 2}, scs)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range res.Scenarios {
		if s.Crashes.TrialsWithCrash == 0 {
			t.Fatalf("scenario %q: no trial crashed", s.Name)
		}
	}
	pools.Lock()
	defer pools.Unlock()
	recycled := 0
	for i, take := range pools.takes {
		if pools.frees[i]() == 0 {
			continue
		}
		recycled++
		c := pools.cfgs[i]
		zones, rho, phi := take()
		perZone := c.Cells / c.Zones
		if len(zones) != c.Zones {
			t.Fatalf("binding %d: %d zones, want %d", i, len(zones), c.Zones)
		}
		for z, got := range zones {
			want := kernels.NewParticles(perZone*c.PerCell, float64(z*perZone), float64((z+1)*perZone))
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("binding %d zone %d: recycled particles differ from NewParticles", i, z)
			}
		}
		zero := make([]float64, c.Cells)
		if !reflect.DeepEqual(rho, zero) || !reflect.DeepEqual(phi, zero) {
			t.Fatalf("binding %d: recycled grids are not zero", i)
		}
	}
	if recycled == 0 {
		t.Fatal("no binding recycled a start state")
	}
}
