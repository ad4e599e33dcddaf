package campaign_test

import (
	"encoding/json"
	"testing"

	"repro/internal/apps/gtc"
	"repro/internal/campaign"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// TestPooledSharedBindingCampaign runs an intra GTC + HPCCG failure
// campaign at four workers. All trials of a scenario run on its one app
// binding, so concurrent workers share the binding's memoized HPCCG
// blocks and draw from and return to its GTC start-state pool; under the
// race detector this is the check that the sharing is synchronized. The
// aggregate must be byte-identical to the serial run's.
func TestPooledSharedBindingCampaign(t *testing.T) {
	gcfg := gtc.DefaultConfig()
	gcfg.Steps = 3
	gtcPoint := func(name, inout string) scenario.Scenario {
		return scenario.Scenario{
			Name: name, App: "gtc", Config: scenario.MustRaw(gcfg),
			Mode: scenario.Intra, Logical: 4, Intra: &scenario.IntraOptions{Inout: inout},
		}
	}
	scs := []campaign.Scenario{
		{Point: gtcPoint("gtc/copy", "copy"), MTBF: 2 * sim.Millisecond},
		{Point: gtcPoint("gtc/atomic", "atomic"), MTBF: 2 * sim.Millisecond},
		{Point: smallPoint("hpccg/intra", scenario.Intra), MTBF: 50 * sim.Millisecond},
	}
	var want string
	for _, workers := range []int{1, 4} {
		res, err := campaign.Run(campaign.Config{Trials: 16, Seed: 17, Workers: workers}, scs)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for _, s := range res.Scenarios {
			if s.Crashes.TrialsWithCrash == 0 {
				t.Fatalf("scenario %q: no trial crashed", s.Name)
			}
		}
		b, err := json.MarshalIndent(res, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if workers == 1 {
			want = string(b)
		} else if string(b) != want {
			t.Fatalf("workers=%d: aggregate JSON differs from the serial run:\n%s\nvs\n%s", workers, b, want)
		}
	}
}
