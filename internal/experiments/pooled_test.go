package experiments

import (
	"math/rand"
	"testing"

	"repro/internal/apps/gtc"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/mpi"
	"repro/internal/sim"
)

// pooledGrid is a small mixed grid — all three engine modes, faulty
// classic points, and faulty intra points of both apps in both inout modes
// under exponential crash draws — shuffled with a fixed seed so the pooled
// engine sees modes in an adversarial order (intra after classic after
// native, faulty between clean) rather than the friendly grouped order of
// a real sweep. With share set, every spec of one app runs on a single
// App binding, as a campaign's trials do, so the binding's memoized HPCCG
// blocks and recycled GTC start states carry over from spec to spec;
// otherwise each spec binds its own.
func pooledGrid(share bool) []Spec {
	hcfg := smallHPCCG(3)
	gcfg := gtc.DefaultConfig()
	gcfg.Steps = 3
	sharedH, sharedG := HPCCG(hcfg), GTC(gcfg)
	hp := func() App {
		if share {
			return sharedH
		}
		return HPCCG(hcfg)
	}
	gt := func() App {
		if share {
			return sharedG
		}
		return GTC(gcfg)
	}
	specs := []Spec{
		{Name: "native", Mode: Native, Logical: 8, App: hp()},
		{Name: "classic", Mode: Classic, Logical: 4, App: hp()},
		{Name: "intra", Mode: Intra, Logical: 4, App: hp()},
		{Name: "intra-d3", Mode: Intra, Logical: 4, Degree: 3, App: hp()},
		{Name: "gtc-intra", Mode: Intra, Logical: 4, App: gt()},
	}
	for trial := 0; trial < 4; trial++ {
		d := fault.ExponentialDraw(4, 2, sim.Seconds(0.01), sim.Seconds(0.05), fault.TrialSeed(7, 0, trial))
		specs = append(specs, Spec{
			Name: "classic-faulty", Mode: Classic, Logical: 4,
			App: hp(), Fault: d.Schedule,
		})
	}
	modes := []core.InoutMode{core.CopyRestore, core.AtomicApply}
	for trial := 0; trial < 8; trial++ {
		opts := core.Options{Mode: modes[trial%2]}
		d := fault.ExponentialDraw(4, 2, sim.Seconds(0.0003), sim.Seconds(0.00045), fault.TrialSeed(11, 0, trial))
		specs = append(specs, Spec{
			Name: "gtc-intra-faulty-" + opts.Mode.String(), Mode: Intra, Logical: 4,
			Opts: opts, App: gt(), Fault: d.Schedule,
		})
		d = fault.ExponentialDraw(4, 2, sim.Seconds(0.008), sim.Seconds(0.02), fault.TrialSeed(13, 0, trial))
		specs = append(specs, Spec{
			Name: "hpccg-intra-faulty-" + opts.Mode.String(), Mode: Intra, Logical: 4,
			Opts: opts, App: hp(), Fault: d.Schedule,
		})
	}
	rng := rand.New(rand.NewSource(99))
	rng.Shuffle(len(specs), func(i, j int) { specs[i], specs[j] = specs[j], specs[i] })
	return specs
}

// TestPooledEngineRerunByteIdentical is the pooling property test: the
// shuffled grid run twice back-to-back on ONE pooled engine and scratch
// and on shared app bindings (every spec after the first inherits warm
// event nodes, parked goroutines, message pools, memoized matrix blocks
// and recycled particle arrays from arbitrary predecessors) must produce
// Results byte-identical to a run where every spec gets a brand-new
// engine and binding. Any state leaking across Engine.Reset, World.Reclaim
// or a binding's runs shows up here as a diverging wall time or event
// count.
func TestPooledEngineRerunByteIdentical(t *testing.T) {
	specs := pooledGrid(true)

	fresh := make([]Result, len(specs))
	for i, s := range pooledGrid(false) {
		r, err := runSpec(nil, nil, s)
		if err != nil {
			t.Fatalf("fresh %q: %v", s.Name, err)
		}
		fresh[i] = r
	}
	want := canonicalize(t, fresh)

	eng := sim.NewPooled()
	defer eng.Shutdown()
	sc := mpi.NewScratch()
	for pass := 0; pass < 2; pass++ {
		got := make([]Result, len(specs))
		for i, s := range specs {
			eng.Reset()
			r, err := runSpec(eng, sc, s)
			if err != nil {
				t.Fatalf("pooled pass %d %q: %v", pass, s.Name, err)
			}
			got[i] = r
		}
		if g := canonicalize(t, got); g != want {
			t.Fatalf("pooled pass %d diverges from fresh-engine run:\n%s\nvs\n%s", pass, g, want)
		}
	}
}
