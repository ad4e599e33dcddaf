package experiments

import (
	"encoding/json"
	"math"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/apps/apputil"
	"repro/internal/apps/hpccg"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/perf"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/simnet"
)

func smallHPCCG(iters int) hpccg.Config {
	return hpccg.Config{
		Nx: 8, Ny: 8, Nz: 8, Iters: iters, Tasks: 8,
		Scale: 64, PlaneScale: 16,
		IntraDdot: true, IntraSparsemv: true,
	}
}

func smallSpecs() []Spec {
	cfg := smallHPCCG(4)
	return []Spec{
		{Name: "native", Mode: Native, Logical: 8, App: HPCCG(cfg)},
		{Name: "classic", Mode: Classic, Logical: 4, App: HPCCG(cfg)},
		{Name: "intra", Mode: Intra, Logical: 4, App: HPCCG(cfg)},
		{Name: "intra-d3", Mode: Intra, Logical: 4, Degree: 3, App: HPCCG(cfg)},
	}
}

// canonicalize strips the fields that legitimately vary between runs
// (real-time measurements) so the rest can be compared byte for byte.
func canonicalize(t *testing.T, res []Result) string {
	t.Helper()
	for i := range res {
		res[i].ElapsedMS = 0
	}
	b, err := json.MarshalIndent(res, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestSweepDeterministicAcrossWorkers runs the same spec list serially and
// at several worker counts: results must be identical in content and order.
func TestSweepDeterministicAcrossWorkers(t *testing.T) {
	specs := smallSpecs()
	serial, err := SweepN(1, specs)
	if err != nil {
		t.Fatal(err)
	}
	want := canonicalize(t, serial)
	for _, workers := range []int{2, 4, 8} {
		res, err := SweepN(workers, specs)
		if err != nil {
			t.Fatal(err)
		}
		if got := canonicalize(t, res); got != want {
			t.Fatalf("workers=%d diverges from serial run:\n%s\nvs\n%s", workers, got, want)
		}
	}
}

// TestSweepResultFields spot-checks the structured result of one point.
func TestSweepResultFields(t *testing.T) {
	res, err := Sweep(smallSpecs()[:1])
	if err != nil {
		t.Fatal(err)
	}
	r := res[0]
	if r.Name != "native" || r.App != "hpccg" || r.Mode != "Open MPI" {
		t.Fatalf("identity fields wrong: %+v", r)
	}
	if r.Logical != 8 || r.PhysProcs != 8 || r.Degree != 1 {
		t.Fatalf("size fields wrong: %+v", r)
	}
	if r.AppSeconds <= 0 || r.WallSeconds < r.AppSeconds {
		t.Fatalf("time fields wrong: %+v", r)
	}
	if r.SimEvents == 0 || r.SimProcs != 8 {
		t.Fatalf("engine stats wrong: %+v", r)
	}
	if len(r.Kernels) == 0 || r.Kernels["ddot"].Calls == 0 {
		t.Fatalf("kernels missing: %+v", r.Kernels)
	}
	if r.Memoized {
		t.Fatal("sole run cannot be a memo hit")
	}
	if r.Measure == nil {
		t.Fatal("raw measure not attached")
	}
}

// TestSweepMemo checks that identical points are simulated once: later
// occurrences are flagged, share the first run's measure, and the
// application body does not execute again.
func TestSweepMemo(t *testing.T) {
	var runs atomic.Int32
	counted := func(key string) App {
		return App{Name: "counted", key: key, main: func(rt core.Runner) (sim.Time, map[string]*apputil.KernelTime, core.Stats, error) {
			runs.Add(1)
			rt.Compute(perf.Work{Flops: 1e6})
			return rt.Now(), nil, core.Stats{}, nil
		}}
	}
	specs := []Spec{
		{Name: "a", Mode: Native, Logical: 2, App: counted("k1")},
		{Name: "b", Mode: Native, Logical: 2, App: counted("k1")}, // dup of a
		{Name: "c", Mode: Native, Logical: 2, App: counted("k2")}, // different app key
		{Name: "d", Mode: Intra, Logical: 2, App: counted("k1")},  // different mode
		{Name: "e", Mode: Native, Logical: 2, App: counted("k1")}, // dup of a
	}
	res, err := Sweep(specs)
	if err != nil {
		t.Fatal(err)
	}
	// a, c: 2 logical ranks each; d: 2 logical x 2 replicas. b and e memoized.
	if got := runs.Load(); got != 2+2+4 {
		t.Fatalf("app ran %d times, want 8 (memo misses only)", got)
	}
	wantMemo := map[string]bool{"a": false, "b": true, "c": false, "d": false, "e": true}
	for _, r := range res {
		if r.Memoized != wantMemo[r.Name] {
			t.Fatalf("%s: memoized = %v, want %v", r.Name, r.Memoized, wantMemo[r.Name])
		}
	}
	if res[1].Measure != res[0].Measure || res[4].Measure != res[0].Measure {
		t.Fatal("memo hits must share the original measure")
	}
	if res[2].Measure == res[0].Measure || res[3].Measure == res[0].Measure {
		t.Fatal("distinct points must not share measures")
	}
	if res[1].ElapsedMS != 0 {
		t.Fatal("memo hits should report zero elapsed time")
	}
	if res[1].Name != "b" {
		t.Fatal("memo hits keep their own spec name")
	}
}

// TestSweepMemoDegreeNormalization: a default-degree spec must memo-hit
// its spelled-out degree-2 twin, and native specs key identically whatever
// degree tag they carry (native ignores the degree).
func TestSweepMemoDegreeNormalization(t *testing.T) {
	cfg := smallHPCCG(2)
	res, err := Sweep([]Spec{
		{Name: "default-degree", Mode: Intra, Logical: 2, App: HPCCG(cfg)},
		{Name: "explicit-degree", Mode: Intra, Logical: 2, Degree: 2, App: HPCCG(cfg)},
		{Name: "native-tagged", Mode: Native, Logical: 2, Degree: 3, App: HPCCG(cfg)},
		{Name: "native-plain", Mode: Native, Logical: 2, App: HPCCG(cfg)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res[1].Memoized || res[1].Measure != res[0].Measure {
		t.Fatal("degree 0 and degree 2 describe the same replicated simulation")
	}
	if !res[3].Memoized || res[3].Measure != res[2].Measure {
		t.Fatal("native specs must key identically whatever degree they carry")
	}
}

// TestFingerprintMatchesMemoKey pins scenario.Fingerprint and the sweep
// memo key together: for every pair of scenarios, the two encodings must
// agree on whether the points are the same simulation. This is the guard
// against the two canonical encoders drifting apart.
func TestFingerprintMatchesMemoKey(t *testing.T) {
	cfg := smallHPCCG(2)
	cfg2 := cfg
	cfg2.Iters = 3
	scs := []scenario.Scenario{
		{App: "hpccg", Config: scenario.MustRaw(cfg), Mode: Intra, Logical: 2},
		{App: "hpccg", Config: scenario.MustRaw(cfg), Mode: Intra, Logical: 2, Degree: 2},
		{App: "hpccg", Config: scenario.MustRaw(cfg), Mode: Intra, Logical: 2, Degree: 3},
		{App: "hpccg", Config: scenario.MustRaw(cfg2), Mode: Intra, Logical: 2},
		{App: "hpccg", Config: scenario.MustRaw(cfg), Mode: Classic, Logical: 2},
		{App: "hpccg", Config: scenario.MustRaw(cfg), Mode: Intra, Logical: 4},
		{App: "hpccg", Config: scenario.MustRaw(cfg), Mode: Intra, Logical: 2, Net: "eth10g"},
		{App: "hpccg", Config: scenario.MustRaw(cfg), Mode: Intra, Logical: 2, Machine: "skylake"},
		{App: "hpccg", Config: scenario.MustRaw(cfg), Mode: Intra, Logical: 2,
			Intra: &scenario.IntraOptions{Inout: "atomic"}},
		// An explicit inout "copy" is the omitted default: both encoders
		// must key it together with the bare scenario above.
		{App: "hpccg", Config: scenario.MustRaw(cfg), Mode: Intra, Logical: 2,
			Intra: &scenario.IntraOptions{Inout: "copy"}},
		{App: "hpccg", Config: scenario.MustRaw(cfg), Mode: Intra, Logical: 2,
			Fault: &scenario.FaultSpec{Crashes: []scenario.Crash{{Logical: 0, Lane: 1, AtSeconds: 0.1}}}},
	}
	fps := make([]string, len(scs))
	keys := make([]string, len(scs))
	for i, sc := range scs {
		fp, err := sc.Fingerprint()
		if err != nil {
			t.Fatal(err)
		}
		fps[i] = fp
		spec, err := SpecFor(sc)
		if err != nil {
			t.Fatal(err)
		}
		if keys[i] = spec.key(); keys[i] == "" {
			t.Fatalf("scenario %d is unexpectedly not memoizable", i)
		}
	}
	for i := range scs {
		for j := range scs {
			if (fps[i] == fps[j]) != (keys[i] == keys[j]) {
				t.Fatalf("scenarios %d and %d: Fingerprint says same=%v, memo key says same=%v",
					i, j, fps[i] == fps[j], keys[i] == keys[j])
			}
		}
	}
}

// TestSweepNoMemoForHookedSpecs checks that specs carrying code the key
// cannot fingerprint (hooks, custom schedulers) are never deduplicated.
func TestSweepNoMemoForHookedSpecs(t *testing.T) {
	var runs atomic.Int32
	app := App{Name: "x", key: "same", main: func(rt core.Runner) (sim.Time, map[string]*apputil.KernelTime, core.Stats, error) {
		runs.Add(1)
		return rt.Now(), nil, core.Stats{}, nil
	}}
	hooked := core.Options{Hooks: core.Hooks{BeforeTaskExec: func(int, int) {}}}
	_, err := Sweep([]Spec{
		{Name: "h1", Mode: Intra, Logical: 1, Opts: hooked, App: app},
		{Name: "h2", Mode: Intra, Logical: 1, Opts: hooked, App: app},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := runs.Load(); got != 4 { // 2 specs x 1 logical x 2 replicas
		t.Fatalf("hooked specs ran %d bodies, want 4 (no dedup)", got)
	}
}

// TestSweepFaultSpecs checks the fault-schedule wiring: a schedule with
// crashes slows the point down and is recorded, an empty schedule keys
// identically to no schedule at all (memo hit), distinct schedules key
// apart, and a fault on an unreplicated mode is a named error.
func TestSweepFaultSpecs(t *testing.T) {
	cfg := smallHPCCG(4)
	sched := fault.Exponential(4, 2, 20*sim.Millisecond, 100*sim.Millisecond, 5)
	if len(sched.Crashes) == 0 {
		t.Fatal("test draw produced no crashes; pick another seed")
	}
	specs := []Spec{
		{Name: "clean", Mode: Intra, Logical: 4, App: HPCCG(cfg)},
		{Name: "empty-fault", Mode: Intra, Logical: 4, App: HPCCG(cfg), Fault: &fault.Schedule{}},
		{Name: "crashy", Mode: Intra, Logical: 4, App: HPCCG(cfg), Fault: sched},
	}
	res, err := Sweep(specs)
	if err != nil {
		t.Fatal(err)
	}
	clean, empty, crashy := res[0], res[1], res[2]
	if clean.Crashes != 0 || empty.Crashes != 0 || crashy.Crashes != len(sched.Crashes) {
		t.Fatalf("crash counts wrong: %d/%d/%d", clean.Crashes, empty.Crashes, crashy.Crashes)
	}
	if !empty.Memoized || empty.Measure != clean.Measure {
		t.Fatal("an empty schedule must memoize against the fault-free point")
	}
	if crashy.Memoized {
		t.Fatal("a crashing schedule must not memoize against the fault-free point")
	}
	if crashy.WallSeconds < clean.WallSeconds {
		t.Fatalf("crashes should not speed the run up: %v < %v", crashy.WallSeconds, clean.WallSeconds)
	}
	if _, err := Sweep([]Spec{{Name: "native-fault", Mode: Native, Logical: 4,
		App: HPCCG(cfg), Fault: sched}}); err == nil ||
		!strings.Contains(err.Error(), "replicated") {
		t.Fatalf("fault on native must be a named error, got %v", err)
	}
}

// TestSweepErrorPropagation checks that a failing app run surfaces as an
// error naming the failing spec, deterministically across worker counts.
func TestSweepErrorPropagation(t *testing.T) {
	boom := App{Name: "boom", key: "boom", main: func(rt core.Runner) (sim.Time, map[string]*apputil.KernelTime, core.Stats, error) {
		return 0, nil, core.Stats{}, errInjected
	}}
	specs := []Spec{
		{Name: "fine", Mode: Native, Logical: 2, App: HPCCG(smallHPCCG(2))},
		{Name: "broken", Mode: Native, Logical: 2, App: boom},
	}
	for _, workers := range []int{1, 4} {
		res, err := SweepN(workers, specs)
		if err == nil {
			t.Fatalf("workers=%d: expected an error", workers)
		}
		if res != nil {
			t.Fatalf("workers=%d: no results expected on error", workers)
		}
		if !strings.Contains(err.Error(), `"broken"`) || !strings.Contains(err.Error(), "injected") {
			t.Fatalf("workers=%d: error should name the spec and cause: %v", workers, err)
		}
	}
	// A spec with no application is an immediate, named error.
	if _, err := Sweep([]Spec{{Name: "empty", Mode: Native, Logical: 1}}); err == nil {
		t.Fatal("expected an error for a spec without an application")
	}
}

var errInjected = errInjectedType{}

type errInjectedType struct{}

func (errInjectedType) Error() string { return "injected failure" }

// TestSpecPartialPlatformDefaults checks that Net and Machine default
// independently: overriding just one must not discard or zero the other.
func TestSpecPartialPlatformDefaults(t *testing.T) {
	cfg := smallHPCCG(2)
	base, err := Sweep([]Spec{{Name: "default", Mode: Native, Logical: 2, App: HPCCG(cfg)}})
	if err != nil {
		t.Fatal(err)
	}
	machineOnly, err := Sweep([]Spec{{Name: "skylake", Mode: Native, Logical: 2,
		Machine: perf.Skylake, App: HPCCG(cfg)}})
	if err != nil {
		t.Fatal(err)
	}
	if machineOnly[0].AppSeconds >= base[0].AppSeconds {
		t.Fatalf("Skylake override ignored: %v >= %v (grid5000)",
			machineOnly[0].AppSeconds, base[0].AppSeconds)
	}
	netOnly, err := Sweep([]Spec{{Name: "eth", Mode: Native, Logical: 2,
		Net: simnet.Ethernet10G, App: HPCCG(cfg)}})
	if err != nil {
		t.Fatal(err)
	}
	if s := netOnly[0].AppSeconds; s <= 0 || math.IsInf(s, 0) || math.IsNaN(s) {
		t.Fatalf("net-only spec got a zero machine model: app seconds = %v", s)
	}
}

// TestFigureRegistry checks the id registry both CLIs share.
func TestFigureRegistry(t *testing.T) {
	if len(FigureIDs) != len(FigureDescriptions) {
		t.Fatalf("ids and descriptions out of sync: %d vs %d", len(FigureIDs), len(FigureDescriptions))
	}
	for _, id := range FigureIDs {
		if FigureDescriptions[id] == "" {
			t.Fatalf("no description for %q", id)
		}
	}
	if _, err := RunFigure("nope", 0, 0); err == nil {
		t.Fatal("unknown figure id must error")
	}
	tab, err := RunFigure("ckpt", 0, 0)
	if err != nil || tab.ID != "ckpt" {
		t.Fatalf("ckpt: %v %v", tab, err)
	}
}

// TestFiguresByteIdenticalAcrossGOMAXPROCS regenerates a figure with the
// worker pool forced serial and fully parallel: the rendered tables must
// match byte for byte. The figure path sizes its pool from GOMAXPROCS, so
// the serial rendering pins it to 1.
func TestFiguresByteIdenticalAcrossGOMAXPROCS(t *testing.T) {
	render := func() string {
		tab, err := Fig5b([]int{16}, 3)
		if err != nil {
			t.Fatal(err)
		}
		return tab.String()
	}
	prev := runtime.GOMAXPROCS(1)
	serial := render()
	runtime.GOMAXPROCS(prev)
	for i := 0; i < 3; i++ {
		if got := render(); got != serial {
			t.Fatalf("parallel rendering diverges from GOMAXPROCS=1:\n%s\nvs\n%s", got, serial)
		}
	}
}

// TestCCRSpecMemoSharesNativeRun: a ccr point's cluster simulation is the
// native run, so the two memo-share, while each result reports its own
// mode. SpecFor accepts ccr scenarios (the campaign's reference path).
func TestCCRSpecMemoSharesNativeRun(t *testing.T) {
	cfg := smallHPCCG(3)
	specs := []Spec{
		{Name: "native", Mode: Native, Logical: 4, App: HPCCG(cfg)},
		{Name: "ccr", Mode: CCR, Logical: 4, App: HPCCG(cfg)},
	}
	res, err := SweepN(1, specs)
	if err != nil {
		t.Fatal(err)
	}
	if !res[1].Memoized {
		t.Fatal("ccr spec must be served from the native run's memo entry")
	}
	if res[0].Mode != "Open MPI" || res[1].Mode != "cCR" {
		t.Fatalf("modes %q / %q: memo sharing must not leak the other spec's mode", res[0].Mode, res[1].Mode)
	}
	if res[0].WallSeconds != res[1].WallSeconds || res[1].PhysProcs != 4 || res[1].Degree != 1 {
		t.Fatalf("ccr result diverged from native: %+v vs %+v", res[0], res[1])
	}

	sc := scenario.Scenario{
		Name: "ccr-point", App: "hpccg", Config: scenario.MustRaw(cfg),
		Mode: scenario.CCR, Logical: 4,
		Ckpt: &scenario.CkptOptions{DeltaSeconds: 0.01},
	}
	spec, err := SpecFor(sc)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Mode != CCR {
		t.Fatalf("SpecFor dropped the ccr mode: %+v", spec)
	}
	// The checkpoint process never runs inside the simulator, so a single
	// ccr sweep point is just its native run.
	one, err := SweepN(1, []Spec{spec})
	if err != nil {
		t.Fatal(err)
	}
	if one[0].Crashes != 0 || one[0].WallSeconds != res[0].WallSeconds {
		t.Fatalf("plain ccr sweep point: %+v", one[0])
	}
}

// TestForEachRunsEveryIndexOnce pins the shared index fan-out: every index
// in [0, n) runs exactly once at any worker count, including the defaulted
// (0 = GOMAXPROCS) and the more-workers-than-indices cases.
func TestForEachRunsEveryIndexOnce(t *testing.T) {
	for _, n := range []int{0, 1, 3, 17} {
		for _, workers := range []int{0, 1, 4, 32} {
			counts := make([]atomic.Int32, n)
			ForEach(workers, n, func(i int) { counts[i].Add(1) })
			for i := range counts {
				if c := counts[i].Load(); c != 1 {
					t.Errorf("n=%d workers=%d: index %d ran %d times", n, workers, i, c)
				}
			}
		}
	}
}
