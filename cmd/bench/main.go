// Command bench runs the repository's performance trajectory: micro
// benchmarks of the simulation substrate (raw engine event throughput,
// point-to-point messaging, a 64-rank allreduce) and macro benchmarks at
// campaign scale (the CI smoke sweep, Monte Carlo failure trials), and
// writes the results as machine-readable JSON (BENCH_sim.json at the repo
// root by default). CI uploads the file as an artifact next to the
// determinism artifacts, so every commit carries its measured throughput.
//
// The embedded baseline is re-pinned each time a PR makes a deliberate
// performance claim; it currently holds the PR-8 substrate (allocation-light
// DES core, goroutine-per-rank collectives, fresh engine per spec), measured
// on the same benchmark bodies. The speedup section reports
// current/baseline so the collective-coalescing + engine-pooling refactor
// stays an observable, regression-checked fact; -min-speedup turns it into
// a hard gate for CI.
//
//	go run ./cmd/bench -out BENCH_sim.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/experiments"
	"repro/internal/jobstream"
	"repro/internal/mpi"
	"repro/internal/perf"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/simnet"
)

// Bench is one micro-benchmark result.
type Bench struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	OpsPerSec   float64 `json:"ops_per_sec"`
}

// Macro is one campaign-scale result: total wall time for a known unit
// count, plus the derived rate.
type Macro struct {
	Name       string  `json:"name"`
	Units      string  `json:"units"`
	Count      int     `json:"count"`
	Seconds    float64 `json:"seconds"`
	RatePerSec float64 `json:"rate_per_sec"`
}

// Speedup compares a current micro benchmark against the baseline.
type Speedup struct {
	Throughput  float64 `json:"throughput_x"`   // baseline ns/op ÷ current ns/op
	AllocsRatio float64 `json:"allocs_ratio_x"` // baseline allocs/op ÷ current (+1 each to tolerate zero)
}

// Output is the BENCH_sim.json schema.
type Output struct {
	GeneratedAt string             `json:"generated_at"`
	GoVersion   string             `json:"go_version"`
	GoMaxProcs  int                `json:"gomaxprocs"`
	Micro       []Bench            `json:"micro"`
	Macro       []Macro            `json:"macro"`
	Baseline    []Bench            `json:"baseline"`
	Speedup     map[string]Speedup `json:"speedup_vs_baseline"`
}

// baseline is the coalesced-collective substrate (PR 9), measured with
// that revision's own bench tool on the machine that pinned this baseline
// (Xeon 2.10GHz, go1.24, GOMAXPROCS=1) — all five micros pinned, so the
// slab-pooled allocation work and message recycling on top of it stay an
// observable, regression-checked fact. Cross-machine ns/op comparisons are
// meaningless at gate precision, so a re-pin always re-measures the old
// revision on the current machine. (The PR-8 goroutine-per-collective
// substrate, the previous pin, measured 3189 ns/op mpi-pingpong and
// 475035 ns/op allreduce-64 on its 2.70GHz box; the PR-4 closure-per-event
// engine before it, 58.40 ns/op engine-events.)
var baseline = []Bench{
	{Name: "engine-events", NsPerOp: 16.333620253717108, AllocsPerOp: 0, BytesPerOp: 0, OpsPerSec: 1e9 / 16.333620253717108},
	{Name: "mpi-pingpong", NsPerOp: 1580.8344411265762, AllocsPerOp: 4, BytesPerOp: 2208, OpsPerSec: 1e9 / 1580.8344411265762},
	{Name: "allreduce-64", NsPerOp: 53786.790050699834, AllocsPerOp: 0, BytesPerOp: 35, OpsPerSec: 1e9 / 53786.790050699834},
	{Name: "allreduce-512", NsPerOp: 958276.7407407408, AllocsPerOp: 34, BytesPerOp: 6110, OpsPerSec: 1e9 / 958276.7407407408},
	{Name: "pooled-sweep", NsPerOp: 7.292635525e+07, AllocsPerOp: 18251, BytesPerOp: 64471987, OpsPerSec: 1e9 / 7.292635525e+07},
}

func toBench(name string, r testing.BenchmarkResult) Bench {
	ns := float64(r.T.Nanoseconds()) / float64(r.N)
	return Bench{
		Name:        name,
		NsPerOp:     ns,
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
		OpsPerSec:   1e9 / ns,
	}
}

// benchEngineEvents measures raw event throughput: a single self-
// rescheduling event chain, the engine's absolute hot path.
func benchEngineEvents(b *testing.B) {
	b.ReportAllocs()
	e := sim.New()
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < b.N {
			e.After(1, tick)
		}
	}
	b.ResetTimer()
	e.After(1, tick)
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// benchPingPong measures one simulated send+recv round trip between two
// ranks sharing a node. Received messages are recycled, the steady-state
// discipline of a well-behaved consumer, so the round is allocation-free
// beyond amortized pool slab refills.
func benchPingPong(b *testing.B) {
	b.ReportAllocs()
	e := sim.New()
	net := simnet.New(e, simnet.InfiniBand20G, 1)
	w := mpi.NewWorld(e, net, 2, perf.Grid5000, nil)
	payload := make([]float64, 128)
	w.Launch("a", 0, func(r *mpi.Rank) {
		for i := 0; i < b.N; i++ {
			r.Send(r.World(), 1, 0, payload, nil)
			msg, err := r.Recv(r.World(), 1, 1)
			if err != nil {
				b.Error(err)
				return
			}
			w.RecycleMessage(msg)
		}
	})
	w.Launch("b", 1, func(r *mpi.Rank) {
		for i := 0; i < b.N; i++ {
			msg, err := r.Recv(r.World(), 0, 0)
			if err != nil {
				b.Error(err)
				return
			}
			w.RecycleMessage(msg)
			r.Send(r.World(), 0, 1, payload, nil)
		}
	})
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// benchAllreduce measures an n-rank simulated allreduce per op (4 ranks
// per node, the smoke-cluster density).
func benchAllreduce(n int) func(b *testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		e := sim.New()
		net := simnet.New(e, simnet.InfiniBand20G, n/4)
		w := mpi.NewWorld(e, net, n, perf.Grid5000, nil)
		w.LaunchAll("p", func(r *mpi.Rank) {
			for i := 0; i < b.N; i++ {
				if _, err := r.AllreduceScalar(r.World(), mpi.OpSum, 1); err != nil {
					b.Error(err)
					return
				}
			}
		})
		b.ResetTimer()
		if err := e.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// benchPooledSweep measures one full pass of the smoke grid through the
// pooled runner (SweepN reuses one engine + scratch across the grid's
// specs, Reset between them) — the layer this PR's engine pooling
// accelerates, as opposed to the per-collective micros above.
func benchPooledSweep(b *testing.B) {
	scs, err := smokeGrid()
	if err != nil {
		b.Fatal(err)
	}
	specs, err := experiments.SpecsFor(scs)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.SweepN(1, specs); err != nil {
			b.Fatal(err)
		}
	}
}

// smokeGrid is the CI smoke scenario (scenarios/smoke.json) inlined so the
// tool runs from any working directory: HPCCG under all three modes on a
// small cluster.
func smokeGrid() ([]scenario.Scenario, error) {
	g := scenario.Grid{
		Apps:    []string{"hpccg"},
		Modes:   []scenario.Mode{scenario.Native, scenario.Classic, scenario.Intra},
		Procs:   []int{8},
		Degrees: []int{2},
		Iters:   3,
	}
	return g.Expand()
}

// runSweepMacro times repeated full runs of the smoke grid through the
// parallel sweep runner (fresh memo each repetition, so every scenario is
// simulated).
func runSweepMacro(reps int) (Macro, error) {
	scs, err := smokeGrid()
	if err != nil {
		return Macro{}, err
	}
	start := time.Now()
	count := 0
	for i := 0; i < reps; i++ {
		res, err := experiments.SweepScenarios(0, scs)
		if err != nil {
			return Macro{}, err
		}
		count += len(res)
	}
	el := time.Since(start).Seconds()
	return Macro{
		Name: "sweep-smoke", Units: "scenario-runs", Count: count,
		Seconds: el, RatePerSec: float64(count) / el,
	}, nil
}

// runCampaignMacro times a Monte Carlo failure campaign (GTC, classic
// replication, 8 logical ranks, exponential failures) and reports seeded
// trials per second. The rate includes the campaign's two fault-free
// reference runs, i.e. it is the end-to-end cost per trial at this trial
// count, which is what campaign wall time scales with.
func runCampaignMacro(trials int) (Macro, error) {
	ent, err := scenario.AppByName("gtc")
	if err != nil {
		return Macro{}, err
	}
	sc := campaign.Scenario{
		MTBF: sim.Seconds(0.05),
		Point: scenario.Scenario{
			Name: "bench/gtc/classic/p8",
			App:  "gtc", Config: scenario.MustRaw(ent.Paper(2, 0)),
			Mode: scenario.Classic, Logical: 8, Degree: 2,
		},
	}
	start := time.Now()
	if _, err := campaign.Run(campaign.Config{Trials: trials, Seed: 1}, []campaign.Scenario{sc}); err != nil {
		return Macro{}, err
	}
	el := time.Since(start).Seconds()
	return Macro{
		Name: "campaign-gtc-trials", Units: "trials", Count: trials,
		Seconds: el, RatePerSec: float64(trials) / el,
	}, nil
}

// runJobstreamMacro times the open-load jobstream service (the CI smoke
// workload inlined: two job classes, node failures, FCFS vs EASY crossed
// with native vs replicated jobs) and reports simulated job submissions
// per second of bench wall time — the end-to-end cost of the scheduler
// event loop plus policy decisions plus failure resolution.
func runJobstreamMacro(trials int) (Macro, error) {
	w := &scenario.Workload{
		Nodes: 16, Jobs: 40, Rates: []float64{8},
		MTBFSeconds: 10, Seed: 7,
		Mix: []scenario.JobClass{
			{Name: "hpccg-small", App: "hpccg", Config: json.RawMessage(`{"Iters": 5, "Scale": 64}`), Logical: 4, Weight: 2},
			{Name: "gtc-small", App: "gtc", Config: json.RawMessage(`{"Steps": 2, "Scale": 512}`), Logical: 2, Weight: 1},
		},
		Schedulers: []string{"fcfs", "easy"},
		Policies:   []string{"native", "replicate"},
	}
	cells := len(w.Rates) * len(w.Schedulers) * len(w.Policies) * trials
	jobs := cells * w.Jobs
	start := time.Now()
	if _, err := jobstream.Run(jobstream.Config{Trials: trials}, w); err != nil {
		return Macro{}, err
	}
	el := time.Since(start).Seconds()
	return Macro{
		Name: "jobstream-smoke", Units: "jobs", Count: jobs,
		Seconds: el, RatePerSec: float64(jobs) / el,
	}, nil
}

func main() {
	out := flag.String("out", "BENCH_sim.json", "output JSON path")
	reps := flag.Int("sweep-reps", 3, "repetitions of the smoke-grid sweep macro benchmark")
	trials := flag.Int("trials", 1000, "seeded trials for the campaign macro benchmark (1000 amortizes the reference runs)")
	jsTrials := flag.Int("jobstream-trials", 5, "seeded trials per cell for the jobstream macro benchmark")
	minSpeedup := flag.Float64("min-speedup", 0, "exit nonzero if any speedup_vs_baseline throughput falls below this (0 disables)")
	flag.Parse()

	micro := []Bench{
		toBench("engine-events", testing.Benchmark(benchEngineEvents)),
		toBench("mpi-pingpong", testing.Benchmark(benchPingPong)),
		toBench("allreduce-64", testing.Benchmark(benchAllreduce(64))),
		toBench("allreduce-512", testing.Benchmark(benchAllreduce(512))),
		toBench("pooled-sweep", testing.Benchmark(benchPooledSweep)),
	}
	speedup := make(map[string]Speedup, len(baseline))
	for _, base := range baseline {
		for _, cur := range micro {
			if cur.Name != base.Name {
				continue
			}
			speedup[cur.Name] = Speedup{
				Throughput:  base.NsPerOp / cur.NsPerOp,
				AllocsRatio: float64(base.AllocsPerOp+1) / float64(cur.AllocsPerOp+1),
			}
		}
	}

	var macro []Macro
	for _, run := range []func() (Macro, error){
		func() (Macro, error) { return runSweepMacro(*reps) },
		func() (Macro, error) { return runCampaignMacro(*trials) },
		func() (Macro, error) { return runJobstreamMacro(*jsTrials) },
	} {
		m, err := run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			os.Exit(1)
		}
		macro = append(macro, m)
	}

	o := Output{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GoVersion:   runtime.Version(),
		GoMaxProcs:  runtime.GOMAXPROCS(0),
		Micro:       micro,
		Macro:       macro,
		Baseline:    baseline,
		Speedup:     speedup,
	}
	b, err := json.MarshalIndent(o, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
	b = append(b, '\n')
	if err := os.WriteFile(*out, b, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}

	for _, m := range micro {
		if s, ok := speedup[m.Name]; ok {
			fmt.Printf("%-16s %10.1f ns/op %6d allocs/op %8d B/op  (%.2fx vs baseline)\n",
				m.Name, m.NsPerOp, m.AllocsPerOp, m.BytesPerOp, s.Throughput)
		} else {
			fmt.Printf("%-16s %10.1f ns/op %6d allocs/op %8d B/op  (no baseline)\n",
				m.Name, m.NsPerOp, m.AllocsPerOp, m.BytesPerOp)
		}
	}
	for _, m := range macro {
		fmt.Printf("%-20s %6d %s in %.2fs = %.1f/s\n", m.Name, m.Count, m.Units, m.Seconds, m.RatePerSec)
	}
	fmt.Printf("wrote %s\n", *out)

	if *minSpeedup > 0 {
		bad := false
		for name, s := range speedup {
			if s.Throughput < *minSpeedup {
				fmt.Fprintf(os.Stderr, "bench: %s regressed: %.3fx vs baseline < %.3fx floor\n",
					name, s.Throughput, *minSpeedup)
				bad = true
			}
		}
		if bad {
			os.Exit(1)
		}
	}
}
