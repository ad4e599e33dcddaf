package repro

import (
	"strconv"
	"testing"

	"repro/internal/apps/hpccg"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/mpi"
	"repro/internal/perf"
	"repro/internal/sim"
	"repro/internal/simnet"
)

// Figure-level benchmarks: each regenerates one figure of the paper's
// evaluation on a reduced cluster (so a bench iteration stays fast) and
// reports the measured efficiencies as benchmark metrics. Run the full
// paper-scale tables with: go run ./cmd/sweep -figures all

func cell(b *testing.B, t *experiments.Table, row, col int) float64 {
	b.Helper()
	v, err := strconv.ParseFloat(t.Rows[row][col], 64)
	if err != nil {
		b.Fatalf("cell (%d,%d) = %q", row, col, t.Rows[row][col])
	}
	return v
}

// BenchmarkFig5aKernels regenerates Figure 5a (per-kernel efficiency of
// waxpby / ddot / sparsemv).
func BenchmarkFig5aKernels(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.Fig5a(32, 3)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(cell(b, t, 0, 5), "waxpby-eff")
		b.ReportMetric(cell(b, t, 1, 5), "ddot-eff")
		b.ReportMetric(cell(b, t, 2, 5), "sparsemv-eff")
	}
}

// BenchmarkFig5bHPCCG regenerates Figure 5b (HPCCG weak scaling).
func BenchmarkFig5bHPCCG(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.Fig5b([]int{32}, 3)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(cell(b, t, 0, 3), "sdr-eff")
		b.ReportMetric(cell(b, t, 0, 5), "intra-eff")
	}
}

func benchFig6(b *testing.B, fn func(int) (*experiments.Table, error), procs int) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		t, err := fn(procs)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(cell(b, t, 1, 5), "sdr-eff")
		b.ReportMetric(cell(b, t, 2, 5), "intra-eff")
	}
}

// BenchmarkFig6aAMGPCG regenerates Figure 6a (AMG, 27-point, PCG).
func BenchmarkFig6aAMGPCG(b *testing.B) { benchFig6(b, experiments.Fig6a, 16) }

// BenchmarkFig6bAMGGMRES regenerates Figure 6b (AMG, 7-point, GMRES).
func BenchmarkFig6bAMGGMRES(b *testing.B) { benchFig6(b, experiments.Fig6b, 16) }

// BenchmarkFig6cGTC regenerates Figure 6c (GTC particle-in-cell).
func BenchmarkFig6cGTC(b *testing.B) { benchFig6(b, experiments.Fig6c, 16) }

// BenchmarkFig6dMiniGhost regenerates Figure 6d (MiniGhost stencil).
func BenchmarkFig6dMiniGhost(b *testing.B) { benchFig6(b, experiments.Fig6d, 16) }

// BenchmarkAblationTaskGranularity sweeps tasks/section (§V-B discussion).
func BenchmarkAblationTaskGranularity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.AblationTaskGranularity(16)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(cell(b, t, 0, 2), "eff-1task")
		b.ReportMetric(cell(b, t, 3, 2), "eff-8tasks")
	}
}

// BenchmarkAblationInoutMode compares copy-restore vs atomic apply
// (§III-B2).
func BenchmarkAblationInoutMode(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.AblationInoutMode(8)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(cell(b, t, 0, 2), "copy-sec")
		b.ReportMetric(cell(b, t, 1, 2), "atomic-sec")
	}
}

// BenchmarkCkptModel evaluates the §II checkpoint-vs-replication model.
func BenchmarkCkptModel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.CkptModelTable()
		last := len(t.Rows) - 1
		b.ReportMetric(cell(b, t, last, 3), "ccr-eff-extreme")
		b.ReportMetric(cell(b, t, last, 5), "intra-eff-extreme")
	}
}

// --- sweep-runner benchmarks ---

// fig6PanelSpecs is the four Figure 6 applications as one sweep grid.
func fig6PanelSpecs(logical int) []experiments.Spec {
	return []experiments.Spec{
		{Name: "amg-pcg", Mode: experiments.Intra, Logical: logical, App: experiments.AMG(experiments.Fig6aConfig())},
		{Name: "amg-gmres", Mode: experiments.Intra, Logical: logical, App: experiments.AMG(experiments.Fig6bConfig())},
		{Name: "gtc", Mode: experiments.Intra, Logical: logical, App: experiments.GTC(experiments.Fig6cConfig())},
		{Name: "minighost", Mode: experiments.Intra, Logical: logical, App: experiments.MiniGhost(experiments.Fig6dConfig())},
	}
}

// BenchmarkSweepSerial runs the Figure 6 panel on one worker: the baseline
// the parallel runner is measured against.
func BenchmarkSweepSerial(b *testing.B) {
	specs := fig6PanelSpecs(8)
	for i := 0; i < b.N; i++ {
		if _, err := experiments.SweepN(1, specs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSweepParallel runs the same panel on all cores; the speedup over
// BenchmarkSweepSerial is the tentpole's win.
func BenchmarkSweepParallel(b *testing.B) {
	specs := fig6PanelSpecs(8)
	for i := 0; i < b.N; i++ {
		res, err := experiments.Sweep(specs)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			var events uint64
			for _, r := range res {
				events += r.SimEvents
			}
			b.ReportMetric(float64(events), "sim-events")
		}
	}
}

// BenchmarkSweepMemo measures a sweep whose grid is one unique point
// repeated: everything after the first run must be a memo hit.
func BenchmarkSweepMemo(b *testing.B) {
	spec := fig6PanelSpecs(8)[0]
	specs := make([]experiments.Spec, 16)
	for i := range specs {
		specs[i] = spec
	}
	for i := 0; i < b.N; i++ {
		res, err := experiments.Sweep(specs)
		if err != nil {
			b.Fatal(err)
		}
		hits := 0
		for _, r := range res {
			if r.Memoized {
				hits++
			}
		}
		if hits != len(specs)-1 {
			b.Fatalf("memo hits = %d, want %d", hits, len(specs)-1)
		}
	}
}

// --- substrate micro-benchmarks ---

// BenchmarkSimEngineEvents measures raw event throughput of the
// discrete-event engine.
func BenchmarkSimEngineEvents(b *testing.B) {
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

// BenchmarkMPIPingPong measures simulated point-to-point messaging.
func BenchmarkMPIPingPong(b *testing.B) {
	e := sim.New()
	net := simnet.New(e, simnet.InfiniBand20G, 1)
	w := mpi.NewWorld(e, net, 2, perf.Grid5000, nil)
	payload := make([]float64, 128)
	w.Launch("a", 0, func(r *mpi.Rank) {
		for i := 0; i < b.N; i++ {
			r.Send(r.World(), 1, 0, payload, nil)
			if _, err := r.Recv(r.World(), 1, 1); err != nil {
				b.Error(err)
				return
			}
		}
	})
	w.Launch("b", 1, func(r *mpi.Rank) {
		for i := 0; i < b.N; i++ {
			if _, err := r.Recv(r.World(), 0, 0); err != nil {
				b.Error(err)
				return
			}
			r.Send(r.World(), 0, 1, payload, nil)
		}
	})
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkAllreduce64 measures a 64-rank simulated allreduce per op.
func BenchmarkAllreduce64(b *testing.B) {
	e := sim.New()
	net := simnet.New(e, simnet.InfiniBand20G, 16)
	w := mpi.NewWorld(e, net, 64, perf.Grid5000, nil)
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

// BenchmarkIntraSection measures the full cost of one intra-parallel
// section (8 tasks, two replicas) including update shipping.
func BenchmarkIntraSection(b *testing.B) {
	var wall sim.Time
	_, err := experiments.RunProgram(experiments.ClusterConfig{Logical: 1, Mode: experiments.Intra},
		func(rt core.Runner) {
			out := make(core.Float64s, 1024)
			for i := 0; i < b.N; i++ {
				rt.SectionBegin()
				id := rt.TaskRegister(func(c core.Ctx, args []core.Value) {
					c.Compute(perf.Work{Flops: 1000})
				}, core.Out)
				for k := 0; k < 8; k++ {
					rt.TaskLaunch(id, out[k*128:(k+1)*128])
				}
				if err := rt.SectionEnd(); err != nil {
					b.Error(err)
					return
				}
			}
			wall = rt.Now()
		})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(wall.Seconds()/float64(b.N)*1e6, "virtual-us/section")
}

// BenchmarkHPCCGIteration measures one simulated CG iteration end to end
// under intra-parallelization.
func BenchmarkHPCCGIteration(b *testing.B) {
	cfg := hpccg.DefaultConfig()
	cfg.Nx, cfg.Ny, cfg.Nz = 8, 8, 8
	cfg.Iters = b.N
	_, err := experiments.RunProgram(experiments.ClusterConfig{Logical: 2, Mode: experiments.Intra},
		func(rt core.Runner) {
			if _, err := hpccg.Run(rt, cfg); err != nil {
				b.Error(err)
			}
		})
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkAblationDegree measures efficiency vs replication degree.
func BenchmarkAblationDegree(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.AblationDegree(8)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(cell(b, t, 1, 3), "eff-degree2")
		b.ReportMetric(cell(b, t, 2, 3), "eff-degree3")
	}
}
