package gtc

import (
	"fmt"

	"repro/internal/apps/apputil"
	"repro/internal/core"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// PaperConfig is the GTC problem of Figure 6c (mzetamax=64, npartdom=4,
// micell=200 scaled down).
func PaperConfig() Config {
	return Config{
		Cells: 64, PerCell: 25, Zones: 8,
		Steps: 6, Dt: 0.02, Scale: 64, ShiftFrac: 0.05, AuxBytes: 180,
		IntraCharge: true, IntraPush: true,
	}
}

// bind is the registry's runner for one app binding: every run through it
// recycles start states through pool.
func bind(cfg Config, pool *statePool) scenario.AppRun {
	return func(rt core.Runner) (sim.Time, map[string]*apputil.KernelTime, core.Stats, error) {
		res, err := run(rt, cfg, pool)
		if err != nil {
			return 0, nil, core.Stats{}, err
		}
		return res.Total, res.Kernels, res.Stats, nil
	}
}

func init() {
	scenario.RegisterApp(scenario.AppEntry{
		Name:        "gtc",
		Description: "GTC gyrokinetic particle-in-cell surrogate (Figure 6c)",
		New:         func() any { c := DefaultConfig(); return &c },
		Run: func(cfg any) (scenario.AppRun, error) {
			c, ok := cfg.(*Config)
			if !ok {
				return nil, fmt.Errorf("gtc: config is %T, want *gtc.Config", cfg)
			}
			return bind(*c, new(statePool)), nil
		},
		Paper: func(iters, tasks int) any {
			c := PaperConfig()
			if iters > 0 {
				c.Steps = iters
			}
			if tasks > 0 {
				c.Zones = tasks
			}
			return &c
		},
	})
}
