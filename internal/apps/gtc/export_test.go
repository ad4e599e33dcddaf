package gtc

import (
	"repro/internal/kernels"
	"repro/internal/scenario"
)

// BindWitness is the registry's runner for cfg, returned together with a
// probe of its start-state pool: free reports how many recycled states
// the pool holds, and take draws one through the pool's initializer and
// returns its zones and grids. Use both only once every run through the
// runner has finished.
func BindWitness(cfg Config) (run scenario.AppRun, free func() int, take func() (zones []*kernels.Particles, rho, phi []float64)) {
	pool := new(statePool)
	free = func() int { return len(pool.free) }
	take = func() ([]*kernels.Particles, []float64, []float64) {
		st := pool.get(cfg)
		return st.zones, st.rho, st.phi
	}
	return bind(cfg, pool), free, take
}
