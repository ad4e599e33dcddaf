// Package gtc is a surrogate of the GTC gyrokinetic particle-in-cell code
// from the NERSC-8 benchmark suite (§V-D, Figure 6c of the paper).
//
// It reproduces GTC's computational structure: a charge-deposition phase
// scattering particles onto a grid, a field solve, a particle push whose
// new positions depend on the old ones (hence inout arguments and the
// extra-copy machinery of §III-B2), and a shift phase exchanging particles
// with neighboring domains. Particles are pre-binned into zones so that
// charge and push tasks write disjoint grid and particle ranges,
// satisfying the input-dependence-only rule of Definition 2.
package gtc

import (
	"sync"

	"repro/internal/apps/apputil"
	"repro/internal/core"
	"repro/internal/kernels"
	"repro/internal/mpi"
	"repro/internal/perf"
	"repro/internal/sim"
)

// Config parameterizes a GTC run.
type Config struct {
	Cells     int     // local grid cells
	PerCell   int     // particles per cell (micell)
	Zones     int     // particle zones == tasks per section
	Steps     int     // time steps
	Dt        float64 // push time step
	Scale     float64 // virtual-cost multiplier
	ShiftFrac float64 // fraction of particles exchanged with neighbors per step
	AuxBytes  float64 // per-particle memory traffic of the non-sectioned phases
	//          (poloidal field solve, smoothing, diagnostics; GTC spends
	//          ~25% of its time there, §V-D)
	// Intra-parallelize the two main kernels (the paper applies it to both
	// charge and push, which account for ~75% of runtime).
	IntraCharge bool
	IntraPush   bool
}

// DefaultConfig returns a small test configuration.
func DefaultConfig() Config {
	return Config{
		Cells: 64, PerCell: 16, Zones: 8,
		Steps: 4, Dt: 0.05, Scale: 1, ShiftFrac: 0.05, AuxBytes: 40,
		IntraCharge: true, IntraPush: true,
	}
}

// Result reports one replica's view of the run.
type Result struct {
	TotalWeight float64 // conserved particle weight (correctness witness)
	FieldEnergy float64 // sum of phi^2 at the end (correctness witness)
	Kernels     map[string]*apputil.KernelTime
	Total       sim.Time
	Stats       core.Stats
}

const (
	tagShiftUp = iota + 300
	tagShiftDown
)

type app struct {
	rt    core.Runner
	cfg   Config
	clock *apputil.Clock
	*state
}

// state is one replica's start state: the zone particle arrays and the
// grids. A run mutates all of it, so it is rebuilt for every run: init
// overwrites every element, exactly as a freshly allocated state would
// start.
type state struct {
	zones  []*kernels.Particles
	zoneC0 []float64 // first cell of each zone
	zoneC1 []float64
	zidx   []float64 // zone indices, the backing of the tasks' zone arguments
	rho    []float64
	phi    []float64
}

func (st *state) init(cfg Config) {
	perZone := cfg.Cells / cfg.Zones
	st.zoneC0, st.zoneC1, st.zidx = st.zoneC0[:0], st.zoneC1[:0], st.zidx[:0]
	for z := 0; z < cfg.Zones; z++ {
		c0 := float64(z * perZone)
		c1 := float64((z + 1) * perZone)
		st.zoneC0 = append(st.zoneC0, c0)
		st.zoneC1 = append(st.zoneC1, c1)
		st.zidx = append(st.zidx, float64(z))
		if z == len(st.zones) {
			st.zones = append(st.zones, new(kernels.Particles))
		}
		st.zones[z].Init(perZone*cfg.PerCell, c0, c1)
	}
	st.zones = st.zones[:cfg.Zones]
	st.rho = append(st.rho[:0], make([]float64, cfg.Cells)...)
	st.phi = append(st.phi[:0], make([]float64, cfg.Cells)...)
}

// statePool recycles the start states of one app binding's runs, so the
// replicas of a campaign's trials re-initialize their predecessors'
// particle arrays instead of allocating their own. It holds at most as
// many states as runs of the binding were ever live at once.
type statePool struct {
	mu   sync.Mutex
	free []*state
}

// get returns an initialized start state for cfg.
func (sp *statePool) get(cfg Config) *state {
	sp.mu.Lock()
	var st *state
	if n := len(sp.free); n > 0 {
		st = sp.free[n-1]
		sp.free[n-1] = nil
		sp.free = sp.free[:n-1]
	}
	sp.mu.Unlock()
	if st == nil {
		st = new(state)
	}
	st.init(cfg)
	return st
}

// put returns a state whose run has ended.
func (sp *statePool) put(st *state) {
	sp.mu.Lock()
	sp.free = append(sp.free, st)
	sp.mu.Unlock()
}

// Run executes the GTC surrogate on the calling logical process.
func Run(rt core.Runner, cfg Config) (*Result, error) {
	return run(rt, cfg, new(statePool))
}

// run is Run drawing its start state from pool. The state goes back when
// the run ends, however it ends: nothing outside the replica references
// its memory (update messages and inout snapshots are copies).
func run(rt core.Runner, cfg Config, pool *statePool) (*Result, error) {
	if cfg.Zones <= 0 {
		cfg.Zones = 8
	}
	if cfg.Scale <= 0 {
		cfg.Scale = 1
	}
	a := &app{rt: rt, cfg: cfg, clock: apputil.NewClock(rt), state: pool.get(cfg)}
	defer pool.put(a.state)
	start := rt.Now()
	for step := 0; step < cfg.Steps; step++ {
		if err := a.charge(); err != nil {
			return nil, err
		}
		if err := a.fieldSolve(); err != nil {
			return nil, err
		}
		if err := a.push(); err != nil {
			return nil, err
		}
		if err := a.shift(); err != nil {
			return nil, err
		}
	}
	var weight float64
	for _, z := range a.zones {
		wz, _ := kernels.TotalWeight(z.W)
		weight += wz
	}
	total, err := rt.AllreduceScalar(mpi.OpSum, weight)
	if err != nil {
		return nil, err
	}
	var energy float64
	for _, v := range a.phi {
		energy += v * v
	}
	return &Result{
		TotalWeight: total,
		FieldEnergy: energy,
		Kernels:     a.clock.Times,
		Total:       rt.Now() - start,
		Stats:       *rt.Stats(),
	}, nil
}

// charge deposits particle weights onto the grid, one task per zone (each
// zone writes a disjoint grid range, keeping tasks input-dependent only).
func (a *app) charge() error {
	var err error
	a.clock.Track("charge", func() {
		if !a.cfg.IntraCharge {
			for z, ps := range a.zones {
				lo, hi := int(a.zoneC0[z]), int(a.zoneC1[z])
				w := kernels.ChargeDeposit(ps.Psi, ps.W, a.rho[lo:hi], a.zoneC0[z])
				a.rt.Compute(w.Scale(a.cfg.Scale))
				_ = hi
			}
			return
		}
		a.rt.SectionBegin()
		id := a.rt.TaskRegister(func(c core.Ctx, args []core.Value) {
			z := int(*args[1].(core.Scalar).P)
			ps := a.zones[z]
			lo, hi := int(a.zoneC0[z]), int(a.zoneC1[z])
			w := kernels.ChargeDeposit(ps.Psi, ps.W, a.rho[lo:hi], a.zoneC0[z])
			c.Compute(w.Scale(a.cfg.Scale))
		}, core.Out, core.In)
		for z := 0; z < a.cfg.Zones; z++ {
			lo, hi := int(a.zoneC0[z]), int(a.zoneC1[z])
			a.rt.TaskLaunch(id, core.Scaled(core.Float64s(a.rho[lo:hi]), a.cfg.Scale), core.Scalar{P: &a.zidx[z]})
		}
		err = a.rt.SectionEnd()
	})
	return err
}

// fieldSolve computes phi from rho: replicated computation plus a global
// neutralizing-background reduction (the cross-rank coupling of the real
// code's poloidal solve).
func (a *app) fieldSolve() error {
	var err error
	a.clock.Track("field", func() {
		var mean float64
		for _, v := range a.rho {
			mean += v
		}
		mean, err = a.rt.AllreduceScalar(mpi.OpSum, mean)
		if err != nil {
			return
		}
		mean /= float64(a.cfg.Cells * a.rt.LogicalSize())
		// Two damped Jacobi sweeps of a 1D Poisson-like smoother.
		n := a.cfg.Cells
		for sweep := 0; sweep < 2; sweep++ {
			prev := a.phi[0]
			for i := 1; i < n-1; i++ {
				old := a.phi[i]
				a.phi[i] = 0.5*a.phi[i] + 0.25*(prev+a.phi[i+1]) + 0.5*(a.rho[i]-mean)
				prev = old
			}
		}
		a.rt.Compute(perf.Work{
			Bytes: 2 * 32 * float64(n),
			Flops: 2 * 6 * float64(n),
		}.Scale(a.cfg.Scale))
		// Diagnostics and field smoothing scan the whole particle
		// population (replicated, outside sections).
		a.rt.Compute(perf.Work{
			Bytes: a.cfg.AuxBytes * float64(a.totalParticles()),
		}.Scale(a.cfg.Scale))
	})
	return err
}

// push advances the particles: positions and velocities are inout (the new
// state depends on the old), requiring the extra-copy protection the paper
// discusses for GTC (§IV).
func (a *app) push() error {
	var err error
	a.clock.Track("push", func() {
		if !a.cfg.IntraPush {
			for z, ps := range a.zones {
				w := kernels.Push(ps.Psi, ps.Vpar, a.phiZone(z), a.zoneC0[z], a.zoneC1[z], a.cfg.Dt)
				a.rt.Compute(w.Scale(a.cfg.Scale))
			}
			return
		}
		a.rt.SectionBegin()
		id := a.rt.TaskRegister(func(c core.Ctx, args []core.Value) {
			z := int(*args[2].(core.Scalar).P)
			ps := a.zones[z]
			w := kernels.Push(ps.Psi, ps.Vpar,
				a.phiZone(z), a.zoneC0[z], a.zoneC1[z], a.cfg.Dt)
			c.Compute(w.Scale(a.cfg.Scale))
		}, core.InOut, core.InOut, core.In)
		for z, ps := range a.zones {
			a.rt.TaskLaunch(id, core.Scaled(core.Float64s(ps.Psi), a.cfg.Scale),
				core.Scaled(core.Float64s(ps.Vpar), a.cfg.Scale), core.Scalar{P: &a.zidx[z]})
		}
		err = a.rt.SectionEnd()
	})
	return err
}

// phiZone returns the phi cells of zone z.
func (a *app) phiZone(z int) []float64 {
	return a.phi[int(a.zoneC0[z]):int(a.zoneC1[z])]
}

// shift models GTC's particle-shift phase: a fraction of each domain's
// particles crosses to the toroidal neighbors. The surrogate charges the
// scan/copy cost and exchanges equally-sized particle blocks whose
// contents do not alter zone membership (migration is symmetric by
// construction), keeping the numerics deterministic across modes.
func (a *app) shift() error {
	var err error
	a.clock.Track("shift", func() {
		rank, size := a.rt.LogicalRank(), a.rt.LogicalSize()
		nShift := int(float64(a.totalParticles()) * a.cfg.ShiftFrac / 2)
		if nShift == 0 || size == 1 {
			// Still charge the selection scan.
			a.rt.Compute(perf.Work{Bytes: 8 * float64(a.totalParticles())}.Scale(a.cfg.Scale))
			return
		}
		buf := make([]float64, nShift)
		up := (rank + 1) % size
		down := (rank - 1 + size) % size
		// Selection scan over all particles.
		a.rt.Compute(perf.Work{Bytes: 8 * float64(a.totalParticles())}.Scale(a.cfg.Scale))
		wire := int64(float64(8*nShift) * a.cfg.Scale)
		if e := a.rt.SendSized(up, tagShiftUp, buf, wire); e != nil {
			err = e
			return
		}
		if e := a.rt.SendSized(down, tagShiftDown, buf, wire); e != nil {
			err = e
			return
		}
		if _, e := a.rt.Recv(down, tagShiftUp); e != nil {
			err = e
			return
		}
		if _, e := a.rt.Recv(up, tagShiftDown); e != nil {
			err = e
			return
		}
		// Unpack/copy-in cost.
		a.rt.Compute(perf.Work{Bytes: 32 * float64(nShift)}.Scale(a.cfg.Scale))
	})
	return err
}

func (a *app) totalParticles() int {
	n := 0
	for _, z := range a.zones {
		n += z.Len()
	}
	return n
}
