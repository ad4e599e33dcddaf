// Package hpccg is a port of the HPCCG mini-application from the Mantevo
// suite: an unpreconditioned conjugate-gradient solve of a 27-point
// Laplace-type problem on a 3D grid, decomposed in z across logical ranks
// (§V-C of the paper).
//
// Its three computational kernels — waxpby, ddot and sparsemv — are the
// micro-benchmarks of Figure 5a; the full application is the weak-scaling
// study of Figure 5b (where intra-parallelization is applied to ddot and
// sparsemv only, because waxpby does not profit).
package hpccg

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/apps/apputil"
	"repro/internal/core"
	"repro/internal/kernels"
	"repro/internal/mpi"
	"repro/internal/perf"
	"repro/internal/sim"
)

// Config parameterizes one HPCCG run.
type Config struct {
	Nx, Ny, Nz int     // local (per logical process) grid dimensions
	Iters      int     // CG iterations (HPCCG runs a fixed count)
	Tasks      int     // tasks per intra-parallel section (paper: 8)
	Scale      float64 // virtual-cost multiplier (paper volume / actual volume)
	PlaneScale float64 // wire-size multiplier for halo planes (paper plane / actual plane)
	// Which kernels run as intra-parallel sections. Under the native and
	// classic engines, sections execute locally, so these switches only
	// change where the work is accounted.
	IntraDdot     bool
	IntraSparsemv bool
	IntraWaxpby   bool
}

// DefaultConfig returns a small, fast configuration with all kernels
// sectioned.
func DefaultConfig() Config {
	return Config{
		Nx: 16, Ny: 16, Nz: 16,
		Iters: 10, Tasks: 8, Scale: 1,
		IntraDdot: true, IntraSparsemv: true, IntraWaxpby: false,
	}
}

// Result reports one replica's view of the run.
type Result struct {
	Residual float64                        // final residual norm
	Iters    int                            // iterations executed
	Kernels  map[string]*apputil.KernelTime // per-kernel wall times
	Total    sim.Time                       // total run wall time
	Stats    core.Stats                     // runtime counters snapshot
}

const (
	tagHaloUp = iota + 100
	tagHaloDown
)

// solver bundles one logical process's state.
type solver struct {
	rt    core.Runner
	cfg   Config
	clock *apputil.Clock
	mat   *kernels.CSR
	rows  int
	plane int

	x, b, r, p, Ap []float64 // p and Ap have halo space appended
}

// blockMemo holds the read-only 27-point matrix blocks of one app binding.
// A binding's grid is fixed, so a rank's block depends only on whether it
// has a z neighbor below and above: there are at most four distinct
// blocks. Each is generated once, by the first replica that needs it, and
// shared by every later replica and trial of the binding (the solver never
// writes its matrix). Matrix generation is host-side set-up that is never
// charged as virtual time, so sharing it changes no simulated outcome.
// Each key fills through its own sync.Once: a hit takes no lock, and
// concurrent sweep workers generating different blocks do not wait on
// each other.
type blockMemo struct {
	nx, ny, nz int
	slots      [4]struct {
		once sync.Once
		m    *kernels.CSR
	}
}

func newBlockMemo(cfg Config) *blockMemo {
	return &blockMemo{nx: cfg.Nx, ny: cfg.Ny, nz: cfg.Nz}
}

// block returns the matrix of a rank with the given z neighbors.
func (b *blockMemo) block(hasBelow, hasAbove bool) *kernels.CSR {
	k := 0
	if hasBelow {
		k |= 1
	}
	if hasAbove {
		k |= 2
	}
	s := &b.slots[k]
	s.once.Do(func() { s.m = kernels.Gen27Point(b.nx, b.ny, b.nz, hasBelow, hasAbove) })
	return s.m
}

// Run executes HPCCG on the calling logical process. All logical processes
// must call it with the same configuration.
func Run(rt core.Runner, cfg Config) (*Result, error) {
	return run(rt, cfg, newBlockMemo(cfg))
}

// run is Run drawing the matrix from blocks, which must have been built
// for cfg's grid.
func run(rt core.Runner, cfg Config, blocks *blockMemo) (*Result, error) {
	if cfg.Tasks <= 0 {
		cfg.Tasks = 8
	}
	if cfg.Scale <= 0 {
		cfg.Scale = 1
	}
	if cfg.PlaneScale <= 0 {
		cfg.PlaneScale = 1
	}
	s := &solver{rt: rt, cfg: cfg, clock: apputil.NewClock(rt)}
	s.plane = cfg.Nx * cfg.Ny
	s.rows = s.plane * cfg.Nz
	rank, size := rt.LogicalRank(), rt.LogicalSize()
	s.mat = blocks.block(rank > 0, rank < size-1)
	s.x = make([]float64, s.rows)
	s.b = make([]float64, s.rows)
	s.r = make([]float64, s.rows)
	s.p = make([]float64, s.rows+2*s.plane)
	s.Ap = make([]float64, s.rows)

	start := rt.Now()
	res, err := s.cg()
	if err != nil {
		return nil, err
	}
	res.Total = rt.Now() - start
	res.Kernels = s.clock.Times
	res.Stats = *rt.Stats()
	return res, nil
}

// cg runs the HPCCG iteration: r = b - Ax with x0 = 0, then standard CG.
func (s *solver) cg() (*Result, error) {
	// b is chosen so the exact solution is all-ones: b = A * ones.
	ones := make([]float64, s.rows+2*s.plane)
	kernels.Fill(ones, 1)
	if err := s.exchangeHalo(ones); err != nil {
		return nil, err
	}
	s.rt.Compute(s.mat.MulVec(ones, s.b).Scale(s.cfg.Scale))
	copy(s.r, s.b) // r = b - A*0
	copy(s.p, s.r)

	rtrans, err := s.ddot(s.r, s.r)
	if err != nil {
		return nil, err
	}
	var it int
	for it = 0; it < s.cfg.Iters; it++ {
		if it > 0 {
			oldrtrans := rtrans
			rtrans, err = s.ddot(s.r, s.r)
			if err != nil {
				return nil, err
			}
			beta := rtrans / oldrtrans
			// p = r + beta*p
			if err := s.waxpby(1.0, s.r, beta, s.p[:s.rows], s.p[:s.rows]); err != nil {
				return nil, err
			}
		}
		if err := s.exchangeHalo(s.p); err != nil {
			return nil, err
		}
		if err := s.sparsemv(s.p, s.Ap); err != nil {
			return nil, err
		}
		pAp, err := s.ddot(s.p[:s.rows], s.Ap)
		if err != nil {
			return nil, err
		}
		if pAp == 0 {
			return nil, fmt.Errorf("hpccg: breakdown, pAp = 0 at iteration %d", it)
		}
		alpha := rtrans / pAp
		if err := s.waxpby(1.0, s.x, alpha, s.p[:s.rows], s.x); err != nil {
			return nil, err
		}
		if err := s.waxpby(1.0, s.r, -alpha, s.Ap, s.r); err != nil {
			return nil, err
		}
	}
	final, err := s.ddot(s.r, s.r)
	if err != nil {
		return nil, err
	}
	return &Result{Residual: math.Sqrt(final), Iters: it}, nil
}

// exchangeHalo fills v's two halo planes (appended at v[rows:]) from the z
// neighbors. v[0:plane] is the bottom interior plane, the top interior
// plane starts at rows-plane.
func (s *solver) exchangeHalo(v []float64) error {
	var err error
	s.clock.Track("halo", func() {
		rank, size := s.rt.LogicalRank(), s.rt.LogicalSize()
		wire := int64(float64(8*s.plane) * s.cfg.PlaneScale)
		if rank > 0 {
			if e := s.rt.SendSized(rank-1, tagHaloUp, v[:s.plane], wire); e != nil {
				err = e
				return
			}
		}
		if rank < size-1 {
			if e := s.rt.SendSized(rank+1, tagHaloDown, v[s.rows-s.plane:s.rows], wire); e != nil {
				err = e
				return
			}
		}
		if rank > 0 {
			data, e := s.rt.Recv(rank-1, tagHaloDown)
			if e != nil {
				err = e
				return
			}
			copy(v[s.rows:s.rows+s.plane], data)
		}
		if rank < size-1 {
			data, e := s.rt.Recv(rank+1, tagHaloUp)
			if e != nil {
				err = e
				return
			}
			copy(v[s.rows+s.plane:], data)
		}
	})
	return err
}

// ddot computes the global dot product of a and b: the local part is an
// intra-parallel section (when enabled); the reduction stays outside the
// section, as in the paper (footnote 6).
func (s *solver) ddot(a, b []float64) (float64, error) {
	var local float64
	var err error
	s.clock.Track("ddot", func() {
		if !s.cfg.IntraDdot {
			var w perf.Work
			local, w = kernels.Ddot(a, b)
			s.rt.Compute(w.Scale(s.cfg.Scale))
			return
		}
		parts := make([]float64, s.cfg.Tasks)
		s.rt.SectionBegin()
		id := s.rt.TaskRegister(func(c core.Ctx, args []core.Value) {
			lo := int(*args[1].(core.Scalar).P)
			hi := int(*args[2].(core.Scalar).P)
			v, w := kernels.Ddot(a[lo:hi], b[lo:hi])
			*args[0].(core.Scalar).P = v
			c.Compute(w.Scale(s.cfg.Scale))
		}, core.Out, core.In, core.In)
		bounds := make([]float64, 2*s.cfg.Tasks)
		for i := 0; i < s.cfg.Tasks; i++ {
			lo, hi := apputil.TaskBounds(len(a), s.cfg.Tasks, i)
			bounds[2*i], bounds[2*i+1] = float64(lo), float64(hi)
			s.rt.TaskLaunch(id, core.Scalar{P: &parts[i]},
				core.Scalar{P: &bounds[2*i]}, core.Scalar{P: &bounds[2*i+1]})
		}
		if err = s.rt.SectionEnd(); err != nil {
			return
		}
		for _, v := range parts {
			local += v
		}
	})
	if err != nil {
		return 0, err
	}
	return s.rt.AllreduceScalar(mpi.OpSum, local)
}

// sparsemv computes y = A*x as an intra-parallel section over row blocks.
func (s *solver) sparsemv(x, y []float64) error {
	var err error
	s.clock.Track("sparsemv", func() {
		if !s.cfg.IntraSparsemv {
			s.rt.Compute(s.mat.MulVec(x, y).Scale(s.cfg.Scale))
			return
		}
		s.rt.SectionBegin()
		id := s.rt.TaskRegister(func(c core.Ctx, args []core.Value) {
			lo := int(*args[1].(core.Scalar).P)
			hi := int(*args[2].(core.Scalar).P)
			w := s.mat.MulVecRange(x, y, lo, hi)
			c.Compute(w.Scale(s.cfg.Scale))
		}, core.Out, core.In, core.In)
		bounds := make([]float64, 2*s.cfg.Tasks)
		for i := 0; i < s.cfg.Tasks; i++ {
			lo, hi := apputil.TaskBounds(s.rows, s.cfg.Tasks, i)
			bounds[2*i], bounds[2*i+1] = float64(lo), float64(hi)
			s.rt.TaskLaunch(id, core.Scaled(core.Float64s(y[lo:hi]), s.cfg.Scale),
				core.Scalar{P: &bounds[2*i]}, core.Scalar{P: &bounds[2*i+1]})
		}
		err = s.rt.SectionEnd()
	})
	return err
}

// waxpby computes w = alpha*x + beta*y, sectioned when configured.
func (s *solver) waxpby(alpha float64, x []float64, beta float64, y, w []float64) error {
	var err error
	s.clock.Track("waxpby", func() {
		if !s.cfg.IntraWaxpby {
			s.rt.Compute(kernels.Waxpby(alpha, x, beta, y, w).Scale(s.cfg.Scale))
			return
		}
		a, bt := alpha, beta
		s.rt.SectionBegin()
		id := s.rt.TaskRegister(func(c core.Ctx, args []core.Value) {
			lo := int(*args[3].(core.Scalar).P)
			hi := int(*args[4].(core.Scalar).P)
			wk := kernels.Waxpby(*args[1].(core.Scalar).P, x[lo:hi],
				*args[2].(core.Scalar).P, y[lo:hi], w[lo:hi])
			c.Compute(wk.Scale(s.cfg.Scale))
		}, core.Out, core.In, core.In, core.In, core.In)
		bounds := make([]float64, 2*s.cfg.Tasks)
		for i := 0; i < s.cfg.Tasks; i++ {
			lo, hi := apputil.TaskBounds(len(w), s.cfg.Tasks, i)
			bounds[2*i], bounds[2*i+1] = float64(lo), float64(hi)
			s.rt.TaskLaunch(id, core.Scaled(core.Float64s(w[lo:hi]), s.cfg.Scale),
				core.Scalar{P: &a}, core.Scalar{P: &bt},
				core.Scalar{P: &bounds[2*i]}, core.Scalar{P: &bounds[2*i+1]})
		}
		err = s.rt.SectionEnd()
	})
	return err
}
