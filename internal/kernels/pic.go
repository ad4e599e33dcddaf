package kernels

import "repro/internal/perf"

// Particle-in-cell cost constants, sized after GTC's charge and push
// phases: push performs the gyro-averaged field gather and the
// Runge-Kutta position/velocity update (hundreds of flops per particle),
// charge scatters each particle onto its neighboring grid points.
const (
	ChargeBytesPerParticle = 80
	ChargeFlopsPerParticle = 60
	PushBytesPerParticle   = 120
	PushFlopsPerParticle   = 300
)

// Particles holds the state of one zone's particles in structure-of-arrays
// form. Psi is the (1D surrogate) position coordinate within the zone's
// cell range, Vpar the parallel velocity, W the particle weight.
type Particles struct {
	Psi  []float64
	Vpar []float64
	W    []float64
}

// NewParticles creates n particles spread deterministically over cells
// [c0, c1) with alternating velocities.
func NewParticles(n int, c0, c1 float64) *Particles {
	p := &Particles{}
	p.Init(n, c0, c1)
	return p
}

// Init (re)initializes p to the n particles NewParticles(n, c0, c1)
// creates, reusing p's arrays when they are large enough. Every element is
// overwritten, so a recycled zone is indistinguishable from a fresh one.
func (p *Particles) Init(n int, c0, c1 float64) {
	p.Psi = resize(p.Psi, n)
	p.Vpar = resize(p.Vpar, n)
	p.W = resize(p.W, n)
	span := c1 - c0
	for i := 0; i < n; i++ {
		frac := (float64(i) + 0.5) / float64(n)
		p.Psi[i] = c0 + frac*span
		p.Vpar[i] = 0.3 * (2*frac - 1)
		p.W[i] = 1.0 / float64(n)
	}
}

// resize returns a length-n slice backed by s when it has the capacity.
// The contents are unspecified; callers overwrite every element.
func resize(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// Len returns the particle count.
func (p *Particles) Len() int { return len(p.Psi) }

// ChargeWork returns the cost of depositing n particles.
func ChargeWork(n int) perf.Work {
	return perf.Work{Bytes: ChargeBytesPerParticle * float64(n), Flops: ChargeFlopsPerParticle * float64(n)}
}

// ChargeDeposit scatters particle weights onto rho, a grid covering cells
// [c0, c0+len(rho)) with linear (cloud-in-cell) interpolation. rho is
// overwritten (GTC's charge kernel for one zone).
func ChargeDeposit(psi, w []float64, rho []float64, c0 float64) perf.Work {
	Fill(rho, 0)
	n := len(rho)
	for i := range psi {
		x := psi[i] - c0
		cell := int(x)
		frac := x - float64(cell)
		if cell < 0 {
			cell, frac = 0, 0
		}
		if cell >= n-1 {
			cell, frac = n-2, 1
		}
		rho[cell] += w[i] * (1 - frac)
		rho[cell+1] += w[i] * frac
	}
	return ChargeWork(len(psi))
}

// PushWork returns the cost of pushing n particles.
func PushWork(n int) perf.Work {
	return perf.Work{Bytes: PushBytesPerParticle * float64(n), Flops: PushFlopsPerParticle * float64(n)}
}

// Push advances particle positions and velocities one step dt using the
// field phi defined on cells [c0, c0+len(phi)) (GTC's push kernel for one
// zone). Positions are reflected at the zone boundaries [c0, c1]; the new
// position depends on the old one, which is why the paper declares
// positions inout (§IV).
func Push(psi, vpar []float64, phi []float64, c0, c1, dt float64) perf.Work {
	n := len(phi)
	for i := range psi {
		x := psi[i] - c0
		cell := int(x)
		if cell < 0 {
			cell = 0
		}
		if cell >= n-1 {
			cell = n - 2
		}
		frac := x - float64(cell)
		// Field gather (linear interpolation of E = -grad phi).
		e := -(phi[cell+1] - phi[cell])
		_ = frac
		// Leapfrog-ish update.
		vpar[i] += dt * e
		psi[i] += dt * vpar[i]
		// Reflect at zone boundaries.
		if psi[i] < c0 {
			psi[i] = 2*c0 - psi[i]
			vpar[i] = -vpar[i]
		}
		if psi[i] > c1 {
			psi[i] = 2*c1 - psi[i]
			vpar[i] = -vpar[i]
		}
	}
	return PushWork(len(psi))
}

// TotalWeight returns the summed particle weight (charge conservation
// check) and its cost.
func TotalWeight(w []float64) (float64, perf.Work) {
	return Sum(w)
}
