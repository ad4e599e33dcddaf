// Package fault injects crash-stop failures into replicated runs: at fixed
// virtual times, at protocol points inside intra-parallel sections (the
// three cases of §III-B2), or randomly following an exponential MTBF, as a
// real machine would produce them.
package fault

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"strings"

	"repro/internal/core"
	"repro/internal/replication"
	"repro/internal/sim"
)

// At schedules a crash of replica (logical, lane) at virtual time t.
func At(e *sim.Engine, sys *replication.System, logical, lane int, t sim.Time) {
	e.At(t, func() { sys.KillReplica(logical, lane) })
}

// Point identifies a protocol point inside a section (§III-B2).
type Point uint8

// Protocol points at which a crash can be injected.
const (
	BeforeExec Point = iota // before the task body runs
	AfterExec               // after the body, before any update is sent
	MidUpdate               // after one argument's update has been sent
)

func (p Point) String() string {
	switch p {
	case BeforeExec:
		return "before-exec"
	case AfterExec:
		return "after-exec"
	case MidUpdate:
		return "mid-update"
	}
	return "?"
}

// CrashPlan crashes the calling replica the n-th time the given protocol
// point is reached (counting from 1). Install it in core.Options.Hooks.
type CrashPlan struct {
	Point Point
	Nth   int
	count int
	fired bool
}

// Reset re-arms the plan. A CrashPlan is stateful (it counts protocol
// points and fires once); reusing one across runs without a Reset means the
// second run inherits count/fired from the first and never crashes.
func (cp *CrashPlan) Reset() {
	cp.count = 0
	cp.fired = false
}

// Hooks builds the intra-engine hooks implementing the plan for the given
// replica. Pass p == nil (or install on one replica only) elsewhere.
func (cp *CrashPlan) Hooks(self *replication.Proc) core.Hooks {
	trigger := func() {
		cp.count++
		if !cp.fired && cp.count == cp.Nth {
			cp.fired = true
			self.R.Crash()
		}
	}
	var h core.Hooks
	switch cp.Point {
	case BeforeExec:
		h.BeforeTaskExec = func(_, _ int) { trigger() }
	case AfterExec:
		h.AfterTaskExec = func(_, _ int) { trigger() }
	case MidUpdate:
		h.AfterArgSend = func(_, _, _ int) { trigger() }
	}
	return h
}

// Schedule is a reproducible set of timed replica crashes.
type Schedule struct {
	Crashes []Crash
}

// Crash is one scheduled failure.
type Crash struct {
	Logical, Lane int
	Time          sim.Time
}

// Install arms every crash of the schedule on the engine, in canonical
// (time, logical, lane) order. The engine breaks equal-time ties by
// insertion order, so arming in the same canonical order Fingerprint
// keys by is what makes two set-equal schedules — including ones with
// same-time crashes — genuinely interchangeable under the sweep memo.
func (s *Schedule) Install(e *sim.Engine, sys *replication.System) {
	crashes := append([]Crash(nil), s.Crashes...)
	sortCrashes(crashes)
	for _, c := range crashes {
		At(e, sys, c.Logical, c.Lane, c.Time)
	}
}

// Fingerprint returns a compact content key of the schedule: two schedules
// with equal fingerprints arm identical crashes. Crashes are canonicalized
// by (time, logical, lane) order first — installing a schedule arms the
// same events whatever the slice order, so two shuffles of one schedule
// must key identically or they defeat the sweep memo. The empty schedule
// fingerprints to "", so a fault-free trial keys identically to a spec with
// no schedule at all — which is what lets a sweep memo serve it from the
// fault-free baseline run.
func (s *Schedule) Fingerprint() string {
	if s == nil || len(s.Crashes) == 0 {
		return ""
	}
	crashes := append([]Crash(nil), s.Crashes...)
	sortCrashes(crashes)
	var b strings.Builder
	for _, c := range crashes {
		fmt.Fprintf(&b, "%d:%d@%d;", c.Logical, c.Lane, int64(c.Time))
	}
	return b.String()
}

// sortCrashes orders crashes canonically by (time, logical, lane).
func sortCrashes(cs []Crash) {
	slices.SortFunc(cs, func(a, b Crash) int {
		if c := cmp.Compare(a.Time, b.Time); c != 0 {
			return c
		}
		if c := cmp.Compare(a.Logical, b.Logical); c != 0 {
			return c
		}
		return cmp.Compare(a.Lane, b.Lane)
	})
}

// Exponential draws a crash schedule from an exponential per-replica MTBF
// over the horizon, never killing both replicas of the same logical rank
// (the paper's metric assumes the run is not interrupted; a double failure
// would force a checkpoint restart). The result is deterministic in seed.
func Exponential(logical, degree int, mtbf, horizon sim.Time, seed int64) *Schedule {
	return ExponentialDraw(logical, degree, mtbf, horizon, seed).Schedule
}

// Draw is one Monte Carlo draw of the failure process: the survivable crash
// schedule plus the failures the survivability clamp suppressed.
type Draw struct {
	Schedule *Schedule
	// Suppressed counts drawn failures that were dropped because they would
	// have killed the last replica of a logical rank. A nonzero count means
	// the raw failure process would have interrupted this run: in a real
	// system the application falls back to checkpoint restart (§II), so
	// campaigns report it as a survival statistic.
	Suppressed int
}

// ExponentialDraw is Exponential exposing the full draw: the schedule plus
// the count of suppressed last-replica kills. Deterministic in seed, and
// consuming the generator identically to Exponential for every (logical,
// degree, mtbf, horizon).
//
// The survivability clamp is deliberately lane-ordered: lanes draw in
// index order, so when every lane of a logical rank would crash, the
// lower-indexed lanes are the ones killed and the highest-indexed lane is
// the spared survivor. The choice is pinned by a seeded regression test
// (TestExponentialDrawLaneBias): which lane survives changes every drawn
// schedule, so it must not drift accidentally.
func ExponentialDraw(logical, degree int, mtbf, horizon sim.Time, seed int64) Draw {
	rng := newRand(seed)
	d := Draw{Schedule: &Schedule{}}
	killed := make(map[int]int) // logical -> kills so far
	for r := 0; r < logical; r++ {
		for l := 0; l < degree; l++ {
			t := sim.Time(rng.ExpFloat64() * float64(mtbf))
			if t >= horizon {
				continue
			}
			if killed[r]+1 >= degree {
				d.Suppressed++
				continue // keep at least one replica alive
			}
			killed[r]++
			d.Schedule.Crashes = append(d.Schedule.Crashes, Crash{Logical: r, Lane: l, Time: t})
		}
	}
	return d
}

// ExponentialDrawUnclamped draws the complete failure trace of every
// replica slot over the horizon: a Poisson (renewal) process per slot with
// repeated failures and no last-replica suppression. It models fault
// tolerance that repairs or restarts failed nodes — the coordinated
// checkpoint/restart path — where losing every replica of a rank is
// survivable (it just forces another rollback) and a restarted node can
// fail again.
//
// Each slot's sub-stream is its Renewal, derived independently from seed,
// so growing the horizon extends a trace without disturbing the failures
// already drawn inside the smaller window — campaigns exploit this to
// enlarge the draw window until it covers a failure-stretched makespan.
// Crashes are returned sorted by (time, logical, lane); Suppressed is
// always zero.
func ExponentialDrawUnclamped(logical, degree int, mtbf, horizon sim.Time, seed int64) Draw {
	d := Draw{Schedule: &Schedule{}}
	var buf [64]sim.Time
	times := buf[:0] // one slot's failures, reused across slots
	for r := 0; r < logical; r++ {
		for l := 0; l < degree; l++ {
			s := NewRenewal(mtbf, seed, r, l)
			times = s.AppendUntil(times[:0], horizon)
			for _, t := range times {
				d.Schedule.Crashes = append(d.Schedule.Crashes, Crash{Logical: r, Lane: l, Time: t})
			}
		}
	}
	sortCrashes(d.Schedule.Crashes)
	return d
}

// Renewal is one replica slot's failure stream: the exponential renewal
// process ExponentialDrawUnclamped draws for slot (logical, lane) of a
// seed, produced incrementally. Each AppendUntil continues where the last
// one stopped, so extending an observation window draws only the failures
// beyond the old one — a homogeneous Poisson process restricted to a
// longer window is the shorter one's points plus new ones. A Renewal is a
// value holding its generator; advance one copy only.
type Renewal struct {
	rng  *rand.Rand
	mtbf sim.Time
	next sim.Time // earliest failure not yet appended
}

// NewRenewal starts slot (logical, lane)'s failure stream under seed.
func NewRenewal(mtbf sim.Time, seed int64, logical, lane int) Renewal {
	rng := newRand(TrialSeed(seed, logical, lane))
	return Renewal{rng: rng, mtbf: mtbf, next: expStep(rng, mtbf)}
}

// AppendUntil appends the stream's failures before horizon to dst in
// ascending order and returns the extended slice. A horizon at or below
// the previous one appends nothing.
func (s *Renewal) AppendUntil(dst []sim.Time, horizon sim.Time) []sim.Time {
	for ; s.next < horizon; s.next += expStep(s.rng, s.mtbf) {
		dst = append(dst, s.next)
	}
	return dst
}

// expStep draws one exponential inter-arrival time, clamped to at least one
// virtual nanosecond so a pathologically small variate cannot stall the
// renewal loop.
func expStep(rng *rand.Rand, mtbf sim.Time) sim.Time {
	dt := sim.Time(rng.ExpFloat64() * float64(mtbf))
	if dt < 1 {
		return 1
	}
	return dt
}

// TrialSeed derives the RNG seed of one campaign trial from the campaign
// seed and the (scenario, trial) coordinates, via a splitmix64 mix: nearby
// coordinates give statistically independent streams, and the mapping is
// stable across runs and worker counts.
func TrialSeed(base int64, scenario, trial int) int64 {
	x := uint64(base) ^ 0x9e3779b97f4a7c15*uint64(scenario+1) ^ 0xbf58476d1ce4e5b9*uint64(trial+1)
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= x >> 31
	return int64(x)
}
