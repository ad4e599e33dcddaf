package main

import (
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// setupProcs is how many fresh processes repeat the set-up beside the
// run's own. setup_s is the median over all of them, each timed from the
// start of its process, so runtime start-up, package initialisation and
// first-touch costs count every time.
const setupProcs = 6

// minSteps is the fewest measured steps a run takes, however short
// -seconds is.
const minSteps = 2

// runWorkload is the untraced run: set up, then measured steps until
// -seconds have passed.
func runWorkload(o options, wl *workload, rep *report) (*result, error) {
	c := &ops{rep: rep, failCheck: o.failCheck}
	sz := fullSizes
	if o.tiny {
		sz = warmSizes
	}
	round, err := wl.setup(o, sz)
	if err != nil {
		return nil, err
	}
	own := stamp{wall: processStart}.since() // CPU time counts from process start
	setups, setupWalls := []float64{own.cpu}, []float64{own.wall}
	for i := 0; i < o.setupProcs; i++ {
		ht, err := setupProcess(o)
		if err != nil {
			return nil, err
		}
		setups, setupWalls = append(setups, ht.cpu), append(setupWalls, ht.wall)
	}

	// Step n runs input variant n twice: on one worker (the serial pass:
	// its CPU time is the program's serial cost, free of the work parallel
	// sweeps duplicate or wait on) and on o.workers (the parallel pass, as
	// users run it). Both passes must produce the same digest. Every step
	// draws a fresh input. Steps run while, at the mean step time so far,
	// the next one ends within -seconds, and at least minSteps run.
	type step struct{ serial, parallel roundOut }
	var steps []step
	t0 := time.Now()
	for n := 0; n < minSteps || time.Since(t0).Seconds()*float64(n+1)/float64(n) <= o.seconds; n++ {
		s, err := round(c, n, 1)
		if err != nil {
			continue // already counted in c
		}
		p, err := round(c, n, o.workers)
		if err != nil {
			continue
		}
		steps = append(steps, step{s, p})
		c.check(fmt.Sprintf("digest_repeat[%d]", n), s.digest == p.digest,
			"digest %s on 1 worker, %s on %d", s.digest, p.digest, o.workers)
	}

	// The metrics pool every step's work and time, so a run weighs each
	// simulated trial or job alike: on jobstream-mix the input draws move
	// the CPU time per job more than the host does.
	var units float64
	var serial, parallel, answer, answerPar hostTime
	var stepThr, stepSpeedup []float64
	named := map[string][]float64{}
	for _, st := range steps {
		units += st.serial.units
		serial, parallel = serial.add(st.serial.unit), parallel.add(st.parallel.unit)
		answer, answerPar = answer.add(st.serial.answer), answerPar.add(st.parallel.answer)
		stepThr = append(stepThr, st.serial.units/st.serial.unit.cpu)
		stepSpeedup = append(stepSpeedup, st.serial.unit.wall/st.parallel.unit.wall)
		for k, v := range st.parallel.named {
			named[k] = append(named[k], v)
		}
	}
	nSteps := float64(max(len(steps), 1))
	rep.linef("steps %d (each on 1 and %d workers) in %.2f s; set-ups: cpu %s s, wall %s s",
		len(steps), o.workers, time.Since(t0).Seconds(), fmtList(setups), fmtList(setupWalls))
	rep.linef("per step: throughput_per_cpu_s %s; parallel_speedup %s", fmtList(stepThr), fmtList(stepSpeedup))
	metrics := map[string]metric{
		"setup_s":              {median(setups), "s"},
		"throughput_per_cpu_s": {ratio(units, serial.cpu), "1/s"},
		"answer_cpu_s":         {answer.cpu / nSteps, "s"},
		"parallel_speedup":     {ratio(serial.wall, parallel.wall), "ratio"},
	}
	for _, k := range sortedKeys(wl.namedUnits) {
		rep.named(k, median(named[k]), wl.namedUnits[k])
	}
	rep.named("setup_wall_s", median(setupWalls), "s")
	rep.named("throughput_per_s", ratio(units, parallel.wall), "1/s")
	rep.named("answer_s", answerPar.wall/nSteps, "s")
	rep.named("cores_used", ratio(parallel.cpu, parallel.wall), "cores")
	rep.named("peak_rss_mb", peakRSSMB(), "MB")
	for _, k := range sortedKeys(metrics) {
		rep.named(k, metrics[k].Value, metrics[k].Unit)
	}
	return c.result(metrics), nil
}

// setupProcess sets the workload up in a fresh copy of this program and
// returns the host time from that process's start: CPU time as the process
// measured it, wall time as seen from here (exec and runtime start-up
// included).
func setupProcess(o options) (hostTime, error) {
	exe, err := os.Executable()
	if err != nil {
		return hostTime{}, err
	}
	cmd := exec.Command(exe, "-setup-only", "-workload", o.workload,
		"-seed", strconv.FormatInt(o.seed, 10), "-tmp", o.tmp)
	cmd.Stderr = os.Stderr
	t0 := time.Now()
	out, err := cmd.Output() // waits for the process to end
	wall := time.Since(t0).Seconds()
	if err != nil {
		return hostTime{}, fmt.Errorf("set-up process: %w", err)
	}
	cpu, err := strconv.ParseFloat(strings.TrimSpace(string(out)), 64)
	if err != nil {
		return hostTime{}, fmt.Errorf("set-up process printed %q: %w", out, err)
	}
	return hostTime{wall: wall, cpu: cpu}, nil
}

// setupOnce is the whole of a set-up process: set the workload up, then
// print the CPU seconds the process has used since it started.
func setupOnce(o options, wl *workload) error {
	if _, err := wl.setup(o, fullSizes); err != nil {
		return err
	}
	_, err := fmt.Println(processCPU().Seconds())
	return err
}

// hostTime is the host cost of a call: wall-clock seconds and the
// process's CPU seconds (user + system, all threads). CPU time excludes
// time the virtual machine's CPUs were stolen by other tenants, which is
// what makes it steady on a shared host.
type hostTime struct{ wall, cpu float64 }

func (h hostTime) add(o hostTime) hostTime { return hostTime{h.wall + o.wall, h.cpu + o.cpu} }

func (h hostTime) scale(k float64) hostTime { return hostTime{h.wall * k, h.cpu * k} }

// stamp is a point in wall-clock and process CPU time.
type stamp struct {
	wall time.Time
	cpu  time.Duration
}

func now() stamp { return stamp{wall: time.Now(), cpu: processCPU()} }

func (s stamp) since() hostTime {
	n := now()
	return hostTime{n.wall.Sub(s.wall).Seconds(), (n.cpu - s.cpu).Seconds()}
}

// processCPU is the CPU time the process has used so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// ratio is a/b, or 0 when no step succeeded (b = 0), which the result line
// already reports as incorrect.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// median of xs; 0 for an empty slice (only reachable when every round
// failed, which the result line already reports as incorrect).
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile is the linearly interpolated q-quantile of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func fmtList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.FormatFloat(x, 'g', 4, 64)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
