// Command perfbench is the repository's benchmark: it drives the
// simulator as a library on three campaign-scale workloads and prints the
// end-to-end metrics a user of the reproduction sees (or, with -trace 1,
// the per-layer ladder and the traced self time of every layer), checking
// the simulated outputs as it goes.
//
// One invocation runs one workload in its own process:
//
//	perfbench -workload intra-campaign -seed 1 -seconds 36 -trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the lines before it are a
// human-readable report (run envelope, named metrics with units, output
// checks, digests). See README.md for the workloads and the metric map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// processStart anchors setup_s: the first set-up is timed from process
// start, as a user would experience it.
var processStart = time.Now()

// heldOutSeed is the seed no tuning run used while the benchmark and the
// code it measures were written; -held-out substitutes it for -seed so a
// claimed gain can be re-checked on unseen inputs.
const heldOutSeed = 7919

// options are the invocation's settings.
type options struct {
	workload  string
	seed      int64
	seconds   float64
	trace     bool
	tiny      bool   // self-test sizes
	failCheck string // name of an output check to force-fail (self-test)
	tmp       string // scratch directory for stores and the trace file
	traceOut  string // where the traced run writes its spans
	commit    string // source revision, for the envelope
	workers   int    // sweep workers: nproc
	heldOut   bool
	// setupProcs is how many fresh processes repeat the set-up for
	// setup_s beside the run's own; setupOnly marks such a process.
	setupProcs int
	setupOnly  bool
}

func main() {
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&o.seed, "seed", 1, "workload seed: all inputs derive from it")
	flag.Float64Var(&o.seconds, "seconds", 15, "measurement time in seconds (set-up excluded)")
	flag.IntVar(&traceFlag, "trace", 0, "0: end-to-end metrics; 1: traced run with the per-layer metrics")
	flag.StringVar(&o.tmp, "tmp", os.TempDir(), "scratch directory for temporary stores")
	flag.StringVar(&o.commit, "commit", "unknown", "source revision recorded in the envelope")
	flag.BoolVar(&o.heldOut, "held-out", false, fmt.Sprintf("use the held-out seed %d instead of -seed", heldOutSeed))
	flag.BoolVar(&o.setupOnly, "setup-only", false, "set the workload up once, print its set-up time and exit (the run's own set-up repetitions)")
	flag.Parse()
	o.setupProcs = setupProcs
	o.trace = traceFlag != 0
	if o.heldOut {
		o.seed = heldOutSeed
	}
	o.workers = runtime.NumCPU()
	if traceFlag != 0 && traceFlag != 1 {
		fatalf("-trace must be 0 or 1, got %d", traceFlag)
	}
	if o.seconds <= 0 {
		fatalf("-seconds must be positive")
	}
	wl, ok := workloadByName(o.workload)
	if !ok {
		fatalf("unknown -workload %q (want one of %s)", o.workload, strings.Join(workloadNames(), ", "))
	}
	o.traceOut = filepath.Join(o.tmp, fmt.Sprintf("trace-%s-%d.json", o.workload, o.seed))
	if err := os.MkdirAll(o.tmp, 0o755); err != nil {
		fatalf("scratch directory: %v", err)
	}

	if o.setupOnly {
		if err := setupOnce(o, wl); err != nil {
			fatalf("%s set-up: %v", o.workload, err)
		}
		return
	}

	rep := newReport(os.Stdout)
	rep.envelope(o)
	var res *result
	var err error
	if o.trace {
		res, err = runTraced(o, wl, rep)
	} else {
		res, err = runWorkload(o, wl, rep)
	}
	if err != nil {
		fatalf("%s: %v", o.workload, err)
	}
	if err := rep.finish(res); err != nil {
		fatalf("%v", err)
	}
}

// fatalf reports a benchmark that could not run at all: no result line,
// exit code 2.
func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(2)
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final line: operations attempted and failed (timed calls
// that errored or failed an output check) and the metrics of this run.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// ops counts timed calls and output checks toward ops_failed_frac.
type ops struct {
	attempted, failed int
	rep               *report
	failCheck         string
}

// call records one timed call's outcome.
func (c *ops) call(name string, err error) bool {
	c.attempted++
	if err != nil {
		c.failed++
		c.rep.linef("FAIL call %s: %v", name, err)
		return false
	}
	return true
}

// check records one output check; the check named by options.failCheck
// fails regardless of its outcome (the self-tests' failure path).
func (c *ops) check(name string, ok bool, format string, args ...any) bool {
	c.attempted++
	detail := fmt.Sprintf(format, args...)
	if name == c.failCheck {
		ok = false
		detail += " (forced)"
	}
	if !ok {
		c.failed++
		c.rep.linef("FAIL check %s: %s", name, detail)
		return false
	}
	c.rep.linef("ok   check %s: %s", name, detail)
	return true
}

func (c *ops) result(metrics map[string]metric) *result {
	return &result{Correct: c.failed == 0, Attempted: c.attempted, Failed: c.failed, Metrics: metrics}
}

// report writes the human-readable lines above the result line.
type report struct {
	f io.Writer
}

func newReport(f io.Writer) *report { return &report{f: f} }

func (r *report) linef(format string, args ...any) {
	fmt.Fprintf(r.f, "# "+format+"\n", args...)
}

// named prints one named metric with its unit.
func (r *report) named(name string, value float64, unit string) {
	r.linef("metric %-34s %14.6g %s", name, value, unit)
}

// envelope records where and how the run happened.
func (r *report) envelope(o options) {
	env := map[string]any{
		"workload":   o.workload,
		"seed":       o.seed,
		"held_out":   o.heldOut,
		"seconds":    o.seconds,
		"trace":      o.trace,
		"cpu_model":  cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"workers":    o.workers,
		"go_version": runtime.Version(),
		"commit":     o.commit,
		"goos":       runtime.GOOS + "/" + runtime.GOARCH,
	}
	b, _ := json.Marshal(env) // a map of plain values always encodes
	r.linef("envelope %s", b)
}

// finish prints ops_failed_frac and then the result line, last.
func (r *report) finish(res *result) error {
	frac := float64(res.Failed) / float64(max(res.Attempted, 1))
	r.named("ops_failed_frac", frac, "ratio")
	b, err := json.Marshal(res)
	if err != nil {
		return fmt.Errorf("encode result: %w", err)
	}
	_, err = fmt.Fprintln(r.f, string(b))
	return err
}

// cpuModel reads the processor name from /proc/cpuinfo where there is one.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// peakRSSMB is the process's peak resident set in MB (VmHWM), or the Go
// runtime's obtained memory where /proc is unavailable.
func peakRSSMB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				var kb float64
				if _, err := fmt.Sscanf(strings.TrimSpace(v), "%f kB", &kb); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}
