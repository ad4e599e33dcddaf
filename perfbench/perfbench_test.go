package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// The benchmark's self-tests run every path at tiny sizes:
//
//	cd perfbench && go test .

// benchmarkSpec is the part of ../BENCHMARK.json the tests check against.
type benchmarkSpec struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchmarkSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestMain lets the test binary stand in for the program when a run
// starts its set-up processes (setupProcess re-executes itself).
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-setup-only" {
		main()
		return
	}
	os.Exit(m.Run())
}

func tinyOptions(t *testing.T, wl string) options {
	return options{
		workload: wl, seed: 3, seconds: 0.01, tiny: true, setupProcs: 1,
		tmp: t.TempDir(), traceOut: t.TempDir() + "/trace.json", workers: 2,
	}
}

// run executes one invocation in-process and returns its result and the
// report it printed.
func run(t *testing.T, o options) (*result, string) {
	t.Helper()
	wl, ok := workloadByName(o.workload)
	if !ok {
		t.Fatalf("no workload %q", o.workload)
	}
	var buf bytes.Buffer
	rep := newReport(&buf)
	var res *result
	var err error
	if o.trace {
		res, err = runTraced(o, wl, rep)
	} else {
		res, err = runWorkload(o, wl, rep)
	}
	if err != nil {
		t.Fatalf("%s (trace=%v): %v", o.workload, o.trace, err)
	}
	if err := rep.finish(res); err != nil {
		t.Fatal(err)
	}
	return res, buf.String()
}

// wantMetrics requires exactly the listed metrics, each with its unit.
func wantMetrics(t *testing.T, what string, got map[string]metric, want []struct{ Name, Unit string }) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d metrics, want %d", what, len(got), len(want))
	}
	for _, m := range want {
		g, ok := got[m.Name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s missing", what, m.Name)
		case g.Unit != m.Unit:
			t.Errorf("%s: metric %s unit %q, want %q", what, m.Name, g.Unit, m.Unit)
		}
	}
}

func TestEveryMetricEmittedWithUnit(t *testing.T) {
	spec := loadSpec(t)
	for _, name := range workloadNames() {
		for _, trace := range []bool{false, true} {
			o := tinyOptions(t, name)
			o.trace = trace
			res, out := run(t, o)
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d\n%s",
					name, trace, res.Correct, res.Failed, res.Attempted, out)
			}
			if trace {
				wantMetrics(t, name+" traced", res.Metrics, spec.PerLayer)
			} else {
				wantMetrics(t, name, res.Metrics, spec.EndToEnd)
				for k, u := range workloads[indexOf(name)].namedUnits {
					if !strings.Contains(out, "metric "+k) || !strings.Contains(out, u) {
						t.Errorf("%s: named metric %s (%s) not reported", name, k, u)
					}
				}
			}
			if !strings.Contains(out, "metric ops_failed_frac") {
				t.Errorf("%s: ops_failed_frac not reported", name)
			}
		}
	}
}

func indexOf(name string) int {
	for i, w := range workloads {
		if w.name == name {
			return i
		}
	}
	return -1
}

func TestFailingCheckRaisesOpsFailed(t *testing.T) {
	for _, check := range []string{"digest_repeat[1]", "warm_misses"} {
		o := tinyOptions(t, "crossover-study")
		o.failCheck = check
		res, out := run(t, o)
		if res.Correct || res.Failed == 0 {
			t.Errorf("forced %s: correct=%v failed=%d", check, res.Correct, res.Failed)
		}
		if !strings.Contains(out, "FAIL check "+check) {
			t.Errorf("forced %s not reported:\n%s", check, out)
		}
	}
}

func TestTracedDigestMatchesUntraced(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		o := tinyOptions(t, w.name)
		c := &ops{rep: newReport(&bytes.Buffer{})}
		off, err := w.drive(nil, o, warmSizes, newLayerStats(), c)
		if err != nil {
			t.Fatal(err)
		}
		tr := newTracer("test")
		on, err := w.drive(tr, o, warmSizes, newLayerStats(), c)
		if err != nil {
			t.Fatal(err)
		}
		if off != on {
			t.Errorf("%s: traced digest %s != untraced %s", w.name, on, off)
		}
		if len(tr.spans) == 0 {
			t.Errorf("%s: traced drive recorded no spans", w.name)
		}
		if c.failed != 0 {
			t.Errorf("%s: %d output checks failed in the drives", w.name, c.failed)
		}
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	tr := &tracer{spans: []span{
		{ID: 0, Parent: -1, Layer: "a", Workload: "w", StartNs: 0, EndNs: 10e6},
		{ID: 1, Parent: 0, Layer: "b", Workload: "w", StartNs: 1e6, EndNs: 4e6},
		{ID: 2, Parent: 0, Layer: "b", Workload: "w", StartNs: 5e6, EndNs: 9e6},
	}}
	self := tr.selfTime()["w"]
	if self["a"] != 3 || self["b"] != 7 {
		t.Errorf("self time = %v, want a=3 ms, b=7 ms", self)
	}
}
