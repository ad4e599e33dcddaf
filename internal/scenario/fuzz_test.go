package scenario_test

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/scenario"
)

// maxFuzzPoints bounds the grid cross product a fuzz input may expand to,
// so a short input listing long axes cannot exhaust memory.
const maxFuzzPoints = 4096

// gridPoints is an upper bound on the scenarios a grid expands to.
func gridPoints(g *scenario.Grid) int {
	modes := len(g.Modes)
	if modes == 0 {
		modes = len(scenario.Modes)
	}
	n := modes
	for _, axis := range []int{len(g.Apps), len(g.Procs), len(g.Degrees), len(g.Nets), len(g.Machines)} {
		n *= max(axis, 1)
		if n > maxFuzzPoints {
			return n
		}
	}
	return n
}

// FuzzScenarioParse drives arbitrary bytes through the scenario-file
// boundary: Parse, then Expand (Workload.Validate for workload files),
// then every fingerprint twice. Nothing may panic, a fingerprint must be
// stable across calls, and an expanded scenario must fingerprint the same
// after a JSON round trip through Parse. The corpus is seeded with the
// checked-in scenarios/*.json.
func FuzzScenarioParse(f *testing.F) {
	names, err := filepath.Glob("../../scenarios/*.json")
	if err != nil || len(names) == 0 {
		f.Fatalf("no seed scenario files: %v", err)
	}
	for _, name := range names {
		b, err := os.ReadFile(name)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		file, err := scenario.Parse(b)
		if err != nil {
			return
		}
		if w := file.Workload; w != nil {
			if w.Validate() != nil {
				return
			}
			fp1, err1 := w.Fingerprint()
			fp2, err2 := w.Fingerprint()
			if fp1 != fp2 || (err1 == nil) != (err2 == nil) {
				t.Fatalf("workload fingerprint unstable: %q (%v) vs %q (%v)", fp1, err1, fp2, err2)
			}
			return
		}
		if file.Grid != nil && gridPoints(file.Grid) > maxFuzzPoints {
			return
		}
		scs, err := file.Expand()
		if err != nil {
			return
		}
		for _, sc := range scs {
			fp1, err1 := sc.Fingerprint()
			fp2, err2 := sc.Fingerprint()
			if fp1 != fp2 || (err1 == nil) != (err2 == nil) {
				t.Fatalf("scenario %q fingerprint unstable: %q (%v) vs %q (%v)", sc.Name, fp1, err1, fp2, err2)
			}
			if err1 != nil {
				continue
			}
			raw, err := json.Marshal(scenario.File{Scenarios: []scenario.Scenario{sc}})
			if err != nil {
				t.Fatalf("scenario %q does not encode: %v", sc.Name, err)
			}
			back, err := scenario.Parse(raw)
			if err != nil {
				t.Fatalf("scenario %q does not parse back: %v\n%s", sc.Name, err, raw)
			}
			again, err := back.Expand()
			if err != nil {
				t.Fatalf("scenario %q does not validate after a round trip: %v\n%s", sc.Name, err, raw)
			}
			if fp, err := again[0].Fingerprint(); err != nil || fp != fp1 {
				t.Fatalf("scenario %q fingerprint changed in a round trip: %q vs %q (%v)", sc.Name, fp1, fp, err)
			}
		}
	})
}
