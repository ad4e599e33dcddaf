package jobstream

import (
	"encoding/json"
	"fmt"
	"maps"
	"slices"
	"sort"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/store"
)

// crashWorkload is a workload whose replicated jobs crash: the node MTBF
// sits near the job walls, so some replicated jobs die of an all-lanes
// failure and some outlive their fault-free window. Both classes have
// the same logical width, so a job can be handed the other class's trace.
func crashWorkload() *scenario.Workload {
	return &scenario.Workload{
		Nodes: 8, Jobs: 12, Rates: []float64{50},
		MTBFSeconds: 0.1, Seed: 3,
		Mix: []scenario.JobClass{
			{Name: "h", App: "hpccg", Config: json.RawMessage(`{"Iters": 2, "Scale": 16}`), Logical: 4, Weight: 2},
			{Name: "g", App: "gtc", Config: json.RawMessage(`{"Steps": 2, "Scale": 128}`), Logical: 4, Weight: 1},
		},
		Schedulers: []string{"fcfs"},
		Policies:   []string{"replicate", "adaptive"},
	}
}

// recordCounter wraps experiments.RecordTraces, counting recordings per
// spec name (a class's label).
type recordCounter struct {
	mu     sync.Mutex
	byName map[string]int
}

func (rc *recordCounter) record(s experiments.Spec) (*core.TraceSet, error) {
	rc.mu.Lock()
	if rc.byName == nil {
		rc.byName = map[string]int{}
	}
	rc.byName[s.Name]++
	rc.mu.Unlock()
	return experiments.RecordTraces(s)
}

func (rc *recordCounter) total() int {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	n := 0
	for _, k := range rc.byName {
		n += k
	}
	return n
}

// cellsRun is every cell of one workload, run in place with a given
// recorder: the wire records, the finished cells and the runner's memo
// (every simulated job, crashed ones included).
type cellsRun struct {
	classes []classCtx
	wires   []cellWire
	cells   []*cellRun
	memo    map[string]experiments.Result
}

func runCells(t *testing.T, w *scenario.Workload, record recordFunc) cellsRun {
	t.Helper()
	const trials, workers = 2, 4
	r := newMemoRunner(nil)
	cells, _, seed, classes, _, err := prepare(Config{Trials: trials, Workers: workers}, w, r, record)
	if err != nil {
		t.Fatal(err)
	}
	out := cellsRun{classes: classes, wires: make([]cellWire, len(cells)), cells: make([]*cellRun, len(cells))}
	errs := make([]error, len(cells))
	// Cells run concurrently, so the lazily recorded class traces are
	// shared by racing workers, as in Run.
	experiments.ForEach(workers, len(cells), func(i int) {
		ce := cells[i]
		c, err := newCellRun(cellParams{
			w: w, rate: ce.rate, seed: seed, trial: ce.trial,
			scheduler: ce.scheduler, policy: ce.policy,
			classes: classes, runner: r,
		})
		if err == nil {
			out.wires[i], err = c.run()
		}
		out.cells[i], errs[i] = c, err
	})
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	out.memo = r.memo
	return out
}

// mismatches lists every difference between two runs of one workload:
// cell records, job outcomes, and the wall and crash count of every
// crashed job simulation.
func mismatches(a, b cellsRun) []string {
	var out []string
	for i := range a.wires {
		if a.wires[i] != b.wires[i] {
			out = append(out, fmt.Sprintf("cell %d: %+v vs %+v", i, a.wires[i], b.wires[i]))
		}
		for k := range a.cells[i].jobs {
			ja, jb := &a.cells[i].jobs[k], &b.cells[i].jobs[k]
			if ja.end != jb.end || ja.ok != jb.ok {
				out = append(out, fmt.Sprintf("cell %d job %d: end %g ok %v vs end %g ok %v", i, k, ja.end, ja.ok, jb.end, jb.ok))
			}
		}
	}
	for key, ra := range a.memo {
		if ra.Crashes == 0 {
			continue
		}
		rb, ok := b.memo[key]
		if !ok {
			out = append(out, fmt.Sprintf("crashed job %s ran only once", ra.Name))
			continue
		}
		if ra.WallSeconds != rb.WallSeconds || ra.Crashes != rb.Crashes {
			out = append(out, fmt.Sprintf("crashed job %s: wall %g crashes %d vs wall %g crashes %d",
				ra.Name, ra.WallSeconds, ra.Crashes, rb.WallSeconds, rb.Crashes))
		}
	}
	if len(a.memo) != len(b.memo) {
		out = append(out, fmt.Sprintf("%d vs %d distinct job simulations", len(a.memo), len(b.memo)))
	}
	return out
}

// TestJobstreamReplayMatchesExecution pins the jobstream replay
// accelerator: crashed replicated jobs replaying their class's recorded
// trace give every cell, every job outcome and every crashed job's wall
// exactly as executing the app does, and each class that ran a crashed
// replicated job records its trace exactly once.
func TestJobstreamReplayMatchesExecution(t *testing.T) {
	w := crashWorkload()
	exec := runCells(t, w, nil)

	// The workload must reach both edges of execReplicated: a job cut
	// short by a fatal (all-lanes) crash, and a survivor that outlived its
	// fault-free window, so the observation window grew.
	fatal, grown := 0, 0
	for _, c := range exec.cells {
		for _, j := range c.jobs {
			if j.dec.Mode != scenario.Classic {
				continue
			}
			if !j.ok {
				fatal++
			} else if j.end-j.start > j.ref {
				grown++
			}
		}
	}
	if fatal == 0 || grown == 0 {
		t.Fatalf("workload exercises %d fatal and %d window-growing replicated jobs; want both", fatal, grown)
	}
	crashedClasses := map[string]int{}
	for _, r := range exec.memo {
		if r.Crashes > 0 {
			crashedClasses[r.Name] = 1
		}
	}
	if len(crashedClasses) != len(w.Mix) {
		t.Fatalf("crashed replicated jobs in classes %v; want every class", crashedClasses)
	}

	var rc recordCounter
	replay := runCells(t, w, rc.record)
	for _, m := range mismatches(exec, replay) {
		t.Error(m)
	}
	if !maps.Equal(rc.byName, crashedClasses) {
		t.Fatalf("recordings per class %v, want one per class with a crashed replicated job %v", rc.byName, crashedClasses)
	}

	// Negative control: handing each class the other class's trace must
	// show up in the comparison above.
	other := map[string]experiments.Spec{
		exec.classes[0].class.Label(): exec.classes[1].replSpec,
		exec.classes[1].class.Label(): exec.classes[0].replSpec,
	}
	swapped := runCells(t, w, func(s experiments.Spec) (*core.TraceSet, error) {
		return experiments.RecordTraces(other[s.Name])
	})
	if len(mismatches(exec, swapped)) == 0 {
		t.Fatal("replaying another class's trace went unnoticed")
	}
}

// TestJobstreamRecordsOnlyCrashedClasses checks that recording is lazy:
// a fault-free workload, and one whose policies never replicate, record
// no trace at all.
func TestJobstreamRecordsOnlyCrashedClasses(t *testing.T) {
	free := crashWorkload()
	free.MTBFSeconds = 0
	unreplicated := crashWorkload()
	unreplicated.Policies = []string{"native", "ccr"}
	for name, w := range map[string]*scenario.Workload{"fault-free": free, "native/ccr": unreplicated} {
		var rc recordCounter
		if _, _, err := run(Config{Trials: 2, Workers: 2}, w, store.Shard{}, rc.record); err != nil {
			t.Fatal(err)
		}
		if n := rc.total(); n != 0 {
			t.Fatalf("%s workload recorded %d traces, want 0", name, n)
		}
	}
}

// TestFailTraceMatchesUnclampedDraw pins the failure trace's per-node
// histories to the one-shot draw they extend: node i's failures below any
// horizon are ExponentialDrawUnclamped's slot (i, 0) of the trial seed.
func TestFailTraceMatchesUnclampedDraw(t *testing.T) {
	const nodes, mtbf, seed = 6, 0.3, 77
	ft := newFailTrace(nodes, mtbf, seed)
	for _, h := range []float64{0.1, 0.45, 2, 2, 9.5, 40} {
		want := make([][]float64, nodes)
		for _, c := range fault.ExponentialDrawUnclamped(nodes, 1, sim.Seconds(mtbf), sim.Seconds(h), seed).Schedule.Crashes {
			want[c.Logical] = append(want[c.Logical], c.Time.Seconds())
		}
		for node := 0; node < nodes; node++ {
			got := ft.window(node, 0, h)
			if !slices.Equal(got, want[node]) {
				t.Fatalf("horizon %g node %d: trace %v, draw %v", h, node, got, want[node])
			}
		}
	}
	if !sort.Float64sAreSorted(ft.times[0]) || len(ft.times[0]) < 20 {
		t.Fatalf("node 0 history %v: want a long ascending trace", ft.times[0])
	}
}
