package jobstream

import (
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"repro/internal/scenario"
	"repro/internal/store"

	_ "repro/internal/apps/gtc"
	_ "repro/internal/apps/hpccg"
)

// testWorkload is a small two-class workload that exercises failures,
// replication fallback and both schedulers in well under a second.
func testWorkload() *scenario.Workload {
	return &scenario.Workload{
		Nodes: 8, Jobs: 12, Rates: []float64{4},
		MTBFSeconds: 5, Seed: 3,
		Mix: []scenario.JobClass{
			{Name: "h", App: "hpccg", Config: json.RawMessage(`{"Iters": 2, "Scale": 16}`), Logical: 4, Weight: 2},
			{Name: "g", App: "gtc", Config: json.RawMessage(`{"Steps": 2, "Scale": 128}`), Logical: 2, Weight: 1},
		},
		Schedulers: []string{"fcfs", "easy"},
		Policies:   []string{"native", "replicate"},
	}
}

func TestGenArrivalsDeterministic(t *testing.T) {
	w := testWorkload()
	a := genArrivals(w, 4, w.Seed, 0)
	b := genArrivals(w, 4, w.Seed, 0)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same (workload, rate, seed, trial) must draw identical arrivals")
	}
	if len(a) != w.Jobs {
		t.Fatalf("want %d arrivals, got %d", w.Jobs, len(a))
	}
	last := 0.0
	for i, ar := range a {
		if ar.at <= last {
			t.Fatalf("arrival %d at %g not after %g", i, ar.at, last)
		}
		if ar.class < 0 || ar.class >= len(w.Mix) {
			t.Fatalf("arrival %d drew class %d", i, ar.class)
		}
		last = ar.at
	}
	if reflect.DeepEqual(a, genArrivals(w, 4, w.Seed, 1)) {
		t.Fatal("different trials must draw different arrivals")
	}

	// Common random numbers across the rate axis: the draw sequence is
	// rate-independent uniforms scaled by 1/rate, so doubling the rate
	// halves every interarrival gap and keeps the class picks.
	double := genArrivals(w, 8, w.Seed, 0)
	for i := range a {
		if double[i].class != a[i].class {
			t.Fatalf("arrival %d changed class across rates", i)
		}
		if math.Abs(double[i].at-a[i].at/2) > 1e-12 {
			t.Fatalf("arrival %d: rate 8 at %g, want %g", i, double[i].at, a[i].at/2)
		}
	}
}

func TestFailTracePrefixStable(t *testing.T) {
	const nodes, mtbf = 4, 0.5
	grown := newFailTrace(nodes, mtbf, 42)
	oneshot := newFailTrace(nodes, mtbf, 42)
	oneshot.ensure(40)

	// Reading through many small windows must agree with one big draw:
	// window growth never rewrites history.
	for node := 0; node < nodes; node++ {
		var incremental []float64
		for lo := 0.0; lo < 40; lo += 2.5 {
			for _, f := range grown.window(node, lo, lo+2.5) {
				incremental = append(incremental, f)
			}
		}
		direct := oneshot.window(node, 0, 40)
		if !reflect.DeepEqual(incremental, append([]float64(nil), direct...)) {
			t.Fatalf("node %d: incremental windows %v != direct %v", node, incremental, direct)
		}
	}

	if w := newFailTrace(nodes, 0, 42).window(0, 0, 1e9); w != nil {
		t.Fatalf("failure-free trace must be empty, got %v", w)
	}
}

func TestClusterAllocRelease(t *testing.T) {
	cl := NewCluster(4)
	a := cl.Alloc(3, nil)
	if !reflect.DeepEqual(a, []int{0, 1, 2}) || cl.Free() != 1 {
		t.Fatalf("lowest-first alloc broken: %v free=%d", a, cl.Free())
	}
	cl.Release(a[1:2]) // free node 1 only
	b := cl.Alloc(2, nil)
	if !reflect.DeepEqual(b, []int{1, 3}) || cl.Free() != 0 {
		t.Fatalf("want [1 3], got %v free=%d", b, cl.Free())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("over-allocation must panic")
		}
	}()
	cl.Alloc(1, nil)
}

func TestEASYBackfill(t *testing.T) {
	s, err := newScheduler("easy")
	if err != nil {
		t.Fatal(err)
	}
	// Head needs 8, 2 free; the 4-wide job at index 2 would outlive the
	// shadow time (free reaches 8 at t=10), but the short 2-wide job at
	// index 1 fits now and finishes before it — the classic backfill.
	v := &View{
		Now: 0, Nodes: 8, Free: 2,
		Pending: []PendingJob{
			{Width: 8, Arrival: 0, Est: 5},
			{Width: 2, Arrival: 1, Est: 4},
			{Width: 2, Arrival: 2, Est: 40},
		},
		RunEnds: []RunEnd{{Time: 4, Width: 2}, {Time: 10, Width: 4}},
	}
	if got := s.Next(v); got != 1 {
		t.Fatalf("EASY should backfill the non-delaying job 1, got %d", got)
	}
	// Without job 1, job 2 (2-wide, 40s est) would run past the shadow
	// (t=10) and the head's reservation leaves no spare width (free 2 +
	// released 6 = 8, all reserved), so EASY must refuse it.
	v.Pending = []PendingJob{
		{Width: 8, Arrival: 0, Est: 5},
		{Width: 2, Arrival: 2, Est: 40},
	}
	if got := s.Next(v); got != -1 {
		t.Fatalf("EASY must not delay the head reservation, got %d", got)
	}
	// A fitting head goes first, always.
	v.Free = 8
	v.RunEnds = nil
	if got := s.Next(v); got != 0 {
		t.Fatalf("fitting head should place first, got %d", got)
	}
}

func TestKChoices(t *testing.T) {
	s, err := newScheduler("kchoices")
	if err != nil {
		t.Fatal(err)
	}
	v := &View{
		Now: 0, Nodes: 8, Free: 4,
		Pending: []PendingJob{
			{Width: 6, Arrival: 0, Est: 1}, // does not fit
			{Width: 2, Arrival: 1, Est: 1}, // fits
			{Width: 4, Arrival: 2, Est: 1}, // fits, widest among first k
			{Width: 3, Arrival: 3, Est: 1}, // fits, narrower
			{Width: 4, Arrival: 4, Est: 1}, // beyond k=4: ignored
		},
	}
	if got := s.Next(v); got != 2 {
		t.Fatalf("kchoices should take the widest fitting of the first 4, got %d", got)
	}
	v.Free = 1
	if got := s.Next(v); got != -1 {
		t.Fatalf("nothing fits, want -1, got %d", got)
	}
}

func TestPolicies(t *testing.T) {
	req := Request{Logical: 4, NativeWall: 1, NodeMTBF: 10, DeltaFrac: 0.05, Nodes: 16, Free: 16}

	nat, _ := newPolicy("native")
	if d := nat.Decide(req); d.Mode != scenario.Native {
		t.Fatalf("native policy chose %s", d.Mode.Name())
	}

	rep, _ := newPolicy("replicate")
	if d := rep.Decide(req); d.Mode != scenario.Classic || d.Degree != 2 {
		t.Fatalf("replicate policy chose %s/%d", d.Mode.Name(), d.Degree)
	}
	tight := req
	tight.Nodes = 6 // 2x4 replicas can never fit
	if d := rep.Decide(tight); d.Mode != scenario.Native {
		t.Fatalf("replicate must fall back to native on a too-small cluster, got %s", d.Mode.Name())
	}

	ccrP, _ := newPolicy("ccr")
	d := ccrP.Decide(req)
	if d.Mode != scenario.CCR {
		t.Fatalf("ccr policy chose %s", d.Mode.Name())
	}
	if d.Params.Tau <= 0 || d.Params.Tau > req.NativeWall {
		t.Fatalf("ccr tau %g outside (0, wall]", d.Params.Tau)
	}
	if d.Params.Delta != req.DeltaFrac*req.NativeWall {
		t.Fatalf("ccr delta %g, want %g", d.Params.Delta, req.DeltaFrac*req.NativeWall)
	}
	noFail := req
	noFail.NodeMTBF = 0
	if d := ccrP.Decide(noFail); d.Params.Tau != noFail.NativeWall {
		t.Fatalf("failure-free ccr should run one segment, tau %g", d.Params.Tau)
	}

	ad, _ := newPolicy("adaptive")
	if d := ad.Decide(noFail); d.Mode != scenario.Native {
		t.Fatalf("adaptive without failures should run native, got %s", d.Mode.Name())
	}
	if d := ad.Decide(req); d.Mode != scenario.CCR {
		t.Fatalf("adaptive at mild MTBF should checkpoint, got %s", d.Mode.Name())
	}
	harsh := req
	harsh.NodeMTBF = 0.2 // rank MTBF 0.05 vs wall 1: checkpointing collapses
	if d := ad.Decide(harsh); d.Mode != scenario.Classic || d.Degree != 2 {
		t.Fatalf("adaptive at harsh MTBF with spare nodes should replicate, got %s", d.Mode.Name())
	}
	harshFull := harsh
	harshFull.Free = 7 // no room for 8 replica slots
	if d := ad.Decide(harshFull); d.Mode != scenario.CCR {
		t.Fatalf("adaptive without spare capacity should checkpoint, got %s", d.Mode.Name())
	}
}

// resultJSON canonicalizes a Result for byte comparison.
func resultJSON(t *testing.T, r *Result) string {
	t.Helper()
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestRunDeterministicAcrossWorkers(t *testing.T) {
	w := testWorkload()
	one, err := Run(Config{Trials: 2, Workers: 1}, w)
	if err != nil {
		t.Fatal(err)
	}
	many, err := Run(Config{Trials: 2, Workers: 8}, w)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := resultJSON(t, one), resultJSON(t, many); a != b {
		t.Fatalf("worker count changed the result:\n%s\n%s", a, b)
	}
	if len(one.Groups) != 4 {
		t.Fatalf("want 2 schedulers x 2 policies = 4 groups, got %d", len(one.Groups))
	}
	for _, g := range one.Groups {
		if g.Jobs != 2*w.Jobs {
			t.Fatalf("group %s/%s saw %d jobs, want %d", g.Scheduler, g.Policy, g.Jobs, 2*w.Jobs)
		}
		if g.Completed+g.Failed != g.Jobs {
			t.Fatalf("group %s/%s: %d done + %d failed != %d jobs", g.Scheduler, g.Policy, g.Completed, g.Failed, g.Jobs)
		}
	}
	// Identical arrival streams across the axes: every group of one trial
	// set saw the same job count and the same per-policy mode counts
	// regardless of scheduler.
	for _, g := range one.Groups {
		for _, h := range one.Groups {
			if g.Policy == h.Policy && (g.Native != h.Native || g.Replicated != h.Replicated || g.CCR != h.CCR) {
				t.Fatalf("schedulers disagree on policy %q mode counts", g.Policy)
			}
		}
	}
}

func TestRunStoreWarmAndSharded(t *testing.T) {
	w := testWorkload()
	plain, err := Run(Config{Trials: 2}, w)
	if err != nil {
		t.Fatal(err)
	}
	want := resultJSON(t, plain)

	// Cold run populates the store; a warm rerun serves every cell and
	// reference simulation from it, byte-identically.
	dir := t.TempDir()
	st, err := store.Open(dir, "cold")
	if err != nil {
		t.Fatal(err)
	}
	cold, err := Run(Config{Trials: 2, Store: st}, w)
	if err != nil {
		t.Fatal(err)
	}
	if resultJSON(t, cold) != want {
		t.Fatal("store-backed run diverged from plain run")
	}
	if st.Stats().Puts == 0 {
		t.Fatal("cold run should persist cells")
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, err := store.Open(dir, "warm")
	if err != nil {
		t.Fatal(err)
	}
	warm, err := Run(Config{Trials: 2, Store: st2}, w)
	if err != nil {
		t.Fatal(err)
	}
	if resultJSON(t, warm) != want {
		t.Fatal("warm run diverged")
	}
	if s := st2.Stats(); s.Misses != 0 || s.Puts != 0 {
		t.Fatalf("warm run should hit everything: %s", s.String())
	}
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}

	// Three populate shards partition the cells exactly; the merged store
	// then serves a full Run without a single simulation or trace
	// recording.
	dir2 := t.TempDir()
	totalOwned := 0
	for i := 0; i < 3; i++ {
		sh, err := store.ParseShard(itoa(i) + "/3")
		if err != nil {
			t.Fatal(err)
		}
		sst, err := store.Open(dir2, sh.String())
		if err != nil {
			t.Fatal(err)
		}
		stats, err := Populate(Config{Trials: 2, Store: sst}, w, sh)
		if err != nil {
			t.Fatal(err)
		}
		if stats.Owned != stats.Hits+stats.Computed {
			t.Fatalf("shard %d stats do not add up: %+v", i, stats)
		}
		totalOwned += stats.Owned
		if stats.Units != 8 {
			t.Fatalf("shard %d sees %d cells, want 8", i, stats.Units)
		}
		if err := sst.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if totalOwned != 8 {
		t.Fatalf("shards own %d cells in total, want 8", totalOwned)
	}
	mst, err := store.Open(dir2, "merge")
	if err != nil {
		t.Fatal(err)
	}
	var rc recordCounter
	merged, _, err := run(Config{Trials: 2, Store: mst}, w, store.Shard{}, rc.record)
	if err != nil {
		t.Fatal(err)
	}
	if resultJSON(t, merged) != want {
		t.Fatal("merged run diverged from plain run")
	}
	if s := mst.Stats(); s.Misses != 0 {
		t.Fatalf("merged run should be fully warm: %s", s.String())
	}
	if n := rc.total(); n != 0 {
		t.Fatalf("merged run recorded %d traces, want 0", n)
	}
	if err := mst.Close(); err != nil {
		t.Fatal(err)
	}

	// Populate without a store is a usage error.
	if _, err := Populate(Config{Trials: 2}, w, store.Shard{Count: 3}); err == nil {
		t.Fatal("storeless Populate should fail")
	}
}

func itoa(i int) string { return string(rune('0' + i)) }

func TestRunRejectsBadNames(t *testing.T) {
	w := testWorkload()
	w.Schedulers = []string{"fcfs", "nope"}
	if _, err := Run(Config{Trials: 1}, w); err == nil {
		t.Fatal("unknown scheduler must fail")
	}
	w = testWorkload()
	w.Policies = []string{"nope"}
	if _, err := Run(Config{Trials: 1}, w); err == nil {
		t.Fatal("unknown policy must fail")
	}
}
