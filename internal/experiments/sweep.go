package experiments

import (
	"encoding/json"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/apps/amg"
	"repro/internal/apps/apputil"
	"repro/internal/apps/gtc"
	"repro/internal/apps/hpccg"
	"repro/internal/apps/minighost"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/mpi"
	"repro/internal/perf"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/store"
)

// App is one benchmark application bound to a concrete configuration,
// ready to run on a sweep point. The key is a canonical content
// fingerprint of the configuration (scenario.AppFingerprint): two Apps
// with equal keys produce identical simulations, which is what lets the
// sweep memoize repeated points.
type App struct {
	Name string
	key  string
	main appMain
}

// AppFor binds a registered application to a decoded configuration (the
// pointer type the registry's New returns).
func AppFor(name string, cfg any) (App, error) {
	ent, err := scenario.AppByName(name)
	if err != nil {
		return App{}, err
	}
	run, err := ent.Run(cfg)
	if err != nil {
		return App{}, err
	}
	key, err := scenario.AppFingerprint(name, cfg)
	if err != nil {
		return App{}, err
	}
	return App{Name: name, key: key, main: appMain(run)}, nil
}

// mustApp is AppFor for the typed constructors below, whose registry
// entries are guaranteed by this package's app imports.
func mustApp(name string, cfg any) App {
	app, err := AppFor(name, cfg)
	if err != nil {
		panic(fmt.Sprintf("experiments: %v", err))
	}
	return app
}

// HPCCG wraps the HPCCG conjugate-gradient mini-app for a sweep.
func HPCCG(cfg hpccg.Config) App { return mustApp("hpccg", &cfg) }

// AMG wraps the AMG2013 multigrid mini-app for a sweep.
func AMG(cfg amg.Config) App { return mustApp("amg", &cfg) }

// GTC wraps the GTC particle-in-cell code for a sweep.
func GTC(cfg gtc.Config) App { return mustApp("gtc", &cfg) }

// MiniGhost wraps the MiniGhost stencil mini-app for a sweep.
func MiniGhost(cfg minighost.Config) App { return mustApp("minighost", &cfg) }

// Spec is one sweep point: a platform, a fault-tolerance mode, and an
// application. The zero values of Degree, Net and Machine select the
// paper's defaults (degree 2, InfiniBand 20G, Grid'5000 node).
type Spec struct {
	Name    string // label carried into the Result
	Mode    Mode
	Logical int // logical MPI ranks
	Degree  int // replication degree (0 = default 2)
	Opts    core.Options
	Net     simnet.Config
	Machine perf.Machine
	App     App

	// Fault, when non-nil and non-empty, arms the crash schedule on the
	// cluster before launch (replicated modes only). Schedules participate
	// in the memo key via their content fingerprint, so two trials drawing
	// identical schedules — in particular, fault-free draws — are simulated
	// once.
	Fault *fault.Schedule

	// Replay, when non-nil, substitutes the application's main with a
	// replay of the recorded traces (RecordTraces): the simulated
	// makespan, crash consequences and physical layout are identical to
	// executing the application, but its kernels never run. On an intra
	// spec the section protocol still runs for real, so the event count
	// and the runtime Stats are re-derived too. It is an execution strategy,
	// not a semantic parameter, so it is excluded from the memo key; the
	// app's own reports (kernel timings, the in-app total, and on classic
	// specs the section Stats) are not re-derived, so only callers that
	// consume wall times and crash outcomes — the failure campaigns and
	// jobstream's crashed replicated jobs — may arm it.
	Replay *core.TraceSet
}

// key returns the memo fingerprint of the spec — the canonical JSON
// encoding of every semantic field — or "" when the spec is not memoizable
// (custom scheduler or hooks carry code the key cannot see, and an unknown
// mode cannot be encoded).
func (s Spec) key() string {
	o := s.Opts
	if s.App.key == "" || o.Sched != nil ||
		o.Hooks.BeforeTaskExec != nil || o.Hooks.AfterTaskExec != nil || o.Hooks.AfterArgSend != nil {
		return ""
	}
	// Normalize the degree the same way the cluster resolves it, so a
	// degree-0 (default) spec memo-hits its spelled-out twin and native
	// specs key identically whatever degree tag they carry.
	degree := s.Degree
	if !s.Mode.Replicated() {
		degree = 1
	} else if degree == 0 {
		degree = scenario.DefaultDegree
	}
	// A ccr point's cluster simulation IS the native run (checkpointing is
	// replayed outside the simulator), so it keys as native and a campaign's
	// ccr reference memo-hits its own native baseline.
	mode := s.Mode
	if mode == scenario.CCR {
		mode = scenario.Native
	}
	k, err := json.Marshal(struct {
		Mode      Mode           `json:"mode"`
		Logical   int            `json:"logical"`
		Degree    int            `json:"degree"`
		Inout     core.InoutMode `json:"inout"`
		CostScale float64        `json:"cost_scale"`
		Net       simnet.Config  `json:"net"`
		Machine   perf.Machine   `json:"machine"`
		Fault     string         `json:"fault"`
		App       string         `json:"app"`
	}{mode, s.Logical, degree, o.Mode, o.CostScale, s.Net, s.Machine,
		s.Fault.Fingerprint(), s.App.key})
	if err != nil {
		return ""
	}
	return string(k)
}

// Key returns the spec's canonical content fingerprint — the memo and
// store key — or "" when the spec is not memoizable. Exported for layers
// that memoize per-spec simulations themselves (the jobstream runner).
func (s Spec) Key() string { return s.key() }

// SpecFor converts a validated Scenario into a runnable sweep point: the
// thin adapter every scenario consumer (CLIs, figures, scenario files,
// campaigns) goes through.
func SpecFor(sc scenario.Scenario) (Spec, error) {
	if err := sc.Validate(); err != nil {
		return Spec{}, err
	}
	if sc.Fault != nil && sc.Fault.MTBFSeconds > 0 {
		return Spec{}, fmt.Errorf("scenario %q: an MTBF fault model needs a campaign (-mode campaign), a single sweep point cannot run it", sc.Name)
	}
	cfg, err := sc.AppConfig()
	if err != nil {
		return Spec{}, err
	}
	app, err := AppFor(sc.App, cfg)
	if err != nil {
		return Spec{}, err
	}
	net, machine, err := sc.Platform()
	if err != nil {
		return Spec{}, err
	}
	opts, err := sc.Intra.CoreOptions()
	if err != nil {
		return Spec{}, err
	}
	return Spec{
		Name: sc.Name, Mode: sc.Mode, Logical: sc.Logical, Degree: sc.Degree,
		Opts: opts, Net: net, Machine: machine, App: app,
		Fault: sc.Fault.Schedule(),
	}, nil
}

// SweepScenarios validates and runs a scenario list through the sweep
// pool, in order.
func SweepScenarios(workers int, scs []scenario.Scenario) ([]Result, error) {
	return SweepScenariosStore(workers, nil, scs)
}

// SweepScenariosStore is SweepScenarios backed by a persistent result
// store (nil = in-memory only).
func SweepScenariosStore(workers int, st *store.Store, scs []scenario.Scenario) ([]Result, error) {
	specs, err := SpecsFor(scs)
	if err != nil {
		return nil, err
	}
	return SweepStore(workers, st, specs)
}

// SpecsFor converts a scenario list into sweep points, in order.
func SpecsFor(scs []scenario.Scenario) ([]Spec, error) {
	specs := make([]Spec, len(scs))
	for i, sc := range scs {
		spec, err := SpecFor(sc)
		if err != nil {
			return nil, err
		}
		specs[i] = spec
	}
	return specs, nil
}

// KernelResult is the JSON view of one kernel's timing.
type KernelResult struct {
	WallSeconds       float64 `json:"wall_seconds"`
	UpdateWaitSeconds float64 `json:"update_wait_seconds"`
	Calls             int     `json:"calls"`
}

// Result is the outcome of one sweep point. All virtual times are reported
// in seconds; ElapsedMS is the real time the simulation took (zero when the
// point was served from the memo).
type Result struct {
	Name              string                  `json:"name"`
	App               string                  `json:"app"`
	Mode              string                  `json:"mode"`
	Logical           int                     `json:"logical"`
	Degree            int                     `json:"degree"`
	PhysProcs         int                     `json:"phys_procs"`
	WallSeconds       float64                 `json:"wall_seconds"`
	AppSeconds        float64                 `json:"app_seconds"`
	SectionSeconds    float64                 `json:"section_seconds"`
	UpdateWaitSeconds float64                 `json:"update_wait_seconds"`
	CopySeconds       float64                 `json:"copy_seconds"`
	Sections          int                     `json:"sections"`
	TasksRun          int                     `json:"tasks_run"`
	TasksReceived     int                     `json:"tasks_received"`
	UpdateBytes       int64                   `json:"update_bytes"`
	SimEvents         uint64                  `json:"sim_events"`
	SimProcs          int                     `json:"sim_procs"`
	Crashes           int                     `json:"crashes,omitempty"`
	ElapsedMS         float64                 `json:"elapsed_ms"`
	Memoized          bool                    `json:"memoized"`
	Kernels           map[string]KernelResult `json:"kernels,omitempty"`

	// Measure is the raw aggregate, for figure builders that need
	// sim.Time arithmetic. Memoized results share one Measure.
	Measure *Measure `json:"-"`
}

// KernelResults converts per-kernel timings to their JSON view. Shared by
// the sweep runner and the CLI reports so there is one wire schema.
func KernelResults(kernels map[string]*apputil.KernelTime) map[string]KernelResult {
	out := make(map[string]KernelResult, len(kernels))
	for name, kt := range kernels {
		out[name] = KernelResult{
			WallSeconds:       kt.Wall.Seconds(),
			UpdateWaitSeconds: kt.UpdateWait.Seconds(),
			Calls:             kt.Calls,
		}
	}
	return out
}

// Sweep runs every spec and returns the results in spec order. Points run
// concurrently on up to GOMAXPROCS workers, each worker owning its own
// sim.Engine; engines share no state, so results are identical to a serial
// run. Specs with equal content keys are simulated once and the remaining
// occurrences served from an in-memory memo.
func Sweep(specs []Spec) ([]Result, error) { return SweepN(0, specs) }

// SweepN is Sweep with an explicit worker count (0 = GOMAXPROCS).
func SweepN(workers int, specs []Spec) ([]Result, error) {
	return SweepStore(workers, nil, specs)
}

// dedupe maps each spec to the unique run that serves it: uniq is the
// distinct-simulation list, keys its memo fingerprints ("" = not
// memoizable), and uniqOf[i] the index into uniq serving specs[i].
// Deduplicating up front (rather than racing a singleflight) keeps memo
// behavior independent of worker scheduling — and, because the keys are
// content fingerprints, every process sweeping the same spec list derives
// the identical uniq list, which is what lets shards partition it by
// index with no coordination.
func dedupe(specs []Spec) (uniq []Spec, keys []string, uniqOf []int) {
	firstIdx := map[string]int{}
	uniqOf = make([]int, len(specs))
	for i, s := range specs {
		k := s.key()
		if k != "" {
			if j, ok := firstIdx[k]; ok {
				uniqOf[i] = j
				continue
			}
			firstIdx[k] = len(uniq)
		}
		uniqOf[i] = len(uniq)
		uniq = append(uniq, s)
		keys = append(keys, k)
	}
	return uniq, keys, uniqOf
}

// ForEach runs fn(i) for every i in [0, n) on a pool of workers
// (GOMAXPROCS when workers <= 0, never more than n) and returns when all
// calls have. Indices are handed out in order, each exactly once; fn must
// be safe to call concurrently. It is the index fan-out shared by the
// campaign, explore and jobstream runners.
func ForEach(workers, n int, fn func(i int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	var next atomic.Int64
	next.Store(-1)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1))
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// forEachUnique runs fn(eng, sc, j) for j in [0, n) on a pool of workers.
// Each worker owns one pooled simulation engine and one mpi scratch for its
// whole lifetime: fn receives the engine Reset (time zero, empty queue,
// goroutines parked in the idle pool) and the scratch warm, so consecutive
// specs on a worker reuse the engine's event free list, its process
// goroutines and the message layer's request/message/transfer pools instead
// of rebuilding them per spec.
func forEachUnique(workers, n int, fn func(eng *sim.Engine, sc *mpi.Scratch, j int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	var next atomic.Int64
	next.Store(-1)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			eng := sim.NewPooled()
			defer eng.Shutdown()
			sc := mpi.NewScratch()
			for {
				j := int(next.Add(1))
				if j >= n {
					return
				}
				eng.Reset()
				fn(eng, sc, j)
			}
		}()
	}
	wg.Wait()
}

// SweepStore is SweepN consulting (and populating) a persistent result
// store behind the in-memory memo: a unique point found in the store skips
// simulation entirely, a simulated point is appended for later processes.
// A nil store is the plain in-memory sweep. Results are identical either
// way — stored payloads round-trip the Result and its Measure exactly —
// except that a store-served point reports the ElapsedMS of the run that
// originally simulated it (the memo overlay below is applied after store
// lookup, so Memoized flags are untouched by store warmth).
func SweepStore(workers int, st *store.Store, specs []Spec) ([]Result, error) {
	res, _, _, err := SweepShard(workers, st, store.Shard{}, specs)
	return res, err
}

// SweepShard is the one sweep body: it runs the unique points shard sh
// owns, through the store when st is set, and returns their results in
// spec order with an ownership mask (owned[i] reports whether specs[i]
// was served). The zero shard owns every point.
//
// An active shard is the build phase of a multi-process sweep. Every
// shard derives the identical deduplicated point list (the memo key is
// content-addressed) and claims unique points by index modulo the shard
// count: an exact partition, so N shards together simulate each unique
// point exactly once, and their merged store lets a final plain run emit
// the single-process results with zero simulations. An active shard skips
// unkeyed points, whose results cannot outlive the process; the merge run
// simulates them.
func SweepShard(workers int, st *store.Store, sh store.Shard, specs []Spec) ([]Result, []bool, store.PopulateStats, error) {
	uniq, keys, uniqOf := dedupe(specs)
	stats := store.PopulateStats{Units: len(uniq)}
	owns := make([]bool, len(uniq))
	for j, key := range keys {
		if key == "" && sh.Active() {
			stats.Unkeyed++
		} else if sh.Owns(j) {
			owns[j] = true
			stats.Owned++
		}
	}

	memo := store.Memo[Result]{Store: st, Kind: resultKind, Codec: resultCodec}
	runs := make([]Result, len(uniq))
	errs := make([]error, len(uniq))
	var hits atomic.Int64
	Progress.Plan(stats.Owned)
	forEachUnique(workers, len(uniq), func(eng *sim.Engine, sc *mpi.Scratch, j int) {
		if !owns[j] {
			return
		}
		defer Progress.Done()
		var hit bool
		runs[j], hit, errs[j] = memo.Do(keys[j], func() (Result, error) { return runSpec(eng, sc, uniq[j]) })
		if hit {
			hits.Add(1)
		}
	})
	stats.Hits = int(hits.Load())
	stats.Computed = stats.Owned - stats.Hits

	// Report the first failure in spec order, so the error is the same
	// whatever the worker count.
	for i, s := range specs {
		if err := errs[uniqOf[i]]; err != nil {
			return nil, nil, stats, fmt.Errorf("sweep %q: %w", s.Name, err)
		}
	}

	out := make([]Result, len(specs))
	owned := make([]bool, len(specs))
	seen := make([]bool, len(uniq))
	for i, s := range specs {
		j := uniqOf[i]
		if !owns[j] {
			continue
		}
		r := runs[j]
		r.Name = s.Name
		// The memo can serve one spec from another mode's identical
		// simulation (ccr <-> native); the reported mode is always the
		// spec's own.
		r.Mode = s.Mode.String()
		if seen[j] {
			r.Memoized = true
			r.ElapsedMS = 0
		}
		seen[j] = true
		out[i] = r
		owned[i] = true
	}
	return out, owned, stats, nil
}

// runSpec simulates one sweep point. eng, when non-nil, is a Reset pooled
// engine supplied by the worker pool, and sc an mpi scratch shared across
// the worker's specs; nil runs on private ones. The simulated outcome is
// identical either way — reuse recycles event nodes, goroutines and message
// buffers, never state the simulation can observe.
func runSpec(eng *sim.Engine, sc *mpi.Scratch, s Spec) (Result, error) {
	if s.App.main == nil {
		return Result{}, fmt.Errorf("spec %q has no application", s.Name)
	}
	main := s.App.main
	if s.Replay != nil {
		main = replayMain(s.Replay)
	}
	crashes := 0
	if s.Fault != nil {
		crashes = len(s.Fault.Crashes)
	}
	if crashes > 0 && !s.Mode.Replicated() {
		return Result{}, fmt.Errorf("spec %q: fault schedule requires a replicated mode", s.Name)
	}
	start := time.Now()
	c, err := NewCluster(ClusterConfig{
		Logical: s.Logical, Mode: s.Mode, Degree: s.Degree,
		Net: s.Net, Machine: s.Machine, IntraOpts: s.Opts,
		SendLog: crashes > 0,
		Engine:  eng, Scratch: sc,
	})
	if err != nil {
		return Result{}, err
	}
	if crashes > 0 {
		s.Fault.Install(c.E, c.Sys)
	}
	m := &Measure{Mode: s.Mode, Kernels: map[string]*apputil.KernelTime{}}
	var firstErr error
	// Wall time is the completion of the last (surviving) replica, not the
	// engine's queue-drain time: a fault schedule may arm crashes beyond
	// the program's end (e.g. a campaign horizon larger than the actual
	// makespan), and those no-op events must not stretch the measured run.
	var lastEnd sim.Time
	c.Launch(func(rt core.Runner) {
		total, kernels, st, err := main(rt)
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("rank %d: %w", rt.LogicalRank(), err)
			}
			return
		}
		m.add(total, kernels, st)
		if now := rt.Now(); now > lastEnd {
			lastEnd = now
		}
	})
	if _, err := c.Run(); err != nil {
		return Result{}, err
	}
	if sc != nil {
		// The world dies with this call; hand its pooled inventory back to
		// the worker's scratch so the next spec starts warm.
		c.W.Reclaim()
	}
	if firstErr != nil {
		return Result{}, firstErr
	}
	m.finish(lastEnd, c.PhysProcs())

	degree := s.Degree
	if degree == 0 {
		degree = 2
	}
	if !s.Mode.Replicated() {
		degree = 1
	}
	es := c.E.Stats()
	r := Result{
		Name:              s.Name,
		App:               s.App.Name,
		Mode:              s.Mode.String(),
		Logical:           s.Logical,
		Degree:            degree,
		PhysProcs:         m.PhysProcs,
		WallSeconds:       m.Wall.Seconds(),
		AppSeconds:        m.AppTotal.Seconds(),
		SectionSeconds:    m.Stats.SectionTime.Seconds(),
		UpdateWaitSeconds: m.Stats.UpdateWait.Seconds(),
		CopySeconds:       m.Stats.CopyTime.Seconds(),
		Sections:          m.Stats.Sections,
		TasksRun:          m.Stats.TasksRun,
		TasksReceived:     m.Stats.TasksReceived,
		UpdateBytes:       m.Stats.UpdateBytes,
		SimEvents:         es.Events,
		SimProcs:          es.Procs,
		Crashes:           crashes,
		ElapsedMS:         float64(time.Since(start).Microseconds()) / 1e3,
		Kernels:           KernelResults(m.Kernels),
		Measure:           m,
	}
	return r, nil
}
