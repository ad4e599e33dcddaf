package jobstream

import (
	"sync"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/store"
)

// memoRunner resolves placed jobs' cluster simulations to their measured
// results: the class references and the replicated jobs under concrete
// crash schedules. One memoRunner serves every cell of a run and memoizes
// by the spec's content key, backed by the optional persistent store, so a
// (class, schedule) simulation happens once however many cells need it.
// Concurrent cells may race to simulate the same key; the results are
// identical by the determinism contract, so the race changes nothing any
// cell reads.
type memoRunner struct {
	st   *store.Store
	mu   sync.Mutex
	memo map[string]experiments.Result
}

func newMemoRunner(st *store.Store) *memoRunner {
	return &memoRunner{st: st, memo: map[string]experiments.Result{}}
}

// runBatch simulates specs as one parallel sweep on up to workers workers
// (SweepStore consults and populates the persistent store) and memoizes
// every result.
func (r *memoRunner) runBatch(workers int, specs []experiments.Spec) ([]experiments.Result, error) {
	out, err := experiments.SweepStore(workers, r.st, specs)
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	for i, s := range specs {
		if key := s.Key(); key != "" {
			r.memo[key] = out[i]
		}
	}
	r.mu.Unlock()
	return out, nil
}

// Run resolves one spec, from the memo when an earlier job ran it. trace,
// when non-nil, is called on a memo miss and supplies the recorded trace
// the simulation replays instead of executing the app's kernels.
func (r *memoRunner) Run(spec experiments.Spec, trace func() (*core.TraceSet, error)) (experiments.Result, error) {
	if key := spec.Key(); key != "" {
		r.mu.Lock()
		res, ok := r.memo[key]
		r.mu.Unlock()
		if ok {
			return res, nil
		}
	}
	if trace != nil {
		ts, err := trace()
		if err != nil {
			return experiments.Result{}, err
		}
		spec.Replay = ts
	}
	out, err := r.runBatch(1, []experiments.Spec{spec})
	if err != nil {
		return experiments.Result{}, err
	}
	return out[0], nil
}
