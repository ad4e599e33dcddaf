package jobstream

import (
	"encoding/json"
	"fmt"

	"repro/internal/experiments"
	"repro/internal/scenario"
	"repro/internal/store"
)

// cellKind namespaces jobstream cell records in the store.
const cellKind = "jobstream-cell"

// cellKey is the content address of one cell: the stream point's
// canonical fingerprint plus the scheduler, policy, trial index and
// effective seed. Trial count is deliberately absent — a 10-trial run
// warm-hits the first 5 cells of a 5-trial store — and so are the
// workload's axis lists, so two files sharing a stream point share its
// cells.
func cellKey(streamFP, scheduler, policy string, trial int, seed int64) string {
	b, err := json.Marshal(struct {
		Stream    string `json:"stream"`
		Scheduler string `json:"scheduler"`
		Policy    string `json:"policy"`
		Trial     int    `json:"trial"`
		Seed      int64  `json:"seed"`
	}{streamFP, scheduler, policy, trial, seed})
	if err != nil {
		panic(fmt.Sprintf("jobstream: cell key: %v", err)) // struct of scalars cannot fail
	}
	return store.Key(string(b))
}

// runOrLoadCell serves one cell from the store when warm, simulating and
// persisting it otherwise. A payload that does not decode is a cache miss
// (the store's corruption convention), never a stand-in result. The bool
// reports a store hit.
func runOrLoadCell(st *store.Store, key string, p cellParams) (cellWire, bool, error) {
	if st != nil {
		if raw, ok := st.Get(cellKind, key); ok {
			var cw cellWire
			if err := json.Unmarshal(raw, &cw); err == nil {
				return cw, true, nil
			}
		}
	}
	cw, err := runCell(p)
	if err != nil {
		return cellWire{}, false, err
	}
	if st != nil {
		if err := st.Put(cellKind, key, cw); err != nil {
			return cellWire{}, false, err
		}
	}
	return cw, false, nil
}

// PopulateStats summarizes one shard's jobstream populate pass.
type PopulateStats struct {
	Cells     int `json:"cells"`     // cells in the whole run
	Owned     int `json:"owned"`     // cells this shard is responsible for
	Hits      int `json:"hits"`      // owned cells served from the store
	Simulated int `json:"simulated"` // owned cells simulated (and persisted)
}

// Populate runs one shard's slice of a workload and persists everything a
// later merge needs: the class reference simulations (store-backed and
// shared by all shards through first-write-wins), the owned cells' inner
// job simulations, and the owned cell records themselves. Cells are
// claimed by canonical index modulo the shard count — an exact partition,
// so after every shard has run, a plain Run against the merged store
// serves every cell warm and emits the single-process JSON with zero
// simulations.
func Populate(cfg Config, w *scenario.Workload, sh store.Shard) (PopulateStats, error) {
	if cfg.Store == nil {
		return PopulateStats{}, fmt.Errorf("jobstream: Populate needs Config.Store")
	}
	runner := newMemoRunner(cfg.Store)
	cells, _, seed, classes, keys, err := prepare(cfg, w, runner, experiments.RecordTraces)
	if err != nil {
		return PopulateStats{}, err
	}
	stats := PopulateStats{Cells: len(cells)}
	owned := make([]int, 0, len(cells))
	for i := range cells {
		if sh.Owns(i) {
			owned = append(owned, i)
		}
	}
	stats.Owned = len(owned)

	hits := make([]bool, len(owned))
	errs := make([]error, len(owned))
	experiments.Progress.Plan(len(owned))
	experiments.ForEach(cfg.Workers, len(owned), func(k int) {
		defer experiments.Progress.Done()
		i := owned[k]
		c := cells[i]
		_, hits[k], errs[k] = runOrLoadCell(cfg.Store, keys[i], cellParams{
			w: w, rate: c.rate, seed: seed, trial: c.trial,
			scheduler: c.scheduler, policy: c.policy,
			classes: classes, runner: runner,
		})
	})
	for k, err := range errs {
		if err != nil {
			c := cells[owned[k]]
			return stats, fmt.Errorf("jobstream: rate %g %s/%s trial %d: %w", c.rate, c.scheduler, c.policy, c.trial, err)
		}
		if hits[k] {
			stats.Hits++
		} else {
			stats.Simulated++
		}
	}
	return stats, nil
}
