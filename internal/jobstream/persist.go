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

// cellFingerprint is the content key of one cell: the stream point's
// canonical fingerprint plus the scheduler, policy, trial index and
// effective seed. Trial count is deliberately absent — a 10-trial run
// warm-hits the first 5 cells of a 5-trial store — and so are the
// workload's axis lists, so two files sharing a stream point share its
// cells.
func cellFingerprint(streamFP, scheduler, policy string, trial int, seed int64) string {
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
	return string(b)
}

// Populate runs one shard's slice of a workload and persists everything a
// later merge needs: the class reference simulations (store-backed and
// shared by all shards through first-write-wins), the owned cells' inner
// job simulations, and the owned cell records themselves. Cells are
// claimed by canonical index modulo the shard count — an exact partition,
// so after every shard has run, a plain Run against the merged store
// serves every cell warm and emits the single-process JSON with zero
// simulations.
func Populate(cfg Config, w *scenario.Workload, sh store.Shard) (store.PopulateStats, error) {
	if cfg.Store == nil {
		return store.PopulateStats{}, fmt.Errorf("jobstream: Populate needs Config.Store")
	}
	_, stats, err := run(cfg, w, sh, experiments.RecordTraces)
	return stats, err
}
