package campaign_test

import (
	"encoding/json"
	"math/rand"
	"testing"

	"repro/internal/campaign"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/store"
)

// shardedScenarios is the sharding test grid: replicated points plus a
// ccr point, so both trial paths (simulated crash schedules and ckptsim
// replays) cross the shard boundary.
func shardedScenarios() []campaign.Scenario {
	return append(smallScenarios(),
		campaign.Scenario{Point: smallPoint("ccr/point", scenario.CCR), MTBF: 10 * sim.Second})
}

func campaignJSON(t *testing.T, res *campaign.Result) string {
	t.Helper()
	b, err := json.MarshalIndent(res, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestCampaignShardedMergeByteIdentical is the campaign acceptance
// property: N shards populating a store in any order, then a merge run
// over the warm store, reproduce the storeless single-process campaign
// byte for byte — with zero merge-time simulations — and the persisted
// shard aggregates verify against the pooled statistics.
func TestCampaignShardedMergeByteIdentical(t *testing.T) {
	scs := shardedScenarios()
	base := campaign.Config{Trials: 9, Seed: 5, Workers: 2}
	plain, err := campaign.Run(base, scs)
	if err != nil {
		t.Fatal(err)
	}
	want := campaignJSON(t, plain)

	const shards = 3
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(1))
	units, owned := 0, 0
	for _, i := range rng.Perm(shards) {
		sh := store.Shard{Index: i, Count: shards}
		st, err := store.Open(dir, sh.String())
		if err != nil {
			t.Fatal(err)
		}
		aggsBefore := len(st.Records("campaign-agg"))
		cfg := base
		cfg.Store = st
		pstats, err := campaign.Populate(cfg, scs, sh)
		if err != nil {
			t.Fatal(err)
		}
		// Every shard sees the same unit list (unique replicated trials
		// plus the 9 ccr replays). A crash-free trial may hit the
		// fault-free reference an earlier shard stored.
		if pstats.Hits+pstats.Computed != pstats.Owned || pstats.Unkeyed != 0 ||
			(units != 0 && pstats.Units != units) || pstats.Units <= 9 {
			t.Fatalf("shard %v populate stats: %v", sh, pstats)
		}
		units = pstats.Units
		owned += pstats.Owned
		if got := len(st.Records("campaign-agg")) - aggsBefore; got != len(scs) {
			t.Fatalf("shard %v persisted %d aggregate records, want %d", sh, got, len(scs))
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if owned != units {
		t.Fatalf("shards own %d units in total, want each of %d exactly once", owned, units)
	}

	st, err := store.Open(dir, "merge")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	cfg := base
	cfg.Store = st
	merged, err := campaign.Run(cfg, scs)
	if err != nil {
		t.Fatal(err)
	}
	if got := campaignJSON(t, merged); got != want {
		t.Fatalf("merged campaign diverges from the storeless single-process run:\n%s\nvs\n%s", got, want)
	}
	// Zero simulations at merge time: every sweep point was a store hit.
	// The merge's own puts are exactly its whole-campaign aggregate records.
	if s := st.Stats(); s.Misses != 0 || s.Puts != int64(len(scs)) {
		t.Fatalf("merge run was not fully warm: %+v", s)
	}
	verified, err := campaign.VerifyStoredAggregates(cfg, scs, merged)
	if err != nil {
		t.Fatal(err)
	}
	// Two complete schemes: the 3-shard populate and the merge run's own
	// whole-campaign (0/1) records.
	if verified != 2 {
		t.Fatalf("verified %d aggregate schemes, want 2", verified)
	}

	// A second warm run over the compacted store is still byte-identical.
	if err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	st2, err := store.Open(dir, "again")
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	cfg.Store = st2
	again, err := campaign.Run(cfg, scs)
	if err != nil {
		t.Fatal(err)
	}
	if got := campaignJSON(t, again); got != want {
		t.Fatal("post-compaction warm campaign diverges")
	}
	if s := st2.Stats(); s.Misses != 0 {
		t.Fatalf("post-compaction run had misses: %+v", s)
	}
}

// TestCampaignStoreDoesNotChangeOutput: running with a store (cold) must
// not perturb the campaign aggregate relative to the storeless path.
func TestCampaignStoreDoesNotChangeOutput(t *testing.T) {
	scs := smallScenarios()[:1]
	base := campaign.Config{Trials: 6, Seed: 11}
	plain, err := campaign.Run(base, scs)
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(t.TempDir(), "cold")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	cfg := base
	cfg.Store = st
	stored, err := campaign.Run(cfg, scs)
	if err != nil {
		t.Fatal(err)
	}
	if campaignJSON(t, plain) != campaignJSON(t, stored) {
		t.Fatal("a cold store changed the campaign output")
	}
	if s := st.Stats(); s.Puts == 0 {
		t.Fatalf("cold campaign persisted nothing: %+v", s)
	}
}
