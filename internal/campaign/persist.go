package campaign

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"

	"repro/internal/sim"
	"repro/internal/store"
)

// aggKind namespaces per-scenario campaign aggregates in the store.
const aggKind = "campaign-agg"

// campaignFingerprint canonically encodes every campaign knob that shapes
// the trial set (Workers deliberately excluded: the fan-out cannot change
// the numbers). Aggregates from different campaigns never collide.
func campaignFingerprint(cfg Config, trials int) string {
	b, err := json.Marshal(struct {
		Seed        int64    `json:"seed"`
		Trials      int      `json:"trials"`
		Horizon     sim.Time `json:"horizon"`
		CkptDelta   float64  `json:"ckpt_delta"`
		CkptRestart float64  `json:"ckpt_restart"`
		CkptTau     float64  `json:"ckpt_tau"`
	}{cfg.Seed, trials, cfg.Horizon, cfg.CkptDelta, cfg.CkptRestart, cfg.CkptTau})
	if err != nil {
		panic(fmt.Sprintf("campaign: fingerprint: %v", err)) // struct of scalars cannot fail
	}
	return string(b)
}

// scenarioFingerprint canonically encodes one campaign scenario: the
// point and its native reference by content fingerprint, plus the failure
// process parameters.
func scenarioFingerprint(sc Scenario) (string, error) {
	pfp, err := sc.Point.Fingerprint()
	if err != nil {
		return "", fmt.Errorf("campaign: %w", err)
	}
	nfp, err := sc.nativeScenario().Fingerprint()
	if err != nil {
		return "", fmt.Errorf("campaign: %w", err)
	}
	b, err := json.Marshal(struct {
		Point   string   `json:"point"`
		Native  string   `json:"native"`
		MTBF    sim.Time `json:"mtbf"`
		Horizon sim.Time `json:"horizon"`
	}{pfp, nfp, sc.MTBF, sc.Horizon})
	if err != nil {
		return "", fmt.Errorf("campaign: %w", err)
	}
	return string(b), nil
}

// aggKey is the content address of one (campaign, scenario, shard)
// aggregate record.
func aggKey(campaignFP, scenarioFP string, sh store.Shard) string {
	return store.Key(campaignFP + "|" + scenarioFP + "|shard:" + sh.String())
}

// aggRecord is the stored form of one shard's partial aggregates for one
// scenario: the mergeable count/sum/sumsq (exact partials) of the three
// reported metrics. N such records, one per shard, merge into the pooled
// campaign aggregate; VerifyStoredAggregates checks they do.
type aggRecord struct {
	Shard      string  `json:"shard"`  // "i/N"
	Trials     int     `json:"trials"` // trials this shard owns
	Makespan   aggWire `json:"makespan"`
	Slowdown   aggWire `json:"slowdown"`
	Efficiency aggWire `json:"efficiency"`
}

// persistAggregates writes one aggregate record per scenario under the
// given shard label.
func persistAggregates(st *store.Store, sh store.Shard, cfg Config, trials int, scenarios []Scenario, aggs [][3]Agg) error {
	cfp := campaignFingerprint(cfg, trials)
	for i, sc := range scenarios {
		sfp, err := scenarioFingerprint(sc)
		if err != nil {
			return err
		}
		rec := aggRecord{
			Shard: sh.String(), Trials: aggs[i][0].Count(),
			Makespan: aggs[i][0].wire(), Slowdown: aggs[i][1].wire(), Efficiency: aggs[i][2].wire(),
		}
		if err := st.Put(aggKind, aggKey(cfp, sfp, sh), rec); err != nil {
			return err
		}
	}
	return nil
}

// Populate runs one shard's slice of a campaign and persists everything a
// later merge needs: the references (store-backed, shared by all shards
// through first-write-wins dedup), the owned replicated trial simulations
// (partitioned by unique spec, as experiments.SweepShard partitions any
// sweep), and one mergeable aggregate record per scenario covering the
// trials this shard owns — replicated trials by spec ownership, ccr
// replays by trial index. After every shard of the scheme has run, `Run`
// against the merged store performs zero simulations and reproduces the
// single-process campaign byte for byte, and VerifyStoredAggregates
// cross-checks the pooled statistics against the merged shard aggregates.
func Populate(cfg Config, scenarios []Scenario, sh store.Shard) (store.PopulateStats, error) {
	if cfg.Store == nil {
		return store.PopulateStats{}, fmt.Errorf("campaign: Populate needs Config.Store")
	}
	_, stats, err := run(cfg, scenarios, sh)
	return stats, err
}

// ulpEq reports whether two float64s are equal to within one unit in the
// last place (NaN matches NaN: the <2-trials CI95 convention).
func ulpEq(a, b float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	return a == b || math.Nextafter(a, b) == b
}

// statUlpEq compares two Stats field-wise to 1 ulp.
func statUlpEq(a, b Stat) bool {
	return ulpEq(a.Mean, b.Mean) && ulpEq(a.Std, b.Std) && ulpEq(a.CI95, b.CI95) &&
		ulpEq(a.Min, b.Min) && ulpEq(a.Max, b.Max)
}

// VerifyStoredAggregates cross-checks a campaign result against the
// mergeable aggregate records in the store: for every shard scheme N
// whose records are complete (all N shards present, trial counts summing
// to the campaign's), the merged count/sum/sumsq statistics must equal
// the pooled statistics in res to 1 ulp, CI95 included. It returns the
// number of complete schemes verified; a mismatch is an error — it means
// a shard aggregated different trials than the merged run pooled.
func VerifyStoredAggregates(cfg Config, scenarios []Scenario, res *Result) (int, error) {
	st := cfg.Store
	if st == nil {
		return 0, fmt.Errorf("campaign: VerifyStoredAggregates needs Config.Store")
	}
	cfp := campaignFingerprint(cfg, res.Trials)
	sfps := make([]string, len(scenarios))
	for i, sc := range scenarios {
		sfp, err := scenarioFingerprint(sc)
		if err != nil {
			return 0, err
		}
		sfps[i] = sfp
	}
	// Candidate schemes: every shard count appearing in any aggregate
	// record. The key is a hash, so records bind to scenarios by re-deriving
	// the expected key per (scenario, shard).
	schemes := map[int]bool{}
	for _, rec := range st.Records(aggKind) {
		var r aggRecord
		if err := json.Unmarshal(rec.Payload, &r); err != nil {
			continue // foreign or damaged payload: simply not a candidate
		}
		if sh, err := store.ParseShard(r.Shard); err == nil {
			schemes[sh.Count] = true
		}
	}
	counts := make([]int, 0, len(schemes))
	for n := range schemes {
		counts = append(counts, n)
	}
	sort.Ints(counts)

	verified := 0
	for _, n := range counts {
		complete := true
		merged := make([][3]Agg, len(scenarios))
		for i := range scenarios {
			for s := 0; s < n && complete; s++ {
				raw, okGet := st.Get(aggKind, aggKey(cfp, sfps[i], store.Shard{Index: s, Count: n}))
				if !okGet {
					complete = false
					break
				}
				var r aggRecord
				if err := json.Unmarshal(raw, &r); err != nil {
					return verified, fmt.Errorf("campaign: aggregate record %d/%d for scenario %q: %w", s, n, scenarios[i].Point.Name, err)
				}
				merged[i][0].Merge(r.Makespan.agg())
				merged[i][1].Merge(r.Slowdown.agg())
				merged[i][2].Merge(r.Efficiency.agg())
			}
			if !complete || merged[i][0].Count() != res.Trials {
				complete = false
				break
			}
		}
		if !complete {
			continue // partial populate: nothing to verify yet
		}
		for i, sr := range res.Scenarios {
			for m, name := range []string{"makespan", "slowdown", "efficiency"} {
				got := merged[i][m].Stat()
				want := [3]Stat{sr.Makespan, sr.Slowdown, sr.Efficiency}[m]
				if !statUlpEq(got, want) {
					return verified, fmt.Errorf("campaign: scenario %q: merged %d-shard %s aggregate diverges from pooled trials: %+v vs %+v",
						sr.Name, n, name, got, want)
				}
			}
		}
		verified++
	}
	return verified, nil
}
