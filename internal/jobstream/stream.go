package jobstream

import (
	"math/rand"
	"sort"

	"repro/internal/fault"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// Seed-stream lanes under fault.TrialSeed(seed, lane, trial): lane 0
// drives arrivals and class draws, lane 1 the node-failure trace. Every
// (scheduler, policy) cell of one trial re-derives both from the same
// coordinates, which is what makes the side-by-side comparison replay
// identical streams.
const (
	arrivalLane = 0
	failureLane = 1
)

// arrival is one generated job submission.
type arrival struct {
	at    float64 // submission time, seconds
	class int     // index into the workload mix
}

// genArrivals draws the trial's arrival stream: exponential interarrivals
// at the given rate and weighted class picks, both from one seeded
// generator. The interarrival draws are rate-independent uniforms scaled
// by 1/rate, so different rate points of one workload see common random
// numbers — a variance-reduction property, not a correctness requirement.
func genArrivals(w *scenario.Workload, rate float64, seed int64, trial int) []arrival {
	rng := rand.New(rand.NewSource(fault.TrialSeed(seed, arrivalLane, trial)))
	total := 0.0
	for _, c := range w.Mix {
		total += c.EffWeight()
	}
	out := make([]arrival, w.Jobs)
	t := 0.0
	for j := range out {
		t += rng.ExpFloat64() / rate
		pick := rng.Float64() * total
		class := len(w.Mix) - 1
		acc := 0.0
		for k, c := range w.Mix {
			acc += c.EffWeight()
			if pick < acc {
				class = k
				break
			}
		}
		out[j] = arrival{at: t, class: class}
	}
	return out
}

// failTrace is the trial's shared node-failure history: one exponential
// renewal process per node (fault.Renewal with the nodes as "logical"
// slots, so node i's failures are ExponentialDrawUnclamped's slot (i, 0)),
// extended lazily over a doubling horizon. Each doubling appends only the
// failures beyond the old horizon — a node's stream never redraws — so
// every job can extend its own observation window independently and all
// cells of a trial agree on every node's history.
type failTrace struct {
	mtbf    float64 // per-node MTBF, seconds (0 = failure-free)
	horizon float64
	streams []fault.Renewal // per node, positioned at horizon
	times   [][]float64     // per node, ascending absolute seconds
	buf     []sim.Time      // scratch: one node's newly drawn failures
}

func newFailTrace(nodes int, mtbfSeconds float64, seed int64) *failTrace {
	ft := &failTrace{mtbf: mtbfSeconds, times: make([][]float64, nodes)}
	if mtbfSeconds > 0 {
		ft.streams = make([]fault.Renewal, nodes)
		for i := range ft.streams {
			ft.streams[i] = fault.NewRenewal(sim.Seconds(mtbfSeconds), seed, i, 0)
		}
	}
	return ft
}

// ensure extends the drawn horizon to cover `to`.
func (ft *failTrace) ensure(to float64) {
	if ft.mtbf == 0 || to <= ft.horizon {
		return
	}
	h := ft.horizon
	if h == 0 {
		h = ft.mtbf
	}
	for h < to {
		h *= 2
	}
	for i := range ft.streams {
		ft.buf = ft.streams[i].AppendUntil(ft.buf[:0], sim.Seconds(h))
		for _, t := range ft.buf {
			ft.times[i] = append(ft.times[i], t.Seconds())
		}
	}
	ft.horizon = h
}

// window returns node's failures in [from, to), ascending. The returned
// slice aliases the trace; callers copy what they keep.
func (ft *failTrace) window(node int, from, to float64) []float64 {
	if ft.mtbf == 0 {
		return nil
	}
	ft.ensure(to)
	ts := ft.times[node]
	lo := sort.SearchFloat64s(ts, from)
	hi := lo + sort.SearchFloat64s(ts[lo:], to)
	return ts[lo:hi]
}
