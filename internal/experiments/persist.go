package experiments

import (
	"encoding/json"

	"repro/internal/apps/apputil"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/store"
)

// resultKind namespaces sweep-point records in the store.
const resultKind = "result"

// measureWire is the persisted form of Measure. Every field — including
// the unexported sample count — is carried explicitly, so a decoded
// Measure is field-for-field the one the simulation produced and figure
// builders downstream of a cache hit see exactly what a fresh run sees.
// All fields are integers (sim.Time is int64), so the JSON round-trip is
// exact by construction.
type measureWire struct {
	Mode      Mode                           `json:"mode"`
	PhysProcs int                            `json:"phys_procs"`
	Wall      sim.Time                       `json:"wall"`
	AppTotal  sim.Time                       `json:"app_total"`
	Kernels   map[string]*apputil.KernelTime `json:"kernels"`
	Stats     core.Stats                     `json:"stats"`
	Samples   int                            `json:"samples"`
}

// resultWire is the payload stored at one sweep point's content address:
// the JSON Result plus the raw Measure the Result was derived from. The
// float64 fields of Result marshal shortest-round-trip, so decode(encode)
// is the identity and a cache hit emits byte-identical JSON.
type resultWire struct {
	Result  Result       `json:"result"`
	Measure *measureWire `json:"measure"`
}

func encodeResult(r Result) resultWire {
	m := r.Measure
	return resultWire{Result: r, Measure: &measureWire{
		Mode: m.Mode, PhysProcs: m.PhysProcs, Wall: m.Wall, AppTotal: m.AppTotal,
		Kernels: m.Kernels, Stats: m.Stats, Samples: m.samples,
	}}
}

// decodeResult rebuilds a Result from a stored payload. It reports false —
// a cache miss, so the point is re-simulated — when the payload does not
// decode or lacks its Measure (e.g. a record written by an older schema);
// a questionable record is never allowed to stand in for a simulation.
func decodeResult(raw json.RawMessage) (Result, bool) {
	var w resultWire
	if err := json.Unmarshal(raw, &w); err != nil || w.Measure == nil {
		return Result{}, false
	}
	r := w.Result
	mw := w.Measure
	r.Measure = &Measure{
		Mode: mw.Mode, PhysProcs: mw.PhysProcs, Wall: mw.Wall, AppTotal: mw.AppTotal,
		Kernels: mw.Kernels, Stats: mw.Stats, samples: mw.Samples,
	}
	// Restore the non-nil-map invariant a fresh run guarantees.
	if r.Measure.Kernels == nil {
		r.Measure.Kernels = map[string]*apputil.KernelTime{}
	}
	if r.Kernels == nil {
		r.Kernels = map[string]KernelResult{}
	}
	return r, true
}

// resultCodec is the stored form of a sweep point's Result.
var resultCodec = store.Codec[Result]{
	Encode: func(r Result) any { return encodeResult(r) },
	Decode: decodeResult,
}
