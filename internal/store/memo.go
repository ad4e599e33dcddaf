package store

import (
	"encoding/json"
	"fmt"
)

// Codec maps a layer's result to its stored payload and back. A nil
// Encode stores the result itself; a nil Decode unmarshals the payload
// into a fresh T. Decode reports false for a payload that describes no
// usable result (a record from an older schema, say).
type Codec[T any] struct {
	Encode func(T) any
	Decode func(json.RawMessage) (T, bool)
}

// Memo is the one "serve from the store, else compute and persist" path:
// every layer that caches results (sweep points, jobstream cells) routes
// them through a Memo of its own record kind and codec.
type Memo[T any] struct {
	Store *Store // nil: compute, never persist
	Kind  string
	Codec Codec[T]
}

// Do returns the result addressed by fingerprint: from the store when the
// record there decodes, from compute otherwise, persisting what it
// computed. hit reports that the store served the result. A nil store or
// an empty fingerprint (a result no content key can describe) computes
// without persisting and counts nothing.
//
// The store counts a hit only after the payload decodes. A payload that
// does not decode counts as a miss and is recomputed, never used in place
// of a result, so a run that reports misses=0 recomputed nothing.
func (m Memo[T]) Do(fingerprint string, compute func() (T, error)) (v T, hit bool, err error) {
	if m.Store == nil || fingerprint == "" {
		v, err = compute()
		return v, false, err
	}
	key := Key(fingerprint)
	if raw, ok := m.Store.lookup(m.Kind, key); ok {
		if v, ok = m.decode(raw); ok {
			m.Store.count(true)
			return v, true, nil
		}
	}
	m.Store.count(false)
	if v, err = compute(); err != nil {
		return v, false, err
	}
	var payload any = v
	if m.Codec.Encode != nil {
		payload = m.Codec.Encode(v)
	}
	return v, false, m.Store.Put(m.Kind, key, payload)
}

func (m Memo[T]) decode(raw json.RawMessage) (T, bool) {
	if m.Codec.Decode != nil {
		return m.Codec.Decode(raw)
	}
	var v T
	err := json.Unmarshal(raw, &v)
	return v, err == nil
}

// PopulateStats summarizes one shard's pass over a layer's work list: the
// sweep's unique points, a campaign's trials, a jobstream's cells. Every
// -shard run reports it in place of results.
type PopulateStats struct {
	Units    int `json:"units"`    // work units in the whole run
	Unkeyed  int `json:"unkeyed"`  // units no content key describes: left to the merge run
	Owned    int `json:"owned"`    // units this shard is responsible for
	Hits     int `json:"hits"`     // owned units served from the store
	Computed int `json:"computed"` // owned units computed by this pass
}

// Add folds another pass's counts in.
func (p *PopulateStats) Add(o PopulateStats) {
	p.Units += o.Units
	p.Unkeyed += o.Unkeyed
	p.Owned += o.Owned
	p.Hits += o.Hits
	p.Computed += o.Computed
}

// String renders the one-line populate summary.
func (p PopulateStats) String() string {
	return fmt.Sprintf("units=%d owned=%d computed=%d hits=%d unkeyed=%d",
		p.Units, p.Owned, p.Computed, p.Hits, p.Unkeyed)
}
