package store

import (
	"fmt"
	"strconv"
	"strings"
)

// Shard selects a deterministic slice of a work list for one process of a
// multi-process campaign: shard i of N owns every index congruent to i
// modulo N. The zero value (Count 0) and 1-way sharding own everything.
//
// Every shard derives the full work list independently and identically
// (the lists are deterministic in the scenario inputs), then filters by
// ownership — so the shards partition the work with no coordination and
// their union is exactly the single-process list.
type Shard struct {
	Index int // 0-based shard index
	Count int // total shards
}

// ParseShard parses the CLI form "i/N" with 0 <= i < N, spelled
// canonically (as String renders it: no signs, no leading zeros), so a
// shard has exactly one label.
func ParseShard(s string) (Shard, error) {
	is, ns, ok := strings.Cut(s, "/")
	if !ok {
		return Shard{}, fmt.Errorf("store: shard %q is not of the form i/N", s)
	}
	i, err1 := strconv.Atoi(is)
	n, err2 := strconv.Atoi(ns)
	if err1 != nil || err2 != nil {
		return Shard{}, fmt.Errorf("store: shard %q is not of the form i/N", s)
	}
	if n < 1 || i < 0 || i >= n {
		return Shard{}, fmt.Errorf("store: shard %q needs 0 <= i < N", s)
	}
	sh := Shard{Index: i, Count: n}
	if sh.String() != s {
		return Shard{}, fmt.Errorf("store: shard %q is not canonical (want %q)", s, sh.String())
	}
	return sh, nil
}

// Active reports whether the shard selects a strict subset of the work.
func (sh Shard) Active() bool { return sh.Count > 1 }

// Owns reports whether this shard is responsible for work item i.
func (sh Shard) Owns(i int) bool {
	if sh.Count <= 1 {
		return true
	}
	return i%sh.Count == sh.Index
}

// String renders the canonical "i/N" form ("0/1" for the zero value).
func (sh Shard) String() string {
	n := sh.Count
	if n < 1 {
		n = 1
	}
	return fmt.Sprintf("%d/%d", sh.Index, n)
}
