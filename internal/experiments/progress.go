package experiments

import "sync/atomic"

// Progress is the process-wide work-unit counter behind cmd/sweep's
// -progress heartbeat. Layers that run simulation work through the pools
// plan units up front and mark them done as they finish: the sweep counts
// each unique point its shard owns, and the jobstream layer each owned
// (rate, scheduler, policy, trial) cell. Counts are
// cumulative over the process lifetime — a heartbeat only ever reads the
// ratio, so monotone is exactly what it wants.
var Progress ProgressCounter

// ProgressCounter tracks planned vs completed work units. The zero value
// is ready to use; all methods are safe for concurrent callers.
type ProgressCounter struct {
	done, total atomic.Int64
	status      atomic.Value // string: current phase, human-readable
}

// Plan records n upcoming work units.
func (p *ProgressCounter) Plan(n int) { p.total.Add(int64(n)) }

// Done records one completed work unit.
func (p *ProgressCounter) Done() { p.done.Add(1) }

// Snapshot reads the counters.
func (p *ProgressCounter) Snapshot() (done, total int64) {
	return p.done.Load(), p.total.Load()
}

// SetStatus publishes a one-line description of the current phase — the
// campaign and explore drivers report rounds, budget spent and the current
// widest-CI point here. Empty clears it.
func (p *ProgressCounter) SetStatus(s string) { p.status.Store(s) }

// Status reads the current phase line ("" when none was published).
func (p *ProgressCounter) Status() string {
	s, _ := p.status.Load().(string)
	return s
}
