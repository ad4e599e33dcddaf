package replication

import (
	"fmt"

	"repro/internal/mpi"
)

// Proc is the per-replica handle for one replica of a logical MPI process.
// Application code written against Proc sees a logical rank space of size
// Config.Logical; the replication machinery is transparent.
type Proc struct {
	s       *System
	R       *mpi.Rank // underlying physical rank (exposed for lower layers)
	Logical int
	Lane    int

	expected  map[chanKey]uint64                  // next seq per (logical src, tag)
	stash     map[chanKey]map[uint64]*mpi.Message // early messages (defensive)
	sendSeq   map[chanKey]uint64                  // next seq per (logical dst, tag)
	log       []logEntry                          // send log for crash coverage
	logArena  []float64                           // payload storage backing log entries
	collRound int                                 // collective round counter
	reqbuf    []*mpi.Request                      // scratch for blocking sends
}

// chanKey identifies a logical message channel.
type chanKey struct {
	peer int // logical peer rank
	tag  int
}

type logEntry struct {
	dst    int // logical destination
	tag    int
	seq    uint64
	off, n int // payload location in the proc's log arena
	meta   any
	bytes  int64 // modeled payload size
}

// hdr is the replication header carried in mpi message metadata.
type hdr struct {
	Seq  uint64
	User any
}

func newProc(s *System, r *mpi.Rank, logical, lane int) *Proc {
	// The bookkeeping maps are lazy: they only ever hold application-tag
	// channels (collective tags skip sequence bookkeeping entirely), so a
	// replica that exchanges nothing but collectives never materializes them.
	return &Proc{s: s, R: r, Logical: logical, Lane: lane}
}

// System returns the replication system.
func (p *Proc) System() *System { return p.s }

// LogicalSize returns the number of logical ranks.
func (p *Proc) LogicalSize() int { return p.s.cfg.Logical }

// ReplicaComm returns the communicator over this logical rank's replicas
// (comm rank == lane).
func (p *Proc) ReplicaComm() *mpi.Comm { return p.s.ReplicaComm(p.Logical) }

// Send performs a logical send: one physical message per lane this replica
// covers, to the corresponding replica of dst. data is copied.
func (p *Proc) Send(dst, tag int, data []float64, meta any) error {
	return p.SendSized(dst, tag, data, meta, 8*int64(len(data)))
}

// SendSized is Send with an explicit modeled payload size (for scaled
// experiment runs). The per-lane request slice is a scratch buffer reused
// across calls, and the requests themselves never escape, so the blocking
// wait drains it and recycles every handle to the world pool.
func (p *Proc) SendSized(dst, tag int, data []float64, meta any, payloadBytes int64) error {
	p.reqbuf = p.isendInto(p.reqbuf[:0], dst, tag, data, meta, payloadBytes)
	return p.R.WaitallOwned(p.reqbuf)
}

// Isend is the nonblocking variant of Send. The returned requests complete
// when the local NIC finishes transmitting each lane's copy.
func (p *Proc) Isend(dst, tag int, data []float64, meta any) []*mpi.Request {
	return p.IsendSized(dst, tag, data, meta, 8*int64(len(data)))
}

// IsendSized is Isend with an explicit modeled payload size.
func (p *Proc) IsendSized(dst, tag int, data []float64, meta any, payloadBytes int64) []*mpi.Request {
	return p.isendInto(nil, dst, tag, data, meta, payloadBytes)
}

func (p *Proc) isendInto(reqs []*mpi.Request, dst, tag int, data []float64, meta any, payloadBytes int64) []*mpi.Request {
	// Collective tags (negative, minted fresh per round by collTag) are
	// single-shot: each (src, dst, tag) pair carries at most one message,
	// so their sequence number is constantly 1 and per-channel counters
	// would only accumulate dead entries. Only application tags, which can
	// be reused, pay for sequence bookkeeping.
	seq := uint64(1)
	if tag >= 0 {
		if p.sendSeq == nil {
			p.sendSeq = make(map[chanKey]uint64)
		}
		key := chanKey{peer: dst, tag: tag}
		p.sendSeq[key]++
		seq = p.sendSeq[key]
	}
	if p.s.cfg.SendLog {
		// Payloads land in one per-proc arena rather than a fresh buffer per
		// send; entries address it by offset because append may move it.
		off := len(p.logArena)
		p.logArena = append(p.logArena, data...)
		p.log = append(p.log, logEntry{dst: dst, tag: tag, seq: seq, off: off, n: len(data), meta: meta, bytes: payloadBytes})
	}
	for l := 0; l < p.s.cfg.Degree; l++ {
		cover, ok := p.s.Cover(p.Logical, l)
		if !ok || cover != p.Lane {
			continue // some other replica covers lane l (or the rank is lost)
		}
		if !p.s.alive[dst][l] {
			p.s.deadDrops++
			continue // the lane-l replica of dst is dead; its cover has its own feed
		}
		reqs = append(reqs, p.R.IsendPooled(p.s.w.World(), p.s.PhysRank(dst, l), tag, data, p.s.getHdr(seq, meta), payloadBytes))
	}
	return reqs
}

// replayTo re-sends this replica's send log toward lane l (after the lane-l
// replica of this logical rank died). Runs in engine context; duplicates
// are discarded by receivers via sequence numbers.
func (p *Proc) replayTo(l int) {
	for _, ent := range p.log {
		if !p.s.alive[ent.dst][l] {
			continue
		}
		p.s.replayMsgs++
		buf := make([]float64, ent.n)
		copy(buf, p.logArena[ent.off:ent.off+ent.n])
		p.s.w.AsyncSend(p.s.PhysRank(p.Logical, p.Lane), p.s.w.World(),
			p.s.PhysRank(ent.dst, l), ent.tag, buf, p.s.getHdr(ent.seq, ent.meta), ent.bytes)
	}
}

// Recv performs a logical receive from logical rank src with the given
// tag. It transparently fails over to the covering replica when the
// expected sender has crashed, and discards duplicates introduced by
// coverage replay.
func (p *Proc) Recv(src, tag int) (*mpi.Message, error) {
	key := chanKey{peer: src, tag: tag}
	want := uint64(1)
	if tag >= 0 {
		want = p.expected[key] + 1
	}
	for {
		// Serve from the stash first (early arrivals from a previous
		// failover). Single-shot collective tags can never stash: their
		// only sequence number is 1, which is never ahead of want.
		if tag >= 0 {
			if st := p.stash[key]; st != nil {
				if msg, ok := st[want]; ok {
					delete(st, want)
					p.expected[key] = want
					return msg, nil
				}
			}
		}
		// Drain any message already queued from any replica of src; a
		// message from a now-dead replica may have been delivered before
		// the crash. Until the first membership change (epoch 0) each lane
		// has exactly one feed — its own — and anything queued there is
		// consumed without parking by the blocking receive below, so the
		// drain only runs once a crash may have re-routed or replayed
		// traffic.
		if p.s.epoch > 0 {
			drained := false
			for l := 0; l < p.s.cfg.Degree; l++ {
				if msg, ok := p.R.TryRecv(p.s.w.World(), p.s.PhysRank(src, l), tag); ok {
					if p.accept(key, want, msg) {
						return msg, nil
					}
					drained = true
					break
				}
			}
			if drained {
				continue
			}
		}
		cover, ok := p.s.Cover(src, p.Lane)
		if !ok {
			return nil, &LogicalRankLostError{Rank: src}
		}
		msg, err := p.R.Recv(p.s.w.World(), p.s.PhysRank(src, cover), tag)
		if err != nil {
			if mpi.IsPeerDead(err) {
				continue // failover: membership changed, retry with new cover
			}
			return nil, err
		}
		if p.accept(key, want, msg) {
			return msg, nil
		}
	}
}

// accept applies sequence bookkeeping to an arrived message. It returns
// true when msg is the next expected message; duplicates are dropped and
// early messages stashed.
func (p *Proc) accept(key chanKey, want uint64, msg *mpi.Message) bool {
	h, ok := msg.Meta.(*hdr)
	if !ok {
		panic("replication: message without replication header")
	}
	msg.Meta = h.User
	seq := h.Seq
	p.s.putHdr(h)
	switch {
	case seq == want:
		if key.tag >= 0 {
			if p.expected == nil {
				p.expected = make(map[chanKey]uint64)
			}
			p.expected[key] = want
		}
		return true
	case seq < want:
		// Duplicate from coverage replay: nobody will ever see it again, so
		// its buffer can rejoin the message pool whatever path it came from.
		p.s.w.RecycleMessage(msg)
		return false
	default:
		if p.stash == nil {
			p.stash = make(map[chanKey]map[uint64]*mpi.Message)
		}
		if p.stash[key] == nil {
			p.stash[key] = make(map[uint64]*mpi.Message)
		}
		p.stash[key][seq] = msg
		return false
	}
}

// LogicalRankLostError reports that every replica of a logical rank has
// crashed; the computation cannot continue without checkpoint restart.
type LogicalRankLostError struct {
	Rank int
}

func (e *LogicalRankLostError) Error() string {
	return fmt.Sprintf("replication: all replicas of logical rank %d are dead", e.Rank)
}

// Logical collectives are implemented as message trees over logical ranks
// using the replication layer's own Send/Recv, so they inherit its fault
// tolerance: every collective message is mirrored per lane, deduplicated by
// sequence number, and covered by the twin's send-log replay if a replica
// crashes mid-collective. Tags live in the negative space so they can never
// collide with application tags.
func (p *Proc) collTag(op int) int {
	p.collRound++
	return -(op<<24 | p.collRound&0xffffff)
}

const (
	opBarrier = iota + 1
	opBcast
	opReduce
	opAllreduce
)

// Barrier blocks until all logical ranks have entered it (dissemination
// algorithm).
func (p *Proc) Barrier() error {
	tag := p.collTag(opBarrier)
	n := p.s.cfg.Logical
	if n == 1 {
		return nil
	}
	me := p.Logical
	for k := 1; k < n; k <<= 1 {
		if err := p.Send((me+k)%n, tag, nil, nil); err != nil {
			return err
		}
		msg, err := p.Recv((me-k+n)%n, tag)
		if err != nil {
			return err
		}
		p.s.w.RecycleMessage(msg)
	}
	return nil
}

// Bcast broadcasts data from logical rank root to all logical ranks
// (binomial tree). Non-root callers pass a buffer of the right length.
func (p *Proc) Bcast(root int, data []float64) error {
	return p.bcastTag(p.collTag(opBcast), root, data)
}

func (p *Proc) bcastTag(tag, root int, data []float64) error {
	n := p.s.cfg.Logical
	if n == 1 {
		return nil
	}
	vrank := (p.Logical - root + n) % n
	if vrank != 0 {
		mask := 1
		for vrank&mask == 0 {
			mask <<= 1
		}
		parent := vrank - mask
		msg, err := p.Recv((parent+root)%n, tag)
		if err != nil {
			return err
		}
		copy(data, msg.Data)
		p.s.w.RecycleMessage(msg)
	}
	mask := 1
	for vrank&mask == 0 && mask < n {
		mask <<= 1
	}
	for m := mask >> 1; m >= 1; m >>= 1 {
		if child := vrank + m; child < n {
			if err := p.Send((child+root)%n, tag, data, nil); err != nil {
				return err
			}
		}
	}
	return nil
}

// Reduce combines every logical rank's data into root's buffer using op
// (binomial tree). data is used as the local accumulator on all ranks.
func (p *Proc) Reduce(root int, op mpi.ReduceOp, data []float64) error {
	return p.reduceTag(p.collTag(opReduce), root, op, data)
}

func (p *Proc) reduceTag(tag, root int, op mpi.ReduceOp, data []float64) error {
	n := p.s.cfg.Logical
	if n == 1 {
		return nil
	}
	vrank := (p.Logical - root + n) % n
	for mask := 1; mask < n; mask <<= 1 {
		if vrank&mask != 0 {
			parent := vrank - mask
			return p.Send((parent+root)%n, tag, data, nil)
		}
		if child := vrank + mask; child < n {
			msg, err := p.Recv((child+root)%n, tag)
			if err != nil {
				return err
			}
			op(data, msg.Data)
			p.s.w.RecycleMessage(msg)
		}
	}
	return nil
}

// Allreduce combines data across all logical ranks and leaves the result
// in data everywhere (reduce to 0, then broadcast).
func (p *Proc) Allreduce(op mpi.ReduceOp, data []float64) error {
	p.collRound++
	base := -(opAllreduce<<24 | p.collRound&0xffffff)
	if err := p.reduceTag(base, 0, op, data); err != nil {
		return err
	}
	// The paired broadcast reuses the same round with a distinct opcode
	// encoding so the two phases cannot cross-match.
	return p.bcastTag(base-1<<30, 0, data)
}

// AllreduceScalar is a single-value convenience wrapper.
func (p *Proc) AllreduceScalar(op mpi.ReduceOp, v float64) (float64, error) {
	buf := []float64{v}
	if err := p.Allreduce(op, buf); err != nil {
		return 0, err
	}
	return buf[0], nil
}
