// Package mpi implements an MPI-flavoured message-passing runtime on top of
// the discrete-event simulator.
//
// It provides ranks, communicators, tagged point-to-point messaging
// (blocking and nonblocking, with Wait/Waitall), and the collectives used
// by the paper's applications (Barrier, Bcast, Reduce, Allreduce,
// Allgather). It stands in for Open MPI 1.7 in the original evaluation.
//
// Failure semantics are crash-stop: when a rank is killed, messages it
// fully transmitted are still delivered, in-flight transmissions are lost,
// and receives that can no longer be satisfied fail with *PeerDeadError —
// the hook the replication layer builds on.
package mpi

import (
	"fmt"
	"strconv"

	"repro/internal/perf"
	"repro/internal/sim"
	"repro/internal/simnet"
)

// Stats aggregates per-rank accounting, used for the paper's time
// breakdowns ("sections" vs "others", update-transfer time).
type Stats struct {
	Compute   sim.Time // time charged via Compute/ComputeWork
	Blocked   sim.Time // time blocked in Recv/Wait/collectives
	BytesSent int64
	MsgsSent  int64
}

// World is the set of simulated MPI processes ("physical processes" in the
// paper's terminology) plus the interconnect they communicate over.
type World struct {
	e         *sim.Engine
	net       *simnet.Network
	machine   perf.Machine
	ranks     []*rankState
	placement func(rank int) int
	commSeq   int
	reqSeq    uint64
	world     *Comm
	deathSubs []func(rank int)

	// Free lists (see Scratch). A world starts with private, empty ones;
	// UseScratch swaps in a caller-owned bundle that survives the world.
	sc *Scratch
}

// Scratch is the bundle of free lists a world draws from: requests,
// collective messages (with their payload buffers), outMsg transfer nodes
// and single-shot channel states. By default every world owns a private
// scratch, so independent worlds stay independent without locking. A harness
// that builds many short-lived worlds in sequence on one goroutine — the
// pooled sweep worker simulating one campaign trial per world — can hand
// the same Scratch to each of them, so every trial after the first runs on
// warm pools instead of re-allocating its steady state from nothing.
type Scratch struct {
	reqFree []*Request
	msgFree []*Message
	omFree  []*outMsg
	chFree  []*chanState
	outFree [][]*outMsg // recycled per-rank in-flight lists (backing arrays)
}

// NewScratch returns an empty free-list bundle for UseScratch.
func NewScratch() *Scratch { return &Scratch{} }

// UseScratch makes the world draw from (and recycle into) sc instead of its
// private free lists. Call it before Launch. The caller must ensure worlds
// sharing a scratch never run concurrently: the pools are unlocked by
// design, one engine drives one world at a time.
func (w *World) UseScratch(sc *Scratch) {
	w.sc = sc
	// Hand recycled in-flight list backing arrays to the ranks; without
	// this every trial re-grows 16 slices through the same append doublings.
	for _, st := range w.ranks {
		n := len(sc.outFree)
		if n == 0 {
			break
		}
		if st.outgoing == nil {
			st.outgoing = sc.outFree[n-1][:0]
			sc.outFree[n-1] = nil
			sc.outFree = sc.outFree[:n-1]
		}
	}
}

type rankState struct {
	w         *World
	rank      int
	node      int
	proc      *sim.Proc
	dead      bool
	chans     map[matchKey]*chanState // per-(src,tag,comm) matching state
	outgoing  []*outMsg               // transfers this rank has in flight
	delivered int                     // outgoing entries delivered since last prune
	stats     Stats
	coll      *collSM    // pooled collective state machine (lazy)
	scalar    [1]float64 // scratch cell backing AllreduceScalar
}

// chanState is the matching state of one (src, tag, comm) channel. Keeping
// the send sequence, in-flight count and both match queues behind a single
// map entry means each message costs a couple of key hashes instead of one
// per field — and hot paths that already hold the pointer (delivery, a
// pending request) pay none at all.
type chanState struct {
	sendSeq    uint64     // per-channel send sequence (sender side)
	inflight   int        // messages en route to this rank (receiver side)
	pending    []*Request // posted receives in arrival order (receiver side)
	unexpected []*Message // arrived unmatched, in send order (receiver side)
}

// chanFor returns the channel state for key, creating it on first use.
// Fresh states come from the world pool: single-shot collective channels
// cycle through it once per tree hop, match-queue backing arrays and all.
func (st *rankState) chanFor(key matchKey) *chanState {
	if ch := st.chans[key]; ch != nil {
		return ch
	}
	sc := st.w.sc
	n := len(sc.chFree)
	if n == 0 {
		// Refill by the slab: at 512 ranks a single collective floats a few
		// thousand single-shot channels before the first retire, and filling
		// that inventory one object at a time dominates the allocation
		// profile. One backing array per chanSlab states amortizes it away.
		slab := make([]chanState, chanSlab)
		for i := range slab {
			sc.chFree = append(sc.chFree, &slab[i])
		}
		n = chanSlab
	}
	ch := sc.chFree[n-1]
	sc.chFree[n-1] = nil
	sc.chFree = sc.chFree[:n-1]
	st.chans[key] = ch
	return ch
}

// retireSingleShot drops a drained collective channel from the matching map
// and recycles its state. Collective tags (negative) are minted fresh per
// round, so each (src, tag) channel carries at most one message ever: once
// that message is consumed the entry is dead weight — it would bloat the
// channel map that every death scan iterates, and cost an allocation per
// tree hop. Application tags (>= 0) are reusable and never retired.
func (st *rankState) retireSingleShot(key matchKey, ch *chanState) {
	if key.tag >= 0 || len(ch.pending) > 0 || len(ch.unexpected) > 0 || ch.inflight > 0 {
		return
	}
	delete(st.chans, key)
	ch.sendSeq = 0
	st.w.sc.chFree = append(st.w.sc.chFree, ch)
}

// outMsg is one in-flight transmission. The simnet Transfer is embedded by
// value and the outMsg itself is the typed delivery callback, so a send
// allocates neither a separate Transfer nor a delivery closure. The
// destination channel state rides along, so delivery hashes no keys.
type outMsg struct {
	tr        simnet.Transfer
	srcSt     *rankState // sending rank (owner of the in-flight list)
	dstSt     *rankState // destination rank
	dstCh     *chanState // destination channel state
	msg       *Message
	dst       int // destination world rank
	key       matchKey
	delivered bool
}

// Fire delivers the message at the arrival time (sim.Timer).
func (om *outMsg) Fire() {
	om.delivered = true
	om.srcSt.delivered++ // lets the sender prune as garbage accrues
	msg := om.msg
	om.msg = nil // the receiver owns it now; drop our reference
	om.dstCh.inflight--
	om.dstSt.deliver(om.key, om.dstCh, msg)
}

type matchKey struct {
	src  int
	tag  int
	comm int
}

// putRequest returns a request whose handle did not escape to the pool.
func (st *rankState) putRequest(rq *Request) { st.w.putRequest(rq) }

func (w *World) putRequest(rq *Request) {
	rq.st = nil
	rq.ch = nil
	rq.msg = nil
	rq.err = nil
	w.sc.reqFree = append(w.sc.reqFree, rq)
}

// Pool slab sizes: when a free list runs dry it refills with one backing
// array of this many objects instead of allocating them one by one. Large
// worlds float thousands of pooled objects before the first recycle (512
// ranks hold up to pruneDelivered outMsgs each), and slab refills keep that
// warm-up from dominating the allocation profile.
const (
	outMsgSlab  = 64
	chanSlab    = 32
	messageSlab = 16
	requestSlab = 16
)

// getMessage returns a pooled message with a payload buffer of length n.
func (w *World) getMessage(n int) *Message {
	sc := w.sc
	l := len(sc.msgFree)
	if l == 0 {
		slab := make([]Message, messageSlab)
		for i := range slab {
			sc.msgFree = append(sc.msgFree, &slab[i])
		}
		l = messageSlab
	}
	m := sc.msgFree[l-1]
	sc.msgFree[l-1] = nil
	sc.msgFree = sc.msgFree[:l-1]
	if cap(m.Data) < n {
		m.Data = make([]float64, n)
	} else {
		m.Data = m.Data[:n]
	}
	return m
}

// putMessage recycles a consumed collective message, payload buffer and
// all. Only collective receives call it: point-to-point messages are owned
// by their receiver indefinitely.
func (w *World) putMessage(m *Message) {
	m.Meta = nil
	w.sc.msgFree = append(w.sc.msgFree, m)
}

func (w *World) getOutMsg() *outMsg {
	sc := w.sc
	l := len(sc.omFree)
	if l == 0 {
		slab := make([]outMsg, outMsgSlab)
		for i := range slab {
			sc.omFree = append(sc.omFree, &slab[i])
		}
		l = outMsgSlab
	}
	om := sc.omFree[l-1]
	sc.omFree[l-1] = nil
	sc.omFree = sc.omFree[:l-1]
	om.delivered = false
	return om
}

func (w *World) putOutMsg(om *outMsg) {
	om.srcSt = nil
	om.dstSt = nil
	om.dstCh = nil
	om.msg = nil
	w.sc.omFree = append(w.sc.omFree, om)
}

// Reclaim returns the world's recyclable steady state to its scratch once a
// run has fully drained: delivered transfer nodes, channel states and the
// messages and receive requests still queued unmatched. A harness that runs
// many short-lived worlds on one shared scratch calls it right before
// dropping the world — without it most of the pooled inventory dies with
// the world's own structures and every trial starts cold again. The world
// must not be used afterwards.
func (w *World) Reclaim() {
	for _, st := range w.ranks {
		for i, om := range st.outgoing {
			if !om.delivered {
				// The run has drained; an undelivered transfer can no longer
				// fire, so its payload message is exclusively ours again.
				w.putMessage(om.msg)
			}
			w.putOutMsg(om)
			st.outgoing[i] = nil
		}
		if st.outgoing != nil {
			w.sc.outFree = append(w.sc.outFree, st.outgoing[:0])
			st.outgoing = nil
		}
		st.delivered = 0
		for key, ch := range st.chans {
			for i, m := range ch.unexpected {
				w.putMessage(m)
				ch.unexpected[i] = nil
			}
			ch.unexpected = ch.unexpected[:0]
			for i, rq := range ch.pending {
				w.putRequest(rq)
				ch.pending[i] = nil
			}
			ch.pending = ch.pending[:0]
			ch.inflight = 0
			ch.sendSeq = 0
			delete(st.chans, key)
			w.sc.chFree = append(w.sc.chFree, ch)
		}
	}
}

// Message is a delivered point-to-point message.
type Message struct {
	Src, Dst int // world ranks
	Tag      int
	Data     []float64 // numeric payload (owned by the receiver)
	Meta     any       // immutable side information (headers etc.)
	Bytes    int64     // modeled wire size
	seq      uint64    // per-(src,tag,comm) send sequence, for FIFO order
}

// NewWorld creates n ranks on the given network using block placement
// (net.NodeOf) unless placement is non-nil. machine converts perf.Work to
// virtual compute time.
func NewWorld(e *sim.Engine, net *simnet.Network, n int, machine perf.Machine, placement func(int) int) *World {
	if placement == nil {
		placement = net.NodeOf
	}
	w := &World{e: e, net: net, machine: machine, placement: placement, sc: NewScratch()}
	w.ranks = make([]*rankState, n)
	slab := make([]rankState, n) // one allocation for all per-rank state
	for i := 0; i < n; i++ {
		node := placement(i)
		if node < 0 || node >= net.Nodes() {
			panic(fmt.Sprintf("mpi: rank %d placed on invalid node %d", i, node))
		}
		st := &slab[i]
		st.w, st.rank, st.node = w, i, node
		st.chans = make(map[matchKey]*chanState)
		w.ranks[i] = st
	}
	members := make([]int, n)
	for i := range members {
		members[i] = i
	}
	w.world = w.newComm(members)
	e.OnKill(w.onProcKilled)
	return w
}

// Engine returns the simulation engine.
func (w *World) Engine() *sim.Engine { return w.e }

// Net returns the interconnect.
func (w *World) Net() *simnet.Network { return w.net }

// Machine returns the per-core compute model.
func (w *World) Machine() perf.Machine { return w.machine }

// Size returns the number of ranks.
func (w *World) Size() int { return len(w.ranks) }

// World returns the communicator containing every rank.
func (w *World) World() *Comm { return w.world }

// NodeOf returns the node a rank is placed on.
func (w *World) NodeOf(rank int) int { return w.ranks[rank].node }

// Dead reports whether a rank has crashed.
func (w *World) Dead(rank int) bool { return w.ranks[rank].dead }

// StatsOf returns a copy of the rank's accounting counters.
func (w *World) StatsOf(rank int) Stats { return w.ranks[rank].stats }

// OnDeath registers fn to be invoked in engine context when a rank dies,
// after undeliverable receives have been failed.
func (w *World) OnDeath(fn func(rank int)) { w.deathSubs = append(w.deathSubs, fn) }

// Launch starts the program for the given rank as a simulated process.
func (w *World) Launch(name string, rank int, fn func(r *Rank)) {
	st := w.ranks[rank]
	if st.proc != nil {
		panic(fmt.Sprintf("mpi: rank %d launched twice", rank))
	}
	st.proc = w.e.Spawn(name, func(p *sim.Proc) {
		fn(&Rank{st: st, p: p})
	})
	st.proc.SetUserData(st)
}

// LaunchAll starts fn on every rank, naming processes "prefix/rank".
func (w *World) LaunchAll(prefix string, fn func(r *Rank)) {
	for i := range w.ranks {
		w.Launch(prefix+"/"+strconv.Itoa(i), i, fn)
	}
}

// Kill crash-stops a rank. Must be called from engine context (e.g. a
// scheduled fault event) or from another process.
func (w *World) Kill(rank int) {
	st := w.ranks[rank]
	if st.dead || st.proc == nil {
		return
	}
	w.e.Kill(st.proc)
}

// onProcKilled is the engine kill hook: it translates a process crash into
// MPI-level failure semantics.
func (w *World) onProcKilled(p *sim.Proc) {
	st, ok := p.UserData().(*rankState)
	if !ok || st.w != w || st.dead {
		return
	}
	st.dead = true
	// Drop in-flight transmissions that had not left the NIC.
	now := w.e.Now()
	for i, om := range st.outgoing {
		if om.delivered {
			w.putOutMsg(om)
		} else if om.tr.TxDone() > now {
			om.tr.Cancel()
			om.dstCh.inflight--
			w.ranks[om.dst].failDoomedRecvs(om.key, om.dstCh)
			w.putMessage(om.msg)
			w.putOutMsg(om)
		}
		// else: the transfer already left the NIC; it stays owned by its
		// pending delivery event and is dropped on arrival or consumed.
		st.outgoing[i] = nil
	}
	st.outgoing = st.outgoing[:0]
	st.delivered = 0
	// Fail receives (on every surviving rank) that name the dead rank as
	// source and cannot be satisfied by queued or in-flight messages.
	for _, r := range w.ranks {
		if r == st || r.dead {
			continue
		}
		r.failRecvsFrom(st.rank)
	}
	for _, fn := range w.deathSubs {
		fn(st.rank)
	}
}

// failRecvsFrom fails every pending receive naming src that has no queued
// or in-flight message to satisfy it. Candidates are gathered per channel
// and then sorted by request id, so the wake-up order is deterministic even
// though chans is a map.
func (st *rankState) failRecvsFrom(src int) {
	var doomed []*Request
	for key, ch := range st.chans {
		if key.src != src || len(ch.pending) == 0 {
			continue
		}
		avail := len(ch.unexpected) + ch.inflight
		if avail >= len(ch.pending) {
			continue
		}
		doomed = append(doomed, ch.pending[avail:]...)
	}
	// Deterministic order: sort by request id.
	sortRequests(doomed)
	for _, rq := range doomed {
		rq.ch.removePending(rq)
		rq.complete(nil, &PeerDeadError{Rank: src})
	}
}

// failDoomedRecvs re-checks pending receives on ch after in-flight
// accounting changed; used when a transfer from a now-dead source is
// dropped or delivered.
func (st *rankState) failDoomedRecvs(key matchKey, ch *chanState) {
	if !st.w.ranks[key.src].dead {
		return
	}
	avail := len(ch.unexpected) + ch.inflight
	if avail >= len(ch.pending) {
		return
	}
	doomed := append([]*Request(nil), ch.pending[avail:]...)
	for _, rq := range doomed {
		ch.removePending(rq)
		rq.complete(nil, &PeerDeadError{Rank: key.src})
	}
	st.retireSingleShot(key, ch)
}
