package mpi

import (
	"sort"

	"repro/internal/perf"
	"repro/internal/sim"
	"repro/internal/simnet"
)

// Rank is the process-facing handle for one MPI rank. It is only valid
// inside the rank's own program function.
type Rank struct {
	st *rankState
	p  *sim.Proc
}

// Rank returns the world rank number.
func (r *Rank) Rank() int { return r.st.rank }

// Size returns the world size.
func (r *Rank) Size() int { return len(r.st.w.ranks) }

// World returns the world communicator.
func (r *Rank) World() *Comm { return r.st.w.world }

// Node returns the node this rank is placed on.
func (r *Rank) Node() int { return r.st.node }

// Now returns the current virtual time.
func (r *Rank) Now() sim.Time { return r.p.Now() }

// Proc returns the underlying simulated process.
func (r *Rank) Proc() *sim.Proc { return r.p }

// Stats returns a copy of the rank's accounting counters.
func (r *Rank) Stats() Stats { return r.st.stats }

// Machine returns the world's per-core compute model.
func (r *Rank) Machine() perf.Machine { return r.st.w.machine }

// Compute charges d of virtual CPU time to this rank.
func (r *Rank) Compute(d sim.Time) {
	r.st.stats.Compute += d
	r.p.Sleep(d)
}

// ComputeWork charges the virtual time of w under the world's machine model.
func (r *Rank) ComputeWork(w perf.Work) {
	r.Compute(r.st.w.machine.Duration(w))
}

// Crash crash-stops the calling rank (used by fault injection callbacks
// running inside the rank's program).
func (r *Rank) Crash() {
	r.p.Crash()
}

// Dead reports whether another rank has crashed.
func (r *Rank) Dead(rank int) bool {
	return r.st.w.ranks[rank].dead
}

// Request is a handle on a nonblocking operation. The completion future is
// embedded by value and send completion is scheduled with the request
// itself as the typed timer, so posting an operation costs exactly one
// allocation: the Request.
type Request struct {
	id     uint64
	st     *rankState
	ch     *chanState // receive channel state (recv only)
	key    matchKey   // receive matching key (recv only)
	isRecv bool
	fut    sim.Future
	msg    *Message
	err    error
}

func newRequest(st *rankState, isRecv bool, key matchKey) *Request {
	// The id sequence lives on the World (not in a package variable) so
	// that independent worlds — e.g. one per sweep worker — never share
	// mutable state and stay individually deterministic. Requests are drawn
	// from the world pool; paths where the handle provably does not escape
	// (blocking Send/Recv, the collective state machines) return them.
	w := st.w
	sc := w.sc
	n := len(sc.reqFree)
	if n == 0 {
		slab := make([]Request, requestSlab)
		for i := range slab {
			sc.reqFree = append(sc.reqFree, &slab[i])
		}
		n = requestSlab
	}
	rq := sc.reqFree[n-1]
	sc.reqFree[n-1] = nil
	sc.reqFree = sc.reqFree[:n-1]
	rq.st = st
	rq.isRecv = isRecv
	rq.key = key
	w.reqSeq++
	rq.id = w.reqSeq
	rq.fut.Init(w.e)
	return rq
}

// Fire completes the request with no message and no error; it is the typed
// send-completion callback scheduled at the local NIC's TxDone time.
func (rq *Request) Fire() { rq.complete(nil, nil) }

func (rq *Request) complete(msg *Message, err error) {
	rq.msg = msg
	rq.err = err
	rq.fut.Complete(msg, err)
}

// Done reports whether the operation has completed.
func (rq *Request) Done() bool { return rq.fut.Done() }

// Msg returns the received message (receives only, after completion).
func (rq *Request) Msg() *Message { return rq.msg }

// Err returns the completion error, if any.
func (rq *Request) Err() error { return rq.err }

func sortRequests(reqs []*Request) {
	sort.Slice(reqs, func(i, j int) bool { return reqs[i].id < reqs[j].id })
}

// envelopeBytes models per-message protocol overhead on the wire, on top
// of eight bytes per float64 payload element (or the explicit modeled size
// for IsendSized).
const envelopeBytes = 64

// Isend posts a nonblocking send of data (which is copied, so the caller
// may reuse the buffer immediately) to dst on communicator c. meta must be
// immutable. The request completes when the local NIC finishes
// transmitting, which is what overlapping update transfers wait on.
func (r *Rank) Isend(c *Comm, dst, tag int, data []float64, meta any) *Request {
	buf := make([]float64, len(data))
	copy(buf, data)
	return r.IsendOwned(c, dst, tag, buf, meta)
}

// IsendOwned is Isend without the defensive copy: ownership of data
// transfers to the runtime. Use when the caller has already cloned.
func (r *Rank) IsendOwned(c *Comm, dst, tag int, data []float64, meta any) *Request {
	return r.st.isendOwned(c, dst, tag, data, meta)
}

// IsendSized is Isend with an explicit modeled payload size in bytes,
// used by scaled experiment runs where the in-memory arrays are a fraction
// of the modeled problem (data is still copied; the envelope is added on
// top of payloadBytes).
func (r *Rank) IsendSized(c *Comm, dst, tag int, data []float64, meta any, payloadBytes int64) *Request {
	buf := make([]float64, len(data))
	copy(buf, data)
	return r.st.isendSized(c, dst, tag, buf, meta, payloadBytes)
}

// AsyncSend posts a send on behalf of rank src from engine context (no
// process blocks on it). Used by the replication layer to replay a send
// log when a replica crashes. Ownership of data transfers to the runtime.
func (w *World) AsyncSend(src int, c *Comm, dst, tag int, data []float64, meta any, payloadBytes int64) {
	w.ranks[src].isendSized(c, dst, tag, data, meta, payloadBytes)
}

func (st *rankState) isendOwned(c *Comm, dst, tag int, data []float64, meta any) *Request {
	return st.isendSized(c, dst, tag, data, meta, 8*int64(len(data)))
}

// sendSeqFor returns the per-channel send sequence for the next message on
// (st.rank, tag, c). Collective tags (negative) are single-shot — at most
// one message per channel — so their sequence is constantly 1 and no
// sender-side channel state is materialized for them at all.
func (st *rankState) sendSeqFor(c *Comm, tag int) uint64 {
	if tag < 0 {
		return 1
	}
	sendCh := st.chanFor(matchKey{src: st.rank, tag: tag, comm: c.id})
	sendCh.sendSeq++
	return sendCh.sendSeq
}

func (st *rankState) isendSized(c *Comm, dst, tag int, data []float64, meta any, payloadBytes int64) *Request {
	w := st.w
	worldDst := c.WorldRank(dst)
	key := matchKey{src: st.rank, tag: tag, comm: c.id}
	seq := st.sendSeqFor(c, tag)
	bytes := envelopeBytes + payloadBytes
	req := newRequest(st, false, matchKey{})
	st.stats.MsgsSent++
	st.stats.BytesSent += bytes
	dstState := w.ranks[worldDst]
	if dstState.dead {
		// Crash-stop destination: the message vanishes, so none is built.
		// Model the local NIC cost anyway (the sender cannot know). The
		// no-op delivery event is still scheduled so the engine's event
		// sequence — and with it every same-timestamp tie-break — is
		// identical to the live-receiver path.
		//
		// Known modeling gap (pre-dating this path's rewrite, kept for
		// output stability): this transfer is not tracked in st.outgoing,
		// so if the sender also crashes before TxDone the receiver-node
		// rxFree reservation is never rolled back.
		var tr simnet.Transfer
		w.net.SendInto(&tr, st.node, dstState.node, bytes, nopTimer{})
		w.e.AtTimer(tr.TxDone(), req)
		return req
	}
	msg := &Message{
		Src:   st.rank,
		Dst:   worldDst,
		Tag:   tag,
		Data:  data,
		Meta:  meta,
		Bytes: bytes,
		seq:   seq,
	}
	dstCh := dstState.chanFor(key)
	dstCh.inflight++
	om := w.getOutMsg()
	om.srcSt = st
	om.dstSt = dstState
	om.dstCh = dstCh
	om.msg = msg
	om.dst = worldDst
	om.key = key
	w.net.SendInto(&om.tr, st.node, dstState.node, msg.Bytes, om)
	st.outgoing = append(st.outgoing, om)
	st.pruneOutgoing()
	w.e.AtTimer(om.tr.TxDone(), req)
	return req
}

// isendColl posts a collective send: like isendOwned, but the request,
// message and payload buffer all come from the world pools (the matching
// collective receive recycles them), so steady-state collectives allocate
// nothing. Collective messages carry no Meta.
func (st *rankState) isendColl(c *Comm, dst, tag int, data []float64) *Request {
	return st.isendPooled(c, dst, tag, data, nil, 8*int64(len(data)))
}

// isendPooled is the pooled-message send: payload is copied into a pooled
// buffer and the Message itself comes from the world pool. Timing-wise it is
// exactly isendSized; the only difference is allocation discipline, so it is
// reserved for traffic whose receiver consumes the message and hands it back
// (mpi-level collectives, the replication layer's internal trees, intra
// section updates).
func (st *rankState) isendPooled(c *Comm, dst, tag int, data []float64, meta any, payloadBytes int64) *Request {
	w := st.w
	worldDst := c.WorldRank(dst)
	key := matchKey{src: st.rank, tag: tag, comm: c.id}
	seq := st.sendSeqFor(c, tag)
	bytes := envelopeBytes + payloadBytes
	req := newRequest(st, false, matchKey{})
	st.stats.MsgsSent++
	st.stats.BytesSent += bytes
	dstState := w.ranks[worldDst]
	if dstState.dead {
		// Same modeling as isendSized's dead-destination path (which see).
		var tr simnet.Transfer
		w.net.SendInto(&tr, st.node, dstState.node, bytes, nopTimer{})
		w.e.AtTimer(tr.TxDone(), req)
		return req
	}
	msg := w.getMessage(len(data))
	copy(msg.Data, data)
	msg.Src = st.rank
	msg.Dst = worldDst
	msg.Tag = tag
	msg.Meta = meta
	msg.Bytes = bytes
	msg.seq = seq
	dstCh := dstState.chanFor(key)
	dstCh.inflight++
	om := w.getOutMsg()
	om.srcSt = st
	om.dstSt = dstState
	om.dstCh = dstCh
	om.msg = msg
	om.dst = worldDst
	om.key = key
	w.net.SendInto(&om.tr, st.node, dstState.node, bytes, om)
	st.outgoing = append(st.outgoing, om)
	st.pruneOutgoing()
	w.e.AtTimer(om.tr.TxDone(), req)
	return req
}

// IsendPooled is IsendSized with pooled-message allocation discipline: the
// payload is copied into a pooled buffer and the Message comes from the
// world pool. Use only for traffic whose receiver fully consumes the message
// and returns it via RecycleMessage (or drops it — the pool then simply does
// not grow); a receiver that retains msg.Data must not see pooled sends.
func (r *Rank) IsendPooled(c *Comm, dst, tag int, data []float64, meta any, payloadBytes int64) *Request {
	return r.st.isendPooled(c, dst, tag, data, meta, payloadBytes)
}

// RecycleMessage returns a fully consumed message (payload buffer included)
// to the world pool. Callers must drop every reference to the message and
// its Data.
func (w *World) RecycleMessage(m *Message) { w.putMessage(m) }

// irecvColl posts a collective receive; the state machine recycles the
// request on consumption.
func (st *rankState) irecvColl(c *Comm, src, tag int) *Request {
	req := newRequest(st, true, matchKey{src: c.WorldRank(src), tag: tag, comm: c.id})
	st.postRecv(req)
	return req
}

// nopTimer is a zero-size sim.Timer for events that only exist to keep the
// engine's event sequence aligned (e.g. the vanished delivery of a message
// to a crashed rank).
type nopTimer struct{}

func (nopTimer) Fire() {}

// pruneDelivered is the garbage threshold for pruneOutgoing: once this many
// transfers have been delivered since the last prune, the next send compacts
// the in-flight list. Triggering on actual deliveries (rather than raw list
// length, which let every rank float up to 64 dead nodes — ~32k objects
// across a 512-rank world before the pool saw its first return) bounds the
// per-rank float while keeping the scan amortized: a prune always recycles
// at least pruneDelivered nodes.
const pruneDelivered = 16

// pruneOutgoing recycles completed transfers so the in-flight list stays
// small and delivered outMsg nodes return to the world pool.
func (st *rankState) pruneOutgoing() {
	if st.delivered < pruneDelivered && len(st.outgoing) < 64 {
		return
	}
	w := st.w
	n := len(st.outgoing)
	live := st.outgoing[:0]
	for _, om := range st.outgoing {
		if !om.delivered {
			live = append(live, om)
		} else {
			w.putOutMsg(om)
		}
	}
	for i := len(live); i < n; i++ {
		st.outgoing[i] = nil
	}
	st.outgoing = live
	st.delivered = 0
}

// deliver matches an arriving message against the channel's pending
// receives, or queues it as unexpected. Messages stay in send order.
func (st *rankState) deliver(key matchKey, ch *chanState, msg *Message) {
	if st.dead {
		return // arrived after the receiver crashed
	}
	if reqs := ch.pending; len(reqs) > 0 {
		rq := reqs[0]
		// Shift in place rather than re-slicing from the front: the base
		// pointer stays put, so later appends reuse the capacity instead of
		// drifting toward a reallocation per queue cycle.
		copy(reqs, reqs[1:])
		reqs[len(reqs)-1] = nil
		ch.pending = reqs[:len(reqs)-1]
		rq.complete(msg, nil)
		rq.ch = nil // may be retired and recycled before the Wait
		st.retireSingleShot(key, ch)
		return
	}
	q := ch.unexpected
	// Insertion sort by send sequence restores FIFO (non-overtaking) order
	// even if the network reorders same-key messages.
	i := len(q)
	for i > 0 && q[i-1].seq > msg.seq {
		i--
	}
	q = append(q, nil)
	copy(q[i+1:], q[i:])
	q[i] = msg
	ch.unexpected = q
}

// Irecv posts a nonblocking receive matching (src, tag) on c.
func (r *Rank) Irecv(c *Comm, src, tag int) *Request {
	req := newRequest(r.st, true, matchKey{src: c.WorldRank(src), tag: tag, comm: c.id})
	r.st.postRecv(req)
	return req
}

// postRecv matches a freshly posted receive against the unexpected queue,
// fails it if the source is dead with nothing in flight, or parks it on the
// pending list.
func (st *rankState) postRecv(req *Request) {
	key := req.key
	ch := st.chanFor(key)
	req.ch = ch
	if q := ch.unexpected; len(q) > 0 {
		msg := q[0]
		copy(q, q[1:])
		q[len(q)-1] = nil
		ch.unexpected = q[:len(q)-1]
		req.complete(msg, nil)
		req.ch = nil // may be retired and recycled before the Wait
		st.retireSingleShot(key, ch)
		return
	}
	if st.w.ranks[key.src].dead && ch.inflight == 0 {
		req.complete(nil, &PeerDeadError{Rank: key.src})
		req.ch = nil
		st.retireSingleShot(key, ch)
		return
	}
	ch.pending = append(ch.pending, req)
}

func (ch *chanState) removePending(rq *Request) {
	reqs := ch.pending
	for i, q := range reqs {
		if q == rq {
			copy(reqs[i:], reqs[i+1:])
			reqs[len(reqs)-1] = nil
			ch.pending = reqs[:len(reqs)-1]
			return
		}
	}
}

// Wait blocks until the request completes and returns its error.
func (r *Rank) Wait(rq *Request) error {
	t0 := r.p.Now()
	_, err := rq.fut.Wait(r.p, waitReason(rq))
	r.st.stats.Blocked += r.p.Now() - t0
	return err
}

// waitReason builds the park reason as a value: the "recv from %d tag %d"
// text is rendered only if a deadlock report is actually assembled, not on
// every blocking receive.
func waitReason(rq *Request) sim.ParkReason {
	if rq.isRecv {
		return sim.ParkReason{Kind: sim.WaitRecv, A: int64(rq.key.src), B: int64(rq.key.tag)}
	}
	return sim.ParkReason{Kind: sim.WaitSendDone}
}

// WaitOwned is Wait for a request whose handle never escapes the caller: it
// returns the received message (nil for sends and failed receives) and
// recycles the request to the world pool, like the blocking Recv.
func (r *Rank) WaitOwned(rq *Request) (*Message, error) {
	err := r.Wait(rq)
	msg := rq.msg
	r.st.w.putRequest(rq)
	return msg, err
}

// Waitall waits for every request and returns the first error encountered
// (but always waits for all of them, like MPI_Waitall).
func (r *Rank) Waitall(reqs []*Request) error {
	var first error
	for _, rq := range reqs {
		if err := r.Wait(rq); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// WaitallOwned is Waitall for request slices whose handles never escape
// the caller: every request returns to the world pool after its wait, like
// the blocking Send/Recv convenience wrappers. The replication layer's
// blocking sends drain their scratch request slice through this.
func (r *Rank) WaitallOwned(reqs []*Request) error {
	var first error
	for i, rq := range reqs {
		if err := r.Wait(rq); err != nil && first == nil {
			first = err
		}
		r.st.w.putRequest(rq)
		reqs[i] = nil
	}
	return first
}

// Send is a blocking send: it returns once the local NIC has finished
// transmitting (buffered send semantics with completion timing). The
// request handle never escapes, so it returns to the world pool, and the
// payload is copied into a pooled message (timing-identical to the Isend
// path). The receiver owns the delivered message as usual; one that fully
// consumes it may hand it back via RecycleMessage so the round trip stays
// allocation-free, and one that retains msg.Data simply keeps it — the pool
// then does not grow.
func (r *Rank) Send(c *Comm, dst, tag int, data []float64, meta any) error {
	rq := r.st.isendPooled(c, dst, tag, data, meta, 8*int64(len(data)))
	err := r.Wait(rq)
	r.st.w.putRequest(rq)
	return err
}

// Recv blocks until a message matching (src, tag) arrives. The request
// handle never escapes, so it returns to the world pool; the message is
// owned by the caller.
func (r *Rank) Recv(c *Comm, src, tag int) (*Message, error) {
	msg, err := r.WaitOwned(r.Irecv(c, src, tag))
	if err != nil {
		return nil, err
	}
	return msg, nil
}

// TryRecv returns a queued message matching (src, tag) if one has already
// arrived; it never blocks.
func (r *Rank) TryRecv(c *Comm, src, tag int) (*Message, bool) {
	st := r.st
	key := matchKey{src: c.WorldRank(src), tag: tag, comm: c.id}
	if ch := st.chans[key]; ch != nil && len(ch.unexpected) > 0 {
		q := ch.unexpected
		msg := q[0]
		copy(q, q[1:])
		q[len(q)-1] = nil
		ch.unexpected = q[:len(q)-1]
		st.retireSingleShot(key, ch)
		return msg, true
	}
	return nil, false
}
