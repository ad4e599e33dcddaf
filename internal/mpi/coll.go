package mpi

import "repro/internal/sim"

// collSM is a per-rank collective state machine. Instead of parking the
// calling process once per hop (goroutine handoff per message), the caller
// parks once per collective and the machine advances inside engine event
// callbacks: each completed request schedules exactly one continuation event
// via Future.NotifyTimer, at the same virtual time and sequence position a
// process wake-up would have occupied, so the engine's event sequence — and
// with it every same-timestamp tie-break and the sim_events counter — is
// identical to the blocking implementation it replaced.
//
// One machine lives on each rankState and is reused across collectives
// (ranks run at most one collective at a time); its requests and messages
// cycle through the world pools, so steady-state collectives allocate
// nothing.
type collSM struct {
	st *rankState
	c  *Comm

	op  int // public operation code (opBarrier..opGather), for park reasons
	sub int // algorithm currently running (allreduce chains reduce→bcast)
	tag int

	n, me, root, vrank int

	phase int
	dist  int // dissemination barrier distance
	mask  int // binomial tree mask (bcast/reduce)
	step  int // allgather ring step
	idx   int // gather receive index
	elems int // per-member block length (allgather/gather)

	data    []float64 // caller buffer (bcast/reduce/allreduce)
	contrib []float64 // caller contribution (gather non-root)
	out     []float64 // caller output (allgather/gather root)
	rop     ReduceOp

	sreq, rreq *Request
	blockedAt  sim.Time

	proc   *sim.Proc // the parked caller, once parked
	active bool
	parked bool
	done   bool
	err    error
}

// startColl readies the rank's pooled machine for one collective.
func (r *Rank) startColl(c *Comm, op int) *collSM {
	me := c.CommRank(r.st.rank)
	if me < 0 {
		panic(errNotMember(r.st.rank, c.id))
	}
	sm := r.st.coll
	if sm == nil {
		sm = &collSM{st: r.st}
		r.st.coll = sm
	}
	if sm.active {
		panic("mpi: concurrent collectives on one rank")
	}
	sm.active = true
	sm.c = c
	sm.op = op
	sm.sub = op
	sm.tag = -op
	sm.n = c.Size()
	sm.me = me
	sm.phase = 0
	sm.root = 0
	sm.vrank = 0
	sm.dist = 0
	sm.mask = 0
	sm.step = 0
	sm.idx = 0
	sm.elems = 0
	return sm
}

// runColl drives the machine from the caller's process context. If it
// cannot finish inline, the caller parks once; the machine's final
// continuation event hands control back via Engine.Unblock.
func (r *Rank) runColl(sm *collSM) error {
	sm.advance()
	if !sm.done {
		sm.proc = r.p
		sm.parked = true
		r.p.Block(sim.ParkReason{Kind: sim.WaitColl, A: int64(sm.op)})
	}
	err := sm.err
	sm.release()
	return err
}

// release returns the machine to its idle state for reuse. Requests still
// in flight on error paths are deliberately not recycled.
func (sm *collSM) release() {
	sm.c = nil
	sm.data = nil
	sm.contrib = nil
	sm.out = nil
	sm.rop = nil
	sm.sreq = nil
	sm.rreq = nil
	sm.proc = nil
	sm.active = false
	sm.parked = false
	sm.done = false
	sm.err = nil
}

// Fire is the continuation: the request the machine blocked on has
// completed, so account the blocked span and keep advancing. A completion
// arriving after the rank crashed is dropped, exactly as a stale process
// wake-up would be.
func (sm *collSM) Fire() {
	if sm.st.dead {
		return
	}
	sm.st.stats.Blocked += sm.st.w.e.Now() - sm.blockedAt
	sm.advance()
	if sm.done && sm.parked {
		sm.st.w.e.Unblock(sm.proc)
	}
}

// advance runs the current algorithm until it blocks or the collective
// (including a chained sub-collective) completes.
func (sm *collSM) advance() {
	for {
		var blocked bool
		switch sm.sub {
		case opBarrier:
			blocked = sm.stepBarrier()
		case opBcast:
			blocked = sm.stepBcast()
		case opReduce:
			blocked = sm.stepReduce()
		case opAllgather:
			blocked = sm.stepAllgather()
		case opGather:
			blocked = sm.stepGather()
		}
		if blocked || sm.done {
			return
		}
	}
}

// finish ends the current algorithm. A successful reduce inside an
// allreduce chains into the broadcast of the result; everything else
// completes the collective.
func (sm *collSM) finish(err error) bool {
	if err == nil && sm.op == opAllreduce && sm.sub == opReduce {
		sm.sub = opBcast
		sm.tag = -opBcast
		sm.root = 0
		sm.vrank = sm.me
		sm.mask = 0
		sm.phase = 0
		return false
	}
	sm.done = true
	sm.err = err
	return false
}

// yield blocks the machine on rq unless it already completed inline — the
// exact condition under which the blocking implementation parked.
func (sm *collSM) yield(rq *Request) bool {
	if rq.fut.Done() {
		return false
	}
	sm.blockedAt = sm.st.w.e.Now()
	rq.fut.NotifyTimer(sm)
	return true
}

// takeRecv consumes the completed receive: the payload is copied into
// `into` (when non-nil) and the pooled message and request are recycled.
func (sm *collSM) takeRecv(into []float64) error {
	rq := sm.rreq
	sm.rreq = nil
	if rq.err != nil {
		return rq.err
	}
	if into != nil {
		copy(into, rq.msg.Data)
	}
	sm.st.w.putMessage(rq.msg)
	sm.st.w.putRequest(rq)
	return nil
}

// takeSend consumes the completed send and recycles the request.
func (sm *collSM) takeSend() error {
	rq := sm.sreq
	sm.sreq = nil
	if rq.err != nil {
		return rq.err
	}
	sm.st.w.putRequest(rq)
	return nil
}

// stepBarrier: dissemination barrier. For dist = 1, 2, 4, ... < n: send to
// (me+dist) mod n, receive from (me-dist) mod n, wait send completion.
func (sm *collSM) stepBarrier() bool {
	st := sm.st
	for {
		switch sm.phase {
		case 0:
			if sm.dist >= sm.n {
				return sm.finish(nil)
			}
			sm.sreq = st.isendColl(sm.c, (sm.me+sm.dist)%sm.n, sm.tag, nil)
			sm.rreq = st.irecvColl(sm.c, (sm.me-sm.dist+sm.n)%sm.n, sm.tag)
			sm.phase = 1
		case 1:
			if sm.yield(sm.rreq) {
				return true
			}
			if err := sm.takeRecv(nil); err != nil {
				return sm.finish(err)
			}
			sm.phase = 2
		case 2:
			if sm.yield(sm.sreq) {
				return true
			}
			if err := sm.takeSend(); err != nil {
				return sm.finish(err)
			}
			sm.dist <<= 1
			sm.phase = 0
		}
	}
}

// stepBcast: binomial tree rotated so the root is virtual rank 0. Non-root
// ranks receive from their parent, then every rank forwards to its children
// in descending mask order with a blocking send each.
func (sm *collSM) stepBcast() bool {
	st := sm.st
	for {
		switch sm.phase {
		case 0:
			if sm.vrank == 0 {
				sm.mask = 1
				for sm.mask < sm.n {
					sm.mask <<= 1
				}
				sm.phase = 2
				continue
			}
			mask := 1
			for sm.vrank&mask == 0 {
				mask <<= 1
			}
			sm.mask = mask
			parent := (sm.vrank - mask + sm.n) % sm.n
			sm.rreq = st.irecvColl(sm.c, (parent+sm.root)%sm.n, sm.tag)
			sm.phase = 1
		case 1:
			if sm.yield(sm.rreq) {
				return true
			}
			if err := sm.takeRecv(sm.data); err != nil {
				return sm.finish(err)
			}
			sm.phase = 2
		case 2:
			sm.mask >>= 1
			if sm.mask < 1 {
				return sm.finish(nil)
			}
			if child := sm.vrank + sm.mask; child < sm.n {
				sm.sreq = st.isendColl(sm.c, (child+sm.root)%sm.n, sm.tag, sm.data)
				sm.phase = 3
			}
		case 3:
			if sm.yield(sm.sreq) {
				return true
			}
			if err := sm.takeSend(); err != nil {
				return sm.finish(err)
			}
			sm.phase = 2
		}
	}
}

// stepReduce: binomial tree. At each mask a rank either sends its partial
// result to its parent and is done, or receives and folds a child's data.
func (sm *collSM) stepReduce() bool {
	st := sm.st
	for {
		switch sm.phase {
		case 0:
			if sm.mask >= sm.n {
				return sm.finish(nil)
			}
			if sm.vrank&sm.mask != 0 {
				parent := sm.vrank - sm.mask
				sm.sreq = st.isendColl(sm.c, (parent+sm.root)%sm.n, sm.tag, sm.data)
				sm.phase = 2
				continue
			}
			if child := sm.vrank + sm.mask; child < sm.n {
				sm.rreq = st.irecvColl(sm.c, (child+sm.root)%sm.n, sm.tag)
				sm.phase = 1
				continue
			}
			sm.mask <<= 1
		case 1:
			if sm.yield(sm.rreq) {
				return true
			}
			rq := sm.rreq
			sm.rreq = nil
			if rq.err != nil {
				return sm.finish(rq.err)
			}
			sm.rop(sm.data, rq.msg.Data)
			st.w.putMessage(rq.msg)
			st.w.putRequest(rq)
			sm.mask <<= 1
			sm.phase = 0
		case 2:
			if sm.yield(sm.sreq) {
				return true
			}
			return sm.finish(sm.takeSend())
		}
	}
}

// stepAllgather: ring. In step s every rank forwards the block originated
// by (me-s) to its right neighbour and receives block (me-s-1) from its
// left neighbour.
func (sm *collSM) stepAllgather() bool {
	st := sm.st
	k := sm.elems
	for {
		switch sm.phase {
		case 0:
			if sm.step >= sm.n-1 {
				return sm.finish(nil)
			}
			blk := (sm.me - sm.step + sm.n) % sm.n
			right := (sm.me + 1) % sm.n
			left := (sm.me - 1 + sm.n) % sm.n
			sm.sreq = st.isendColl(sm.c, right, sm.tag, sm.out[blk*k:(blk+1)*k])
			sm.rreq = st.irecvColl(sm.c, left, sm.tag)
			sm.phase = 1
		case 1:
			if sm.yield(sm.rreq) {
				return true
			}
			inBlk := (sm.me - sm.step - 1 + sm.n) % sm.n
			if err := sm.takeRecv(sm.out[inBlk*k : (inBlk+1)*k]); err != nil {
				return sm.finish(err)
			}
			sm.phase = 2
		case 2:
			if sm.yield(sm.sreq) {
				return true
			}
			if err := sm.takeSend(); err != nil {
				return sm.finish(err)
			}
			sm.step++
			sm.phase = 0
		}
	}
}

// stepGather: non-root ranks send their contribution to the root with a
// blocking send; the root receives from each member in rank order.
func (sm *collSM) stepGather() bool {
	st := sm.st
	for {
		switch sm.phase {
		case 0:
			if sm.me != sm.root {
				sm.sreq = st.isendColl(sm.c, sm.root, sm.tag, sm.contrib)
				sm.phase = 1
				continue
			}
			sm.phase = 2
		case 1:
			if sm.yield(sm.sreq) {
				return true
			}
			return sm.finish(sm.takeSend())
		case 2:
			if sm.idx >= sm.n {
				return sm.finish(nil)
			}
			if sm.idx == sm.root {
				sm.idx++
				continue
			}
			sm.rreq = st.irecvColl(sm.c, sm.idx, sm.tag)
			sm.phase = 3
		case 3:
			if sm.yield(sm.rreq) {
				return true
			}
			k := sm.elems
			if err := sm.takeRecv(sm.out[sm.idx*k : (sm.idx+1)*k]); err != nil {
				return sm.finish(err)
			}
			sm.idx++
			sm.phase = 2
		}
	}
}
