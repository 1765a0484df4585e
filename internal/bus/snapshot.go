package bus

import (
	"fmt"

	"repro/internal/snapshot"
)

// This file makes the transaction layer snapshottable: ports (the only
// owners of sim.Signals in the tree), both interconnects, and the
// arbiters. Requests and responses get exported walks because every FSM
// upstream (memories, caches, DMA, ISS bridge) parks them in its own
// state.

// Walk walks the request's fields through c.
func (r *Request) Walk(c *snapshot.Codec) {
	snapshot.Byte(c, &r.Op)
	c.Int(&r.SM)
	c.U32(&r.VPtr)
	c.U32(&r.Data)
	c.U32(&r.Dim)
	snapshot.Byte(c, &r.DType)
	c.U32s(&r.Burst)
	c.Int(&r.Master)
	c.Bool(&r.Excl)
	c.Bool(&r.WB)
}

// Walk walks the response's fields through c.
func (r *Response) Walk(c *snapshot.Codec) {
	snapshot.Byte(c, &r.Err)
	c.U32(&r.Data)
	c.U32(&r.VPtr)
	c.U32s(&r.Burst)
}

func (t *Txn) walk(c *snapshot.Codec) {
	snapshot.Word(c, &t.Tag)
	t.Req.Walk(c)
}

func (q *Completion) walk(c *snapshot.Codec) {
	snapshot.Word(c, &q.Tag)
	q.Resp.Walk(c)
}

func (s *Stats) walk(c *snapshot.Codec) {
	c.U64(&s.Transactions)
	c.U64(&s.Words)
	c.U64(&s.BusyCycles)
	for i := range s.PerOp {
		c.U64(&s.PerOp[i])
	}
	snapshot.Slice(c, &s.PerMaster, c.U64)
	snapshot.Slice(c, &s.PerSlave, c.U64)
	c.U64(&s.NoSlave)
	snapshot.Slice(c, &s.RespGrants, c.U64)
}

// Arbiter state markers. config.Build only ever wires these two
// policies; a custom arbiter round-trips as "opaque" and restore
// verifies the rebuilt system uses the same kind.
const (
	arbOpaque = uint8(iota)
	arbRoundRobin
	arbFixedPriority
)

var arbKinds = [...]string{"an opaque arbiter", "round-robin", "fixed-priority"}

// walkArbiter walks a's marker and, for round-robin, its position. The
// marker must name the kind of arbiter the system was built with.
func walkArbiter(c *snapshot.Codec, a Arbiter) {
	kind := arbOpaque
	switch a.(type) {
	case *RoundRobin:
		kind = arbRoundRobin
	case FixedPriority, *FixedPriority:
		kind = arbFixedPriority
	}
	built := kind
	c.U8(&kind)
	if int(kind) >= len(arbKinds) {
		c.Fail(fmt.Errorf("unknown arbiter marker %d", kind))
		return
	}
	if kind != built {
		c.Fail(fmt.Errorf("arbiter mismatch: snapshot has %s, system has %s", arbKinds[kind], a.Name()))
		return
	}
	if rr, ok := a.(*RoundRobin); ok {
		c.Int(&rr.last)
		c.Bool(&rr.init)
	}
}

// WalkState walks the port: its credit counters, the live entries of
// both rings, open/reorder tracking, and the committed values of its two
// kernel signals. Only live ring slots travel, so the snapshot does not
// leak stale host memory. The port must have been rebuilt with the same
// name, depth, and delivery mode; geometry skew is an error, never
// silently absorbed.
func (p *Port) WalkState(c *snapshot.Codec) error {
	name, depth, ooo := p.name, p.depth, p.ooo
	c.String(&name)
	c.Int(&depth)
	c.Bool(&ooo)
	if name != p.name || depth != p.depth || ooo != p.ooo {
		return c.Fail(fmt.Errorf("port geometry mismatch: snapshot has %s/depth=%d/ooo=%v, system has %s/depth=%d/ooo=%v",
			name, depth, ooo, p.name, p.depth, p.ooo))
	}
	c.U64(&p.issued)
	c.U64(&p.popped)
	c.U64(&p.completed)
	c.U64(&p.drained)
	c.U64(&p.delivered)
	reqSeq, ackSeq := p.reqSeq.Get(), p.ackSeq.Get()
	c.U64(&reqSeq)
	c.U64(&ackSeq)
	if p.issued < p.popped || p.issued-p.popped > uint64(p.depth) {
		return c.Fail(fmt.Errorf("port %s: inconsistent request ring (issued=%d popped=%d depth=%d)", p.name, p.issued, p.popped, p.depth))
	}
	if p.completed < p.drained || p.completed-p.drained > uint64(p.depth) {
		return c.Fail(fmt.Errorf("port %s: inconsistent completion ring (completed=%d drained=%d depth=%d)", p.name, p.completed, p.drained, p.depth))
	}
	if c.Loading() {
		clear(p.reqBuf)
		clear(p.cmplBuf)
	}
	// Live ring entries, oldest first.
	for i := p.popped; i < p.issued && c.Err() == nil; i++ {
		p.reqBuf[i%uint64(p.depth)].walk(c)
	}
	for i := p.drained; i < p.completed && c.Err() == nil; i++ {
		p.cmplBuf[i%uint64(p.depth)].walk(c)
	}
	snapshot.Map(c, &p.open, func(Tag, struct{}) struct{} { return struct{}{} })
	snapshot.Map(c, &p.reorder, func(_ Tag, r Response) Response {
		r.Walk(c)
		return r
	})
	snapshot.Slice(c, &p.oooQ, func(q *Completion) { q.walk(c) })
	if c.Loading() && c.Err() == nil {
		p.reqSeq.Restore(reqSeq)
		p.ackSeq.Restore(ackSeq)
	}
	return c.Err()
}

func (s *pendSrc) walk(c *snapshot.Codec) {
	c.Int(&s.master)
	snapshot.Word(c, &s.tag)
}

func walkPend(c *snapshot.Codec, m *map[Tag]pendSrc) {
	snapshot.Map(c, m, func(_ Tag, s pendSrc) pendSrc {
		s.walk(c)
		return s
	})
}

// walkTopology walks an interconnect's master and slave counts, which
// must match the rebuilt one's.
func walkTopology(c *snapshot.Codec, kind string, masters, slaves int) {
	nm, ns := masters, slaves
	c.Int(&nm)
	c.Int(&ns)
	if nm != masters || ns != slaves {
		c.Fail(fmt.Errorf("%s topology mismatch: snapshot has %dx%d, system has %dx%d", kind, nm, ns, masters, slaves))
	}
}

// WalkState walks the bus: the channel state (including an occupied
// hold), the per-slave pending maps, the arbiters, and the stats.
// Topology (masters, slaves, word cycles, snoop hook) is rebuilt from
// config; the outstanding count is derived from the pending maps.
func (b *Bus) WalkState(c *snapshot.Codec) error {
	walkTopology(c, "bus", len(b.masters), len(b.slaves))
	snapshot.Byte(c, &b.state)
	c.U32(&b.counter)
	b.req.Walk(c)
	b.reqFrom.walk(c)
	held := b.held + 1 // 0: free
	c.Int(&held)
	if held < 0 || held > len(b.slaves) {
		return c.Fail(fmt.Errorf("bus held for slave %d of %d", held-1, len(b.slaves)))
	}
	for i := range b.pend {
		walkPend(c, &b.pend[i])
	}
	if c.Loading() {
		b.held = held - 1
		b.outstanding = 0
		for _, m := range b.pend {
			b.outstanding += len(m)
		}
	}
	walkArbiter(c, b.arb)
	walkArbiter(c, b.respArb())
	b.stats.walk(c)
	return c.Err()
}

// WalkState walks the crossbar: every lane's request and response
// engines and pending map, the per-lane arbiters, the stats.
func (x *Crossbar) WalkState(c *snapshot.Codec) error {
	walkTopology(c, "crossbar", len(x.masters), len(x.slaves))
	for i := range x.lanes {
		l := &x.lanes[i]
		snapshot.Byte(c, &l.rqState)
		c.U32(&l.rqCounter)
		l.rqCur.Walk(c)
		l.rqFrom.walk(c)
		snapshot.Byte(c, &l.rsState)
		c.U32(&l.rsCounter)
		walkPend(c, &l.pend)
	}
	for _, a := range x.arbs {
		walkArbiter(c, a)
	}
	x.stats.walk(c)
	return c.Err()
}
