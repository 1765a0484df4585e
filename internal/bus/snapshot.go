package bus

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/snapshot"
)

// This file makes the transaction layer snapshottable: ports (the only
// owners of sim.Signals in the tree), both interconnects, and the
// arbiters. Requests and responses get exported walks because every FSM
// upstream (memories, caches, DMA, ISS bridge) parks them in its own
// state.

// Walk walks the request's fields through c. A loaded op must be one of
// the defined operations: masters issue no other, and the interconnect
// counts requests per op.
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
	if int(r.Op) >= NumOps {
		c.Fail(fmt.Errorf("request op %d is not an operation", r.Op))
	}
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

// walkStats walks the counters; the per-master and per-slave tables must
// have the interconnect's topology.
func (f *fabric) walkStats(c *snapshot.Codec) {
	s := &f.stats
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
	if len(s.PerMaster) != len(f.masters) || len(s.PerSlave) != len(f.slaves) || len(s.RespGrants) != len(f.slaves) {
		c.Fail(fmt.Errorf("%s: counters for %d masters and %d/%d slaves, topology is %dx%d",
			f.name, len(s.PerMaster), len(s.PerSlave), len(s.RespGrants), len(f.masters), len(f.slaves)))
	}
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
// silently absorbed. Whether the loaded counters and tables agree is
// Check's to say.
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
	p.walkOpen(c)
	p.walkReorder(c)
	p.walkUndelivered(c)
	if c.Loading() && c.Err() == nil {
		p.reqSeq.Restore(reqSeq)
		p.ackSeq.Restore(ackSeq)
	}
	return c.Err()
}

// walkOpen walks the open table as snapshot.Map walks a set: the count,
// then the tags in ascending order. A loaded list must fit the table
// and name distinct nonzero tags: a zero tag would read as a free slot
// and a duplicate would take a second one.
func (p *Port) walkOpen(c *snapshot.Codec) {
	n := uint32(p.open.n)
	c.U32(&n)
	if !c.Loading() {
		tags := make([]Tag, 0, n)
		for _, tag := range p.open.slots {
			if tag != 0 {
				tags = append(tags, tag)
			}
		}
		slices.Sort(tags)
		for i := range tags {
			snapshot.Word(c, &tags[i])
		}
		return
	}
	clear(p.open.slots)
	p.open.n = 0
	if uint64(n) > uint64(p.depth) {
		c.Fail(fmt.Errorf("port %s: %d open transactions, depth %d", p.name, n, p.depth))
		return
	}
	for range n {
		var tag Tag
		snapshot.Word(c, &tag)
		switch {
		case c.Err() != nil:
			return
		case tag == 0:
			c.Fail(fmt.Errorf("port %s: open tag 0", p.name))
			return
		case p.open.find(tag) >= 0:
			c.Fail(fmt.Errorf("port %s: open tag %d listed twice", p.name, tag))
			return
		}
		p.open.add(tag)
	}
}

// walkReorder walks the reorder table as snapshot.Map walks a map: the
// count, then (tag, response) pairs in ascending tag order. A loaded
// list must fit the table and name distinct tags in the window
// (delivered, issued], where each has a slot of its own; any other tag
// would overwrite a parked completion or be mistaken for a free slot.
func (p *Port) walkReorder(c *snapshot.Codec) {
	d := uint64(p.depth)
	n := uint32(p.early)
	c.U32(&n)
	if !c.Loading() {
		tags := make([]Tag, 0, n)
		for _, e := range p.reorder {
			if e.Tag != 0 {
				tags = append(tags, e.Tag)
			}
		}
		slices.Sort(tags)
		for _, tag := range tags {
			p.reorder[uint64(tag)%d].walk(c)
		}
		return
	}
	clear(p.reorder)
	p.early = 0
	if uint64(n) > d {
		c.Fail(fmt.Errorf("port %s: %d reordered completions, depth %d", p.name, n, p.depth))
		return
	}
	for range n {
		var e Completion
		e.walk(c)
		slot := &p.reorder[uint64(e.Tag)%d]
		switch {
		case c.Err() != nil:
			return
		case e.Tag == 0:
			c.Fail(fmt.Errorf("port %s: reordered completion under tag 0", p.name))
			return
		case slot.Tag == e.Tag:
			c.Fail(fmt.Errorf("port %s: reordered tag %d listed twice", p.name, e.Tag))
			return
		case uint64(e.Tag) <= p.delivered || uint64(e.Tag) > p.issued:
			c.Fail(fmt.Errorf("port %s: reordered tag %d outside the undelivered tags (%d, %d]", p.name, e.Tag, p.delivered, p.issued))
			return
		case slot.Tag != 0:
			c.Fail(fmt.Errorf("port %s: reordered tags %d and %d share slot %d", p.name, slot.Tag, e.Tag, uint64(e.Tag)%d))
			return
		}
		*slot = e
		p.early++
	}
}

// walkUndelivered walks the section's out-of-order queue: count first,
// then an out-of-order port's drained and undelivered completions, ring
// slots [delivered, drained), oldest first. An in-order port's queue is
// empty (its undelivered completions wait in reorder). The count must
// be the one the counters give, or loading would write ring slots that
// hold live completions; counters out of order are Check's to reject.
func (p *Port) walkUndelivered(c *snapshot.Codec) {
	var want uint64
	if p.ooo && p.drained > p.delivered {
		want = p.drained - p.delivered
	}
	n := uint32(want)
	c.U32(&n)
	if uint64(n) != want {
		c.Fail(p.countErr(uint64(p.early) + uint64(n)))
		return
	}
	for i := range want {
		if c.Err() != nil {
			return
		}
		p.cmplBuf[(p.delivered+i)%uint64(p.depth)].walk(c)
	}
}

// countErr is the error for a port whose open table or undelivered
// completions, undelivered of them, disagree with its counters.
func (p *Port) countErr(undelivered uint64) error {
	return fmt.Errorf("port %s: %d open and %d undelivered transactions, counters say %d and %d",
		p.name, p.open.n, undelivered, p.popped-p.completed, p.drained-p.delivered)
}

// Check reports whether the port holds a state a run leaves between
// cycles: every transaction is issued, popped, completed, drained and
// delivered in that order, at most depth of them between the first and
// the last step; the signals carry the counters they commit; queued
// requests carry their issue tags; and the open and undelivered tables
// hold exactly the transactions the counters say.
func (p *Port) Check() error {
	d := uint64(p.depth)
	if p.issued < p.popped || p.popped < p.completed || p.completed < p.drained || p.drained < p.delivered ||
		p.issued-p.delivered > d || p.reqSeq.Get() != p.issued || p.ackSeq.Get() != p.completed {
		return fmt.Errorf("port %s: inconsistent counters (issued=%d popped=%d completed=%d drained=%d delivered=%d reqSeq=%d ackSeq=%d depth=%d)",
			p.name, p.issued, p.popped, p.completed, p.drained, p.delivered, p.reqSeq.Get(), p.ackSeq.Get(), p.depth)
	}
	for i := p.popped; i < p.issued; i++ {
		if t := p.reqBuf[i%d].Tag; t != Tag(i+1) {
			return fmt.Errorf("port %s: request %d queued under tag %d", p.name, i+1, t)
		}
	}
	// An out-of-order port's undelivered completions are ring slots the
	// counters delimit; only an in-order port tables them.
	undelivered := uint64(p.early)
	if p.ooo {
		undelivered += p.drained - p.delivered
	}
	if uint64(p.open.n) != p.popped-p.completed || undelivered != p.drained-p.delivered {
		return p.countErr(undelivered)
	}
	return nil
}

// Serving returns the number of requests popped and not yet completed:
// the transactions the slave side holds in service.
func (p *Port) Serving() int { return p.open.n }

// Holds reports whether tag is one of the port's outstanding
// transactions, issued and not yet delivered: queued, in service,
// completed or awaiting delivery. It is meant for the Checks of the
// modules on either end, and answers only for a port that passes its
// own Check (which also makes queued tags the issue numbers).
func (p *Port) Holds(tag Tag) bool {
	if Tag(p.popped) < tag && tag <= Tag(p.issued) {
		return true
	}
	// Completed and undelivered: ring slots [delivered, completed) on an
	// out-of-order port; [drained, completed) and the reorder table on an
	// in-order one.
	first := p.drained
	if p.ooo {
		first = p.delivered
	}
	for i := first; i < p.completed; i++ {
		if p.cmplBuf[i%uint64(p.depth)].Tag == tag {
			return true
		}
	}
	return tag != 0 && p.reorder[uint64(tag)%uint64(p.depth)].Tag == tag || p.open.find(tag) >= 0
}

func (s *pendSrc) walk(c *snapshot.Codec) {
	c.Int(&s.master)
	snapshot.Word(c, &s.tag)
}

// walk walks the channel's state and word counter and, if it carries
// requests, the request on it and its origin. A loaded state must be
// free or a transfer the channel carries.
func (ch *channel) walk(c *snapshot.Codec, reqs, resps bool) {
	snapshot.Byte(c, &ch.state)
	c.U32(&ch.counter)
	if reqs {
		ch.req.Walk(c)
		ch.from.walk(c)
	}
	if ch.state != chIdle && (ch.state != chReqXfer || !reqs) && (ch.state != chRespXfer || !resps) {
		c.Fail(fmt.Errorf("channel state %d is not one of this channel's states", ch.state))
	}
}

// checkOrigin reports an error unless src names a request its master
// has popped and not completed: routing a response back to any other
// would panic.
func (f *fabric) checkOrigin(src pendSrc) error {
	switch {
	case src.master < 0 || src.master >= len(f.masters):
		return fmt.Errorf("%s: request from master %d of %d", f.name, src.master, len(f.masters))
	case !f.masters[src.master].InService(src.tag):
		return fmt.Errorf("%s: request from master %d under tag %d, which its port has not handed out", f.name, src.master, src.tag)
	}
	return nil
}

// pendingFrom returns the number of pending entries whose request came
// from src.
func (f *fabric) pendingFrom(src pendSrc) int {
	n := 0
	for _, pend := range f.pend {
		for _, s := range pend {
			if s == src {
				n++
			}
		}
	}
	return n
}

// checkInFlight reports an error unless a request moving on ch toward
// slave sm is one its master waits on and no pending entry also came
// from, and that slave's port has the credit the grant reserved for it.
func (f *fabric) checkInFlight(ch *channel, sm int) error {
	switch {
	case ch.state != chReqXfer:
		return nil
	case sm >= 0 && sm < len(f.slaves) && !f.slaves[sm].CanAccept():
		return fmt.Errorf("%s: request in flight to slave %d, whose port is full", f.name, sm)
	case f.pendingFrom(ch.from) != 0:
		return fmt.Errorf("%s: request in flight from master %d under tag %d, which is also pending", f.name, ch.from.master, ch.from.tag)
	}
	return f.checkOrigin(ch.from)
}

// checkPend reports an error unless every pending entry passes
// checkOrigin and came from a request no other entry came from, and
// each slave's pending table holds exactly the transactions outstanding
// on its port: a completion with no entry would have no origin to route
// back to, and the second of two completions routed to one origin would
// complete a tag its master no longer serves.
func (f *fabric) checkPend() error {
	for si, pend := range f.pend {
		for stag, src := range pend {
			if err := f.checkOrigin(src); err != nil {
				return err
			}
			if n := f.pendingFrom(src); n != 1 {
				return fmt.Errorf("%s: %d requests pending from master %d under tag %d", f.name, n, src.master, src.tag)
			}
			if !f.slaves[si].Holds(stag) {
				return fmt.Errorf("%s: slave %d tag %d pending, which its port does not hold", f.name, si, stag)
			}
		}
		if n := f.slaves[si].Outstanding(); len(pend) != n {
			return fmt.Errorf("%s: %d requests pending at slave %d, whose port holds %d", f.name, len(pend), si, n)
		}
	}
	return nil
}

// walkPend walks slave si's pending table.
func (f *fabric) walkPend(c *snapshot.Codec, si int) {
	f.outstanding -= len(f.pend[si])
	snapshot.Map(c, &f.pend[si], func(_ Tag, s pendSrc) pendSrc {
		s.walk(c)
		return s
	})
	f.outstanding += len(f.pend[si])
}

// walkTopology walks an interconnect's master and slave counts, which
// must match the rebuilt one's.
func (f *fabric) walkTopology(c *snapshot.Codec, kind string) {
	nm, ns := len(f.masters), len(f.slaves)
	c.Int(&nm)
	c.Int(&ns)
	if nm != len(f.masters) || ns != len(f.slaves) {
		c.Fail(fmt.Errorf("%s topology mismatch: snapshot has %dx%d, system has %dx%d", kind, nm, ns, len(f.masters), len(f.slaves)))
	}
}

// WalkState walks the bus: the channel (including an occupied hold),
// the per-slave pending tables, the arbiters, and the stats. Topology
// (masters, slaves, word cycles, snoop hook) is rebuilt from config.
func (b *Bus) WalkState(c *snapshot.Codec) error {
	b.walkTopology(c, "bus")
	b.ch.walk(c, true, true)
	held := b.held + 1 // 0: free
	c.Int(&held)
	if held < 0 || held > len(b.slaves) {
		return c.Fail(fmt.Errorf("bus held for slave %d of %d", held-1, len(b.slaves)))
	}
	for si := range b.pend {
		b.walkPend(c, si)
	}
	if c.Loading() {
		b.held = held - 1
	}
	walkArbiter(c, b.arb)
	walkArbiter(c, b.respArb())
	b.walkStats(c)
	return c.Err()
}

// WalkState walks the crossbar: every lane's request and response
// channels and pending table, the per-lane arbiters, the stats.
func (x *Crossbar) WalkState(c *snapshot.Codec) error {
	x.walkTopology(c, "crossbar")
	for si := range x.lanes {
		ln := &x.lanes[si]
		ln.rq.walk(c, true, false)
		ln.rs.walk(c, false, true)
		x.walkPend(c, si)
	}
	for _, a := range x.arbs {
		walkArbiter(c, a)
	}
	x.walkStats(c)
	return c.Err()
}

// Check reports an error unless every pending and in-flight request is
// one its master waits on and its slave's port holds (see checkPend and
// checkInFlight).
func (b *Bus) Check() error { return cmp.Or(b.checkPend(), b.checkInFlight(&b.ch, b.ch.req.SM)) }

// Check is the crossbar's Bus.Check, over every lane, and also rejects
// two lanes moving requests from one master transaction.
func (x *Crossbar) Check() error {
	err := x.checkPend()
	for si := range x.lanes {
		rq := &x.lanes[si].rq
		err = cmp.Or(err, x.checkInFlight(rq, si))
		for _, other := range x.lanes[si+1:] {
			if rq.state == chReqXfer && other.rq.state == chReqXfer && other.rq.from == rq.from {
				err = cmp.Or(err, fmt.Errorf("%s: requests from master %d under tag %d in flight on two lanes", x.name, rq.from.master, rq.from.tag))
			}
		}
	}
	return err
}
