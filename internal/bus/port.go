package bus

import (
	"fmt"
	"iter"

	"repro/internal/sim"
)

// Tag identifies one in-flight transaction on one Port. Tags are the
// port's issue sequence numbers (1, 2, 3, …): unique for the lifetime of
// the port, dense, and strictly increasing in issue order — which is what
// lets the in-order delivery mode reorder completions with nothing more
// than a counter.
type Tag uint64

// Txn is a request queued on a port together with the tag under which its
// completion must be published.
type Txn struct {
	Tag Tag
	Req Request
}

// Completion is one finished transaction as delivered to the master.
type Completion struct {
	Tag  Tag
	Resp Response
}

// PortConfig parameterizes a Port. The zero value is the classic
// single-outstanding, in-order connection (the pre-split "Link").
type PortConfig struct {
	// Depth is the maximum number of outstanding transactions: issued and
	// not yet delivered back to the master. Zero means 1. Depth is the
	// credit pool of the flow control: Issue consumes a credit,
	// TakeCompletion returns it.
	Depth int
	// OutOfOrder selects completion-order delivery: the master receives
	// completions in the order the far side finished them, identified by
	// tag. The default (false) is in-order delivery — the port buffers
	// early completions and releases them in issue order, so a master
	// that ignores tags still sees the classic FIFO contract.
	OutOfOrder bool
}

// Port is a cycle-true, credit-based connection between one master and
// one slave (or an interconnect acting as either). It generalizes the
// original single-outstanding Link to depth-N split transactions: the
// master issues up to Depth tagged requests without waiting, the slave
// side serves a request queue, and completions drain back tagged — in
// issue order or out of order, per PortConfig.
//
// The handshake is carried by two sequence signals: reqSeq counts issued
// requests, ackSeq counts published completions. Because signals commit
// at cycle boundaries, the slave observes a request at the earliest one
// cycle after Issue, and the master observes a completion one cycle
// after Complete — the registered protocol of the paper, per entry.
//
// Payloads ride in two host-side ring buffers alongside the sequence
// signals. This is safe under the parallel tick engine for the same
// reason the Link's single payload slot was: each ring has exactly one
// producer module and one consumer module, the consumer only reads
// entries the committed sequence count covers (written in an earlier
// cycle, on the far side of a commit barrier), and credit-based flow
// control guarantees a producer never overwrites a slot the consumer has
// yet to read (outstanding ≤ Depth = ring capacity).
//
// At Depth 1 with in-order delivery the port is cycle-for-cycle and
// signal-for-signal identical to the historical Link, which is what the
// differential harness pins.
type Port struct {
	name  string
	depth int
	ooo   bool

	reqSeq *sim.Signal[uint64]
	ackSeq *sim.Signal[uint64]

	// Request ring: written by the master (Issue), read by the slave side
	// (Peek/Pop). Capacity depth; occupancy issued-popped.
	reqBuf []Txn
	issued uint64 // master-side: total Issue calls (== reqSeq pending)
	popped uint64 // slave-side: total Pop calls

	// Open transactions on the slave side: popped and not yet completed.
	// Guards Complete against unknown or double-completed tags.
	open map[Tag]struct{}

	// Completion ring: written by the slave side (Complete), read by the
	// master (TakeCompletion). Capacity depth; occupancy completed-drained.
	cmplBuf   []Completion
	completed uint64 // slave-side: total Complete calls (== ackSeq pending)
	drained   uint64 // master-side: ring entries pulled into delivery state

	// Master-side delivery state. In-order mode: completions drained from
	// the ring park in reorder until their tag is next. Out-of-order mode:
	// completions are delivered straight from the ring, in completion
	// order, so ring slots [delivered, drained) are the drained and
	// undelivered ones (see peekDeliverable for why they stay intact).
	reorder   map[Tag]Response
	delivered uint64 // completions handed to the master; frees credits
}

// NewPort creates a port registered with kernel k. The zero PortConfig
// gives the classic single-outstanding in-order connection.
func NewPort(k *sim.Kernel, name string, cfg PortConfig) *Port {
	if cfg.Depth <= 0 {
		cfg.Depth = 1
	}
	return &Port{
		name:    name,
		depth:   cfg.Depth,
		ooo:     cfg.OutOfOrder,
		reqSeq:  sim.NewSignal(k, name+".reqSeq", uint64(0)),
		ackSeq:  sim.NewSignal(k, name+".ackSeq", uint64(0)),
		reqBuf:  make([]Txn, cfg.Depth),
		cmplBuf: make([]Completion, cfg.Depth),
		open:    make(map[Tag]struct{}, cfg.Depth),
		reorder: make(map[Tag]Response, cfg.Depth),
	}
}

// Name returns the port's diagnostic name.
func (p *Port) Name() string { return p.name }

// Depth returns the configured outstanding capacity.
func (p *Port) Depth() int { return p.depth }

// --- master side ---

// Outstanding returns the number of transactions issued and not yet
// delivered back to the master — the credits in use.
func (p *Port) Outstanding() int { return int(p.issued - p.delivered) }

// CanIssue reports whether a credit is free: the master may issue a new
// request this cycle.
func (p *Port) CanIssue() bool { return p.issued-p.delivered < uint64(p.depth) }

// Idle reports whether no transaction is outstanding (including any
// issued earlier in the current cycle). At depth 1 this is exactly the
// historical Link.Idle.
func (p *Port) Idle() bool { return p.issued == p.delivered }

// Busy reports whether at least one transaction is outstanding.
func (p *Port) Busy() bool { return !p.Idle() }

// Issue sends a request and returns its tag. It panics when no credit is
// free; masters are expected to check CanIssue. The slave side can
// observe the request from the next cycle onward. Multiple issues within
// one cycle are legal up to the credit limit and become visible together.
func (p *Port) Issue(r Request) Tag {
	if !p.CanIssue() {
		panic(fmt.Sprintf("bus: Issue on full port %s (depth %d)", p.name, p.depth))
	}
	p.issued++
	tag := Tag(p.issued)
	p.reqBuf[int((p.issued-1)%uint64(p.depth))] = Txn{Tag: tag, Req: r}
	p.reqSeq.Set(p.issued)
	return tag
}

// drainVisible moves committed completion-ring entries into the
// master-side delivery state: the reorder table in in-order mode; in
// out-of-order mode they stay in the ring. Idempotent within a cycle.
func (p *Port) drainVisible() {
	vis := p.ackSeq.Get()
	if p.ooo {
		p.drained = vis
		return
	}
	for p.drained < vis {
		c := p.cmplBuf[int(p.drained%uint64(p.depth))]
		p.drained++
		p.reorder[c.Tag] = c.Resp
	}
}

// peekDeliverable returns the completion TakeCompletion would deliver,
// without consuming it.
//
// In out-of-order mode that is completion number delivered (counting
// from 0), read from its ring slot delivered%depth while it is drained.
// The slot still holds it: the next completion written there is number
// delivered+depth, and publishing it needs issued > delivered+depth,
// which the credit check in Issue forbids (issued−delivered ≤ depth
// until this completion is delivered and frees its credit).
func (p *Port) peekDeliverable() (Completion, bool) {
	p.drainVisible()
	if p.ooo {
		if p.delivered == p.drained {
			return Completion{}, false
		}
		return p.cmplBuf[int(p.delivered%uint64(p.depth))], true
	}
	next := Tag(p.delivered + 1)
	resp, ok := p.reorder[next]
	if !ok {
		return Completion{}, false
	}
	return Completion{Tag: next, Resp: resp}, true
}

// HasCompletion reports whether TakeCompletion would deliver one. Unlike
// a raw "anything completed?" probe it respects ordering: in in-order
// mode a completion blocked behind an earlier outstanding tag is not yet
// deliverable.
func (p *Port) HasCompletion() bool {
	_, ok := p.peekDeliverable()
	return ok
}

// PeekCompletion returns the next deliverable completion without
// consuming it — arbiters inspect response demand this way before
// committing a response-phase grant.
func (p *Port) PeekCompletion() (Completion, bool) { return p.peekDeliverable() }

// TakeCompletion delivers the next completion exactly once and returns
// its credit to the pool. ok is false while nothing is deliverable.
func (p *Port) TakeCompletion() (Completion, bool) {
	c, ok := p.peekDeliverable()
	if !ok {
		return Completion{}, false
	}
	if !p.ooo {
		delete(p.reorder, c.Tag)
	}
	p.delivered++
	return c, true
}

// Completions iterates over every completion deliverable this cycle, in
// delivery order, consuming each. Masters with several transactions in
// flight drain their port once per cycle with this.
func (p *Port) Completions() iter.Seq2[Tag, Response] {
	return func(yield func(Tag, Response) bool) {
		for {
			c, ok := p.TakeCompletion()
			if !ok {
				return
			}
			if !yield(c.Tag, c.Resp) {
				return
			}
		}
	}
}

// Response delivers the next completion's response, dropping the tag — a
// convenience for single-outstanding masters, identical to the
// historical Link.Response contract at depth 1.
func (p *Port) Response() (Response, bool) {
	c, ok := p.TakeCompletion()
	return c.Resp, ok
}

// --- slave side ---

// Pending reports whether at least one unserved request is visible to
// the slave side (used by arbiters and NextWake to inspect demand).
func (p *Port) Pending() bool { return p.popped < p.reqSeq.Get() }

// QueueLen returns the number of visible unserved requests.
func (p *Port) QueueLen() int { return int(p.reqSeq.Get() - p.popped) }

// Peek returns the request at the head of the visible queue without
// popping it. ok is false when the queue is empty — callers can never
// read a stale request (the failure mode of the old Pending/PeekRequest
// pair, where a PeekRequest after the pop returned the previous
// payload).
func (p *Port) Peek() (Request, bool) {
	if p.popped >= p.reqSeq.Get() {
		return Request{}, false
	}
	return p.reqBuf[int(p.popped%uint64(p.depth))].Req, true
}

// Pop removes and returns the head of the visible request queue. The
// slave (or interconnect) must later publish a completion for the
// returned tag via Complete.
func (p *Port) Pop() (Txn, bool) {
	if p.popped >= p.reqSeq.Get() {
		return Txn{}, false
	}
	tx := p.reqBuf[int(p.popped%uint64(p.depth))]
	p.popped++
	p.open[tx.Tag] = struct{}{}
	return tx, true
}

// CanAccept reports whether the port has room for another request to be
// issued into it — the interconnect's credit check before an address
// phase targeting this (slave) port.
func (p *Port) CanAccept() bool { return p.CanIssue() }

// InService reports whether tag was popped and not yet completed, i.e.
// whether the slave may Complete it.
func (p *Port) InService(tag Tag) bool {
	_, ok := p.open[tag]
	return ok
}

// Complete publishes the completion of a popped transaction. Completions
// may be published in any order relative to Pop; the master-side
// delivery mode decides the order the master sees. The master can
// observe the completion from the next cycle onward. Completing a tag
// that was never popped, or twice, panics.
func (p *Port) Complete(tag Tag, resp Response) {
	if _, ok := p.open[tag]; !ok {
		panic(fmt.Sprintf("bus: Complete of unknown tag %d on port %s", tag, p.name))
	}
	delete(p.open, tag)
	p.cmplBuf[int(p.completed%uint64(p.depth))] = Completion{Tag: tag, Resp: resp}
	p.completed++
	p.ackSeq.Set(p.completed)
}
