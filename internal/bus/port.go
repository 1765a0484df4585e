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
// signals. Tick order stays unobservable for the same reason it did
// with the Link's single payload slot: each ring has exactly one
// producer module and one consumer module, the consumer only reads
// entries the committed sequence count covers (written in an earlier
// cycle, before a commit), and credit-based flow control guarantees a
// producer never overwrites a slot the consumer has yet to read
// (outstanding ≤ Depth = ring capacity).
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
	open tagTable

	// Completion ring: written by the slave side (Complete), read by the
	// master (TakeCompletion). Capacity depth; occupancy completed-drained.
	cmplBuf   []Completion
	completed uint64 // slave-side: total Complete calls (== ackSeq pending)
	drained   uint64 // master-side: ring entries pulled into delivery state

	// Master-side delivery state. In-order mode: completions drained from
	// the ring park in reorder until their tag is next. Out-of-order mode:
	// completions are delivered straight from the ring, in completion
	// order, so ring slots [delivered, drained) are the drained and
	// undelivered ones (see peek for why they stay intact).
	//
	// reorder has depth slots; a completion parks in slot tag%depth, and
	// Tag 0 marks a free slot. No two parked tags share a slot: every
	// parked tag is issued and undelivered, so it lies in the window
	// (delivered, issued], which the credit check keeps at most depth
	// wide. early counts the parked completions.
	reorder   []Completion
	early     int
	delivered uint64 // completions handed to the master; frees credits
}

// tagTable is the set of a port's open tags: depth slots, Tag 0 marking
// a free one. A tag goes into its home slot tag%depth, or on a
// collision the next free slot after it, wrapping; lookups scan from the
// home slot. An in-order port always finds its home slot free, because
// open tags are undelivered ones and lie in a window of at most depth
// tags. On an out-of-order port, delivery returns credits out of issue
// order, so open tags can collide: at depth 4 the live set {1, 5, 6, 7}
// puts 1 and 5 both home in slot 1. The table never overflows, because
// open ≤ outstanding ≤ depth.
type tagTable struct {
	slots []Tag
	n     int
}

// find returns tag's slot, or -1 when tag is not in the table. Removal
// leaves holes in collision chains, so a miss scans every slot; only a
// protocol violation or a Check looks up a tag that is not there.
func (t *tagTable) find(tag Tag) int {
	if tag == 0 {
		return -1
	}
	d := uint64(len(t.slots))
	for i, j := uint64(0), uint64(tag)%d; i < d; i++ {
		if t.slots[j] == tag {
			return int(j)
		}
		if j++; j == d {
			j = 0
		}
	}
	return -1
}

// add puts a nonzero tag that is not in the table into the first free
// slot from its home slot on.
func (t *tagTable) add(tag Tag) {
	d := uint64(len(t.slots))
	for i, j := uint64(0), uint64(tag)%d; i < d; i++ {
		if t.slots[j] == 0 {
			t.slots[j] = tag
			t.n++
			return
		}
		if j++; j == d {
			j = 0
		}
	}
	panic(fmt.Sprintf("bus: open tag %d finds its table of %d full", tag, d))
}

// remove takes tag out of the table and reports whether it was there.
func (t *tagTable) remove(tag Tag) bool {
	i := t.find(tag)
	if i < 0 {
		return false
	}
	t.slots[i] = 0
	t.n--
	return true
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
		open:    tagTable{slots: make([]Tag, cfg.Depth)},
		reorder: make([]Completion, cfg.Depth),
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

// Ready reports whether the master side may have a completion to
// deliver: some published completion is not yet delivered. It is the
// one compare every poll of the port makes first. The counters keep
// delivered ≤ drained ≤ ackSeq (drainVisible moves drained up to the
// committed ackSeq, delivery moves delivered up to drained, and Check
// holds a restored port to the same order), so when delivered equals
// the committed ackSeq there is nothing for drainVisible to move and
// no drained completion waiting: nothing is deliverable. The converse
// does not hold — an in-order port may hold completions blocked behind
// an earlier tag — so a true Ready sends the poll down its slow path.
func (p *Port) Ready() bool { return p.delivered != p.ackSeq.Get() }

// drainVisible moves committed completion-ring entries into the
// master-side delivery state: the reorder table in in-order mode; in
// out-of-order mode they stay in the ring. Idempotent within a cycle.
func (p *Port) drainVisible() {
	vis := p.ackSeq.Get()
	if p.ooo {
		p.drained = vis
		return
	}
	d := uint64(p.depth)
	for p.drained < vis {
		c := p.cmplBuf[p.drained%d]
		p.drained++
		p.reorder[uint64(c.Tag)%d] = c
		p.early++
	}
}

// The polls below are an inlinable Ready guard in front of an
// out-of-line slow path, so a master polling a port with nothing to
// deliver pays one compare and no call. The slow paths write the
// completion through a pointer because a by-value result would push
// the guards over the inlining budget; CI builds the polling callers
// with -gcflags=-m and fails if a guard stops inlining into them.

// peek is the slow path of every poll Ready lets through: it reports
// whether a completion is deliverable and, if c is not nil, copies it
// to *c without consuming it.
//
// In out-of-order mode that is completion number delivered (counting
// from 0), read from its ring slot delivered%depth while it is drained.
// The slot still holds it: the next completion written there is number
// delivered+depth, and publishing it needs issued > delivered+depth,
// which the credit check in Issue forbids (issued−delivered ≤ depth
// until this completion is delivered and frees its credit).
//
//go:noinline
func (p *Port) peek(c *Completion) bool {
	p.drainVisible()
	var next *Completion
	if p.ooo {
		if p.delivered == p.drained {
			return false
		}
		next = &p.cmplBuf[p.delivered%uint64(p.depth)]
	} else {
		tag := Tag(p.delivered + 1)
		if next = &p.reorder[uint64(tag)%uint64(p.depth)]; next.Tag != tag {
			return false
		}
	}
	if c != nil {
		*c = *next
	}
	return true
}

// take is TakeCompletion's slow path: peek, then consume.
//
//go:noinline
func (p *Port) take(c *Completion) bool {
	if !p.peek(c) {
		return false
	}
	if !p.ooo {
		p.reorder[uint64(c.Tag)%uint64(p.depth)] = Completion{}
		p.early--
	}
	p.delivered++
	return true
}

// response is Response's slow path.
//
//go:noinline
func (p *Port) response(r *Response) bool {
	var c Completion
	ok := p.take(&c)
	*r = c.Resp
	return ok
}

// HasCompletion reports whether TakeCompletion would deliver one. Unlike
// a raw "anything completed?" probe it respects ordering: in in-order
// mode a completion blocked behind an earlier outstanding tag is not yet
// deliverable.
func (p *Port) HasCompletion() bool { return p.Ready() && p.peek(nil) }

// PeekCompletion returns the next deliverable completion without
// consuming it — arbiters inspect response demand this way before
// committing a response-phase grant.
func (p *Port) PeekCompletion() (c Completion, ok bool) {
	if p.Ready() {
		ok = p.peek(&c)
	}
	return
}

// TakeCompletion delivers the next completion exactly once and returns
// its credit to the pool. ok is false while nothing is deliverable.
func (p *Port) TakeCompletion() (c Completion, ok bool) {
	if p.Ready() {
		ok = p.take(&c)
	}
	return
}

// Completions iterates over every completion deliverable this cycle, in
// delivery order, consuming each. Masters with several transactions in
// flight drain their port once per cycle with this.
func (p *Port) Completions() iter.Seq2[Tag, Response] {
	return func(yield func(Tag, Response) bool) {
		for p.Ready() {
			var c Completion
			if !p.take(&c) || !yield(c.Tag, c.Resp) {
				return
			}
		}
	}
}

// Response delivers the next completion's response, dropping the tag — a
// convenience for single-outstanding masters, identical to the
// historical Link.Response contract at depth 1.
func (p *Port) Response() (r Response, ok bool) {
	if p.Ready() {
		ok = p.response(&r)
	}
	return
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
	p.open.add(tx.Tag)
	return tx, true
}

// CanAccept reports whether the port has room for another request to be
// issued into it — the interconnect's credit check before an address
// phase targeting this (slave) port.
func (p *Port) CanAccept() bool { return p.CanIssue() }

// InService reports whether tag was popped and not yet completed, i.e.
// whether the slave may Complete it.
func (p *Port) InService(tag Tag) bool { return p.open.find(tag) >= 0 }

// Complete publishes the completion of a popped transaction. Completions
// may be published in any order relative to Pop; the master-side
// delivery mode decides the order the master sees. The master can
// observe the completion from the next cycle onward. Completing a tag
// that was never popped, or twice, panics.
func (p *Port) Complete(tag Tag, resp Response) {
	if !p.open.remove(tag) {
		panic(fmt.Sprintf("bus: Complete of unknown tag %d on port %s", tag, p.name))
	}
	p.cmplBuf[int(p.completed%uint64(p.depth))] = Completion{Tag: tag, Resp: resp}
	p.completed++
	p.ackSeq.Set(p.completed)
}
