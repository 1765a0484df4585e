package bus

import (
	"repro/internal/sim"
)

// Stats aggregates interconnect activity counters. All counters are in
// units of transactions, bus words, or cycles of the simulated clock.
type Stats struct {
	Transactions uint64
	Words        uint64 // request + response words moved
	BusyCycles   uint64 // cycles the interconnect was occupied
	PerOp        [NumOps]uint64
	PerMaster    []uint64 // grants per master
	PerSlave     []uint64 // transactions per slave
	NoSlave      uint64   // requests addressed to a nonexistent sm_addr
	// RespGrants counts response-phase grants per slave (split mode only:
	// the re-arbitration of the return path).
	RespGrants []uint64
}

// chanState is the state of one transfer channel: free, or draining the
// words of a request or of a response. Waiting for a slave is not a
// channel state — the split protocol releases the channel meanwhile, and
// the occupied protocol records the reservation beside the state (see
// Bus.held).
type chanState uint8

const (
	chIdle chanState = iota
	chReqXfer
	chRespXfer
)

// pendSrc remembers where a request forwarded into a slave port came
// from, so the response phase can route the completion back.
type pendSrc struct {
	master int
	tag    Tag
}

// Bus is the shared interconnect: all masters compete for a single
// transaction channel. One engine runs both protocols; they differ only
// in what happens to the channel between a transaction's two phases.
//
// Split (Split=true): the address phase occupies the bus only for the
// request words, then hands the request to the slave port's queue and
// releases the bus; while slaves process, other address phases proceed.
// Completed transactions re-arbitrate for the bus (RespArb) and occupy
// it only for the response words. Transactions to different slaves — and
// pipelined transactions to the same slave, up to the port depth —
// overlap in time.
//
// Occupied (Split=false, the default): the same two phases, but the
// channel stays held for the addressed slave from the end of the address
// phase until its response has drained, so one transaction owns the bus
// end-to-end — request words, slave wait, response words. This is the
// paper's INTERCONNECT box, a simple on-chip bus without split
// transactions, and it is cycle-identical to the pre-port protocol.
type Bus struct {
	name    string
	masters []*Port
	slaves  []*Port
	arb     Arbiter

	// WordCycles is the bus occupancy per transferred word. Configure
	// before simulation starts; 0 is treated as 1.
	WordCycles uint32

	// Split selects the split-transaction protocol. Configure before
	// simulation starts.
	Split bool
	// RespArb arbitrates the response phase among slaves with deliverable
	// completions (split mode only). Nil selects round-robin. Configure
	// before simulation starts.
	RespArb Arbiter

	// Snoop, when non-nil, is the cache-coherence domain consulted before
	// and notified after every address-phase grant (see Snooper).
	// Configure before simulation starts.
	Snoop Snooper

	state   chanState
	counter uint32
	req     Request // the request whose words are on the channel
	reqFrom pendSrc
	// held is the slave the free channel is reserved for (occupied
	// protocol, between address phase and response), or -1.
	held int
	pend []map[Tag]pendSrc // per slave: slave-port tag → origin
	// outstanding counts the entries of pend: while it is zero no slave
	// can hold a completion, so the idle path skips asking them.
	outstanding int

	scratch []int // arbitration candidates; sized for every master or slave
	stats   Stats
}

// NewBus creates a shared bus connecting the given master-side ports to
// the given slave-side ports, arbitrated by arb. Slave i serves requests
// whose SM field equals i. The bus registers itself with the kernel.
func NewBus(k *sim.Kernel, name string, masters, slaves []*Port, arb Arbiter) *Bus {
	b := &Bus{
		name:       name,
		masters:    masters,
		slaves:     slaves,
		arb:        arb,
		WordCycles: 1,
		held:       -1,
		pend:       make([]map[Tag]pendSrc, len(slaves)),
		scratch:    make([]int, 0, max(len(masters), len(slaves))),
		stats: Stats{
			PerMaster:  make([]uint64, len(masters)),
			PerSlave:   make([]uint64, len(slaves)),
			RespGrants: make([]uint64, len(slaves)),
		},
	}
	for i := range b.pend {
		b.pend[i] = make(map[Tag]pendSrc)
	}
	k.Add(b)
	return b
}

// Name implements sim.Module.
func (b *Bus) Name() string { return b.name }

// Stats returns a snapshot of the accumulated counters.
func (b *Bus) Stats() Stats {
	s := b.stats
	s.PerMaster = append([]uint64(nil), b.stats.PerMaster...)
	s.PerSlave = append([]uint64(nil), b.stats.PerSlave...)
	s.RespGrants = append([]uint64(nil), b.stats.RespGrants...)
	return s
}

func (b *Bus) wordCycles(words uint32) uint32 {
	wc := b.WordCycles
	if wc == 0 {
		wc = 1
	}
	return words * wc
}

func (b *Bus) respArb() Arbiter {
	if b.RespArb == nil {
		b.RespArb = NewRoundRobin()
	}
	return b.RespArb
}

// NextWake implements sim.Sleeper. A transfer is a pure word-counter
// countdown whose next observable action is `counter-1` cycles away.
// With the channel free the bus wakes for a deliverable completion or a
// grantable request; otherwise only a signal commit (request issue resp.
// completion) can give it work. The probe stays a sequence-counter
// compare per idle master, and slaves with nothing outstanding are not
// asked for completions.
func (b *Bus) NextWake(now uint64) uint64 {
	if b.state != chIdle {
		if b.counter <= 1 {
			return now
		}
		return now + uint64(b.counter) - 1
	}
	if b.outstanding > 0 {
		for si, s := range b.slaves {
			if len(b.pend[si]) != 0 && s.HasCompletion() {
				return now
			}
		}
	}
	if b.held >= 0 {
		return sim.WakeNever
	}
	for _, m := range b.masters {
		if !m.Pending() {
			continue
		}
		req, _ := m.Peek()
		if req.SM < 0 || req.SM >= len(b.slaves) || b.slaves[req.SM].CanAccept() {
			return now
		}
	}
	return sim.WakeNever
}

// ConcurrentTick implements sim.Concurrent: the bus owns its FSMs, its
// arbiters, its pending-transaction tables and its stats; on the ports
// it only uses the slave side of master ports (peek/pop/complete) and
// the master side of slave ports (issue/drain), which the port protocol
// makes exclusive to it within any cycle. Safe to tick concurrently with
// CPUs and memories — unless a snoop domain is attached, in which case
// the bus mutates peer cache state during its Tick and must co-schedule
// with the caches on the serial shard.
func (b *Bus) ConcurrentTick() bool { return b.Snoop == nil }

// TickWeight implements sim.Weighted: mostly demand polling and word
// countdowns — cheap relative to the modules it connects.
func (b *Bus) TickWeight() int { return 2 }

// Skip implements sim.Sleeper: every skipped cycle of a transfer is a
// busy cycle and a counter tick, and so is — without the counter — every
// cycle the channel is held for a slave. A split bus parked between
// transfers is *released*, not busy — that difference is the protocol's
// whole advantage and shows up directly in BusyCycles.
func (b *Bus) Skip(n uint64) {
	switch {
	case b.state != chIdle:
		b.counter -= uint32(n)
		b.stats.BusyCycles += n
	case b.held >= 0:
		b.stats.BusyCycles += n
	}
}

// Tick implements sim.Module. With the channel free, response phases
// have priority over address phases: a finished transaction ties up a
// slave queue slot (and a master credit) until its response drains, so
// returning results first maximizes the concurrency both ends can
// sustain. A held channel admits nothing but its slave's response.
func (b *Bus) Tick(cycle uint64) {
	switch b.state {
	case chIdle:
		if b.held >= 0 {
			if !b.respond(b.held) {
				b.stats.BusyCycles++ // held while the slave works
			}
			return
		}
		if b.outstanding > 0 && b.startResponse() {
			return
		}
		b.startRequest()

	case chReqXfer:
		b.stats.BusyCycles++
		if b.counter > 0 {
			b.counter--
		}
		if b.counter > 0 {
			return
		}
		if sm := b.req.SM; sm < 0 || sm >= len(b.slaves) {
			b.stats.NoSlave++
			b.masters[b.reqFrom.master].Complete(b.reqFrom.tag, Response{Err: ErrNoSlave})
		} else {
			b.stats.PerSlave[sm]++
			stag := b.slaves[sm].Issue(b.req)
			b.pend[sm][stag] = b.reqFrom
			b.outstanding++
			if !b.Split {
				b.held = sm
			}
		}
		b.req = Request{}
		b.state = chIdle

	case chRespXfer:
		// The response words occupy the bus after completion has been
		// signalled; the master observes the response when the signal
		// commits, while the bus remains busy draining the payload.
		b.stats.BusyCycles++
		if b.counter > 0 {
			b.counter--
		}
		if b.counter == 0 {
			b.state = chIdle
		}
	}
}

// startResponse arbitrates the response phase among slaves with a
// deliverable completion and starts the winner's response transfer.
func (b *Bus) startResponse() bool {
	cands := b.scratch[:0]
	for si, s := range b.slaves {
		if len(b.pend[si]) != 0 && s.HasCompletion() {
			cands = append(cands, si)
		}
	}
	if len(cands) == 0 {
		return false
	}
	si := b.respArb().Pick(cands)
	if !b.respond(si) {
		return false // unreachable if HasCompletion was true
	}
	b.stats.RespGrants[si]++
	return true
}

// respond takes slave si's next completion, if it has one, routes it
// back to its master, releases any hold and occupies the bus for the
// response words.
func (b *Bus) respond(si int) bool {
	c, ok := b.slaves[si].TakeCompletion()
	if !ok {
		return false
	}
	src := b.pend[si][c.Tag]
	delete(b.pend[si], c.Tag)
	b.outstanding--
	b.held = -1
	b.stats.Words += uint64(c.Resp.WireWords())
	b.masters[src.master].Complete(src.tag, c.Resp)
	b.counter = b.wordCycles(c.Resp.WireWords())
	b.state = chRespXfer
	b.stats.BusyCycles++
	return true
}

// startRequest arbitrates the address phase among masters whose head
// request can actually be accepted (slave queue credit free, or a
// nonexistent slave — rejected after the transfer) and, on a grant, pops
// the request and occupies the bus for its words.
func (b *Bus) startRequest() {
	cands := b.scratch[:0]
	for mi, m := range b.masters {
		if !m.Pending() {
			continue
		}
		req, _ := m.Peek()
		if req.SM >= 0 && req.SM < len(b.slaves) && !b.slaves[req.SM].CanAccept() {
			continue
		}
		if b.Snoop != nil && !b.Snoop.CanProceed(req, mi) {
			continue
		}
		cands = append(cands, mi)
	}
	if len(cands) == 0 {
		return
	}
	gi := b.arb.Pick(cands)
	tx, ok := b.masters[gi].Pop()
	if !ok {
		return
	}
	req := tx.Req
	req.Master = gi
	if b.Snoop != nil {
		b.Snoop.OnGrant(req, gi, tx.Tag)
	}
	b.req = req
	b.reqFrom = pendSrc{master: gi, tag: tx.Tag}
	b.stats.Transactions++
	b.stats.PerMaster[gi]++
	b.stats.PerOp[req.Op]++
	b.stats.Words += uint64(req.WireWords())
	b.counter = b.wordCycles(req.WireWords())
	b.state = chReqXfer
	b.stats.BusyCycles++
}
