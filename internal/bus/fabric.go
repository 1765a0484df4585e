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
// the occupied protocol records the reservation beside the state.
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

// channel is the transfer engine both interconnects are built from: one
// word countdown, plus the request (and its origin) while request words
// move. The Bus runs both phases on one channel; every crossbar lane has
// a request channel and a response channel.
type channel struct {
	state   chanState
	counter uint32
	req     Request // the request whose words are on the channel
	from    pendSrc
}

// start occupies the channel for a transfer of the given cycles.
func (ch *channel) start(state chanState, cycles uint32) {
	ch.state, ch.counter = state, cycles
}

// tick counts one cycle of the transfer down and reports whether its
// words have all moved.
func (ch *channel) tick() bool {
	if ch.counter > 0 {
		ch.counter--
	}
	return ch.counter == 0
}

// wake is the cycle the transfer's next observable action happens:
// counter-1 cycles away. A free channel has nothing to wake for.
func (ch *channel) wake(now uint64) uint64 {
	switch {
	case ch.state == chIdle:
		return sim.WakeNever
	case ch.counter <= 1:
		return now
	}
	return now + uint64(ch.counter) - 1
}

// skip counts n cycles of a transfer down and reports whether the
// channel was busy for them.
func (ch *channel) skip(n uint64) bool {
	if ch.state == chIdle {
		return false
	}
	ch.counter -= uint32(n)
	return true
}

// fabric is what the Bus and the Crossbar share: the ports, the
// configuration, the per-slave pending tables and the counters, and the
// three steps of a transaction — granting an address phase, delivering
// the request into its slave port, routing the completion back.
type fabric struct {
	name    string
	masters []*Port
	slaves  []*Port

	// WordCycles is the channel occupancy per transferred word. Configure
	// before simulation starts; 0 is treated as 1.
	WordCycles uint32

	// Split selects the split-transaction protocol: the channel is
	// released between a transaction's two phases. Configure before
	// simulation starts.
	Split bool

	// Snoop, when non-nil, is the cache-coherence domain consulted before
	// and notified after every address-phase grant (see Snooper).
	// Configure before simulation starts.
	Snoop Snooper

	pend []map[Tag]pendSrc // per slave: slave-port tag → origin
	// outstanding counts the entries of pend: while it is zero no slave
	// can hold a completion, so the idle path skips asking them.
	outstanding int

	scratch []int // arbitration candidates; sized for every master or slave
	stats   Stats
}

func newFabric(name string, masters, slaves []*Port) fabric {
	f := fabric{
		name:       name,
		masters:    masters,
		slaves:     slaves,
		WordCycles: 1,
		pend:       make([]map[Tag]pendSrc, len(slaves)),
		scratch:    make([]int, 0, max(len(masters), len(slaves))),
		stats: Stats{
			PerMaster:  make([]uint64, len(masters)),
			PerSlave:   make([]uint64, len(slaves)),
			RespGrants: make([]uint64, len(slaves)),
		},
	}
	for i := range f.pend {
		f.pend[i] = make(map[Tag]pendSrc)
	}
	return f
}

// Name implements sim.Module.
func (f *fabric) Name() string { return f.name }

// Stats returns a snapshot of the accumulated counters.
func (f *fabric) Stats() Stats {
	s := f.stats
	s.PerMaster = append([]uint64(nil), f.stats.PerMaster...)
	s.PerSlave = append([]uint64(nil), f.stats.PerSlave...)
	s.RespGrants = append([]uint64(nil), f.stats.RespGrants...)
	return s
}

func (f *fabric) wordCycles(words uint32) uint32 {
	wc := f.WordCycles
	if wc == 0 {
		wc = 1
	}
	return words * wc
}

// eligible reports whether a master head addressed to sm may be granted
// a channel serving the sm_addrs lo..hi: sm is in that range and its
// slave can take the request — or does not exist, in which case the
// request is rejected once its words have moved.
func (f *fabric) eligible(sm, lo, hi int) bool {
	return sm >= lo && sm <= hi && (sm < 0 || sm >= len(f.slaves) || f.slaves[sm].CanAccept())
}

// grant arbitrates the address phase among masters whose head is
// eligible for lo..hi and clear to proceed by the snoop domain, pops the
// winner's request and starts its words on ch. It reports whether a
// request was granted.
func (f *fabric) grant(ch *channel, arb Arbiter, lo, hi int) bool {
	cands := f.scratch[:0]
	for mi, m := range f.masters {
		if !m.Pending() {
			continue
		}
		req, _ := m.Peek()
		if !f.eligible(req.SM, lo, hi) {
			continue
		}
		if f.Snoop != nil && !f.Snoop.CanProceed(req, mi) {
			continue
		}
		cands = append(cands, mi)
	}
	if len(cands) == 0 {
		return false
	}
	gi := arb.Pick(cands)
	tx, ok := f.masters[gi].Pop()
	if !ok {
		return false
	}
	req := tx.Req
	req.Master = gi
	if f.Snoop != nil {
		f.Snoop.OnGrant(req, gi, tx.Tag)
	}
	ch.req = req
	ch.from = pendSrc{master: gi, tag: tx.Tag}
	f.stats.Transactions++
	f.stats.PerMaster[gi]++
	f.stats.PerOp[req.Op]++
	f.stats.Words += uint64(req.WireWords())
	ch.start(chReqXfer, f.wordCycles(req.WireWords()))
	f.stats.BusyCycles++
	return true
}

// step runs one busy cycle of ch's transfer and reports whether it has
// finished moving a request, which the caller then delivers. A finished
// response frees the channel.
func (f *fabric) step(ch *channel) bool {
	f.stats.BusyCycles++
	if !ch.tick() {
		return false
	}
	if ch.state == chRespXfer {
		ch.state = chIdle
		return false
	}
	return true
}

// deliver issues ch's transferred request into slave si's port, records
// its origin under the slave-port tag and frees the channel.
func (f *fabric) deliver(ch *channel, si int) {
	stag := f.slaves[si].Issue(ch.req)
	f.pend[si][stag] = ch.from
	f.outstanding++
	ch.req = Request{}
	ch.state = chIdle
}

// deliverable reports whether slave si holds a completion the response
// phase can take.
func (f *fabric) deliverable(si int) bool {
	return len(f.pend[si]) != 0 && f.slaves[si].HasCompletion()
}

// respond takes slave si's next completion, if it has one, routes it
// back to its master and starts the response words on ch.
func (f *fabric) respond(ch *channel, si int) bool {
	c, ok := f.slaves[si].TakeCompletion()
	if !ok {
		return false
	}
	src := f.pend[si][c.Tag]
	delete(f.pend[si], c.Tag)
	f.outstanding--
	f.stats.Words += uint64(c.Resp.WireWords())
	f.masters[src.master].Complete(src.tag, c.Resp)
	ch.start(chRespXfer, f.wordCycles(c.Resp.WireWords()))
	f.stats.BusyCycles++
	return true
}
