package bus

import (
	"math"

	"repro/internal/sim"
)

// Bus is the shared interconnect: all masters compete for a single
// transfer channel, which carries both phases of every transaction. The
// two protocols differ only in what happens to the channel between a
// transaction's two phases.
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
	fabric
	arb Arbiter

	// RespArb arbitrates the response phase among slaves with deliverable
	// completions (split mode only). Nil selects round-robin. Configure
	// before simulation starts.
	RespArb Arbiter

	ch channel
	// held is the slave the free channel is reserved for (occupied
	// protocol, between address phase and response), or -1.
	held int
}

// NewBus creates a shared bus connecting the given master-side ports to
// the given slave-side ports, arbitrated by arb. Slave i serves requests
// whose SM field equals i. The bus registers itself with the kernel.
func NewBus(k *sim.Kernel, name string, masters, slaves []*Port, arb Arbiter) *Bus {
	b := &Bus{fabric: newFabric(name, masters, slaves), arb: arb, held: -1}
	k.Add(b)
	return b
}

func (b *Bus) respArb() Arbiter {
	if b.RespArb == nil {
		b.RespArb = NewRoundRobin()
	}
	return b.RespArb
}

// NextWake implements sim.Sleeper. A transfer is a pure word-counter
// countdown. With the channel free the bus wakes for a deliverable
// completion or a grantable request; otherwise only a signal commit
// (request issue resp. completion) can give it work. The probe stays a
// sequence-counter compare per idle master, and slaves with nothing
// outstanding are not asked for completions.
func (b *Bus) NextWake(now uint64) uint64 {
	if b.ch.state != chIdle {
		return b.ch.wake(now)
	}
	if b.outstanding > 0 {
		for si := range b.slaves {
			if b.deliverable(si) {
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
		if req, _ := m.Peek(); b.eligible(req.SM, math.MinInt, math.MaxInt) {
			return now
		}
	}
	return sim.WakeNever
}

// Skip implements sim.Sleeper: every skipped cycle of a transfer is a
// busy cycle and a counter tick, and so is — without the counter — every
// cycle the channel is held for a slave. A split bus parked between
// transfers is *released*, not busy — that difference is the protocol's
// whole advantage and shows up directly in BusyCycles.
func (b *Bus) Skip(n uint64) {
	if b.ch.skip(n) || b.held >= 0 {
		b.stats.BusyCycles += n
	}
}

// Tick implements sim.Module. With the channel free, response phases
// have priority over address phases: a finished transaction ties up a
// slave queue slot (and a master credit) until its response drains, so
// returning results first maximizes the concurrency both ends can
// sustain. A held channel admits nothing but its slave's response.
func (b *Bus) Tick(cycle uint64) {
	switch {
	case b.ch.state != chIdle:
		if b.step(&b.ch) {
			b.deliverRequest()
		}
	case b.held >= 0:
		if b.respond(&b.ch, b.held) {
			b.held = -1
		} else {
			b.stats.BusyCycles++ // held while the slave works
		}
	case b.outstanding > 0 && b.startResponse():
	default:
		b.grant(&b.ch, b.arb, math.MinInt, math.MaxInt)
	}
}

// deliverRequest ends an address phase: the request enters its slave's
// queue — holding the channel for that slave unless the bus is split —
// or, addressed to no slave, is rejected with ErrNoSlave.
func (b *Bus) deliverRequest() {
	sm := b.ch.req.SM
	if sm < 0 || sm >= len(b.slaves) {
		b.stats.NoSlave++
		b.masters[b.ch.from.master].Complete(b.ch.from.tag, Response{Err: ErrNoSlave})
		b.ch.req = Request{}
		b.ch.state = chIdle
		return
	}
	b.stats.PerSlave[sm]++
	b.deliver(&b.ch, sm)
	if !b.Split {
		b.held = sm
	}
}

// startResponse arbitrates the response phase among slaves with a
// deliverable completion and starts the winner's response transfer.
func (b *Bus) startResponse() bool {
	cands := b.scratch[:0]
	for si := range b.slaves {
		if b.deliverable(si) {
			cands = append(cands, si)
		}
	}
	if len(cands) == 0 {
		return false
	}
	si := b.respArb().Pick(cands)
	if !b.respond(&b.ch, si) {
		return false // unreachable if HasCompletion was true
	}
	b.stats.RespGrants[si]++
	return true
}
