package bus

import (
	"repro/internal/sim"
)

// Crossbar is a full crossbar interconnect: each slave has an independent
// transaction lane, so transactions to different memories proceed in
// parallel. Masters competing for the same slave are arbitrated per
// lane.
//
// Every lane runs two channels side by side: a request channel that
// transfers address phases into the slave port's queue, and a response
// channel that drains slave completions back to the masters.
//
// Split mode lets them run concurrently: a lane accepts request N+1
// while its slave processes request N and while response N−1 is still in
// flight — pipelined transactions to the same memory, queued per lane up
// to the port depth.
//
// Occupied mode (Split=false, the default) holds the lane from the
// address phase until the response has drained: the request channel
// starts only on a lane that was entirely free when the tick began, so
// one transaction owns the lane end-to-end, cycle-identical to the
// pre-port protocol. Even so, a master with a multi-outstanding port
// already overlaps lanes: once lane A pops its head request, the next
// queued request becomes poppable by lane B in the same cycle.
//
// BusyCycles counts lane-channel-cycles: two lanes busy in one cycle
// count twice, and in split mode a lane's request and response channels
// count separately, while a held occupied lane counts once per cycle.
type Crossbar struct {
	fabric
	arbs  []Arbiter
	lanes []xbarLane
}

// xbarLane is one slave's pair of channels: rq carries only request
// words, rs only response words.
type xbarLane struct {
	rq, rs channel
}

// NewCrossbar creates a crossbar connecting masters to slaves. newArb is
// invoked once per slave to create that lane's arbiter (arbiters are
// stateful, so they cannot be shared).
func NewCrossbar(k *sim.Kernel, name string, masters, slaves []*Port, newArb func() Arbiter) *Crossbar {
	x := &Crossbar{fabric: newFabric(name, masters, slaves), lanes: make([]xbarLane, len(slaves))}
	for range slaves {
		x.arbs = append(x.arbs, newArb())
	}
	k.Add(x)
	return x
}

// rejectNoSlave pops master head requests addressed to nonexistent
// slaves and rejects them centrally (lane 0 duty), keeping error
// semantics identical to Bus in both modes.
func (x *Crossbar) rejectNoSlave() {
	for mi, m := range x.masters {
		for {
			req, ok := m.Peek()
			if !ok || (req.SM >= 0 && req.SM < len(x.slaves)) {
				break
			}
			tx, ok := m.Pop()
			if !ok {
				break
			}
			x.stats.NoSlave++
			x.stats.Transactions++
			x.stats.PerMaster[mi]++
			m.Complete(tx.Tag, Response{Err: ErrNoSlave})
		}
	}
}

// held reports whether the occupied protocol reserves lane si for a
// transaction past its address phase: waiting on the slave, or draining
// the response. A split lane is never held.
func (x *Crossbar) held(si int) bool {
	return !x.Split && (x.lanes[si].rs.state != chIdle || len(x.pend[si]) != 0)
}

// Tick implements sim.Module.
func (x *Crossbar) Tick(cycle uint64) {
	x.rejectNoSlave()
	for si := range x.lanes {
		x.tickLane(si)
	}
}

// NextWake implements sim.Sleeper: the earliest wake over all lane
// channels. A poppable master head targeting a lane that could serve it
// (or a nonexistent slave, which the central reject loop handles)
// demands an immediate tick; channels in a transfer wake when their word
// counter expires; free channels wake on signal commits.
func (x *Crossbar) NextWake(now uint64) uint64 {
	for _, m := range x.masters {
		req, ok := m.Peek()
		if !ok {
			continue
		}
		if req.SM < 0 || req.SM >= len(x.slaves) {
			return now
		}
		if x.lanes[req.SM].rq.state == chIdle && !x.held(req.SM) && x.slaves[req.SM].CanAccept() {
			return now
		}
	}
	wake := uint64(sim.WakeNever)
	for si := range x.lanes {
		ln := &x.lanes[si]
		if ln.rs.state == chIdle && x.deliverable(si) {
			return now
		}
		wake = min(wake, ln.rq.wake(now), ln.rs.wake(now))
	}
	return wake
}

// Skip implements sim.Sleeper: per busy lane channel, n busy cycles and
// counter ticks; a held lane waiting on its slave is busy without a
// counter. BusyCycles counts lane-channel-cycles, so each busy channel
// contributes n.
func (x *Crossbar) Skip(n uint64) {
	for si := range x.lanes {
		ln := &x.lanes[si]
		if ln.rq.skip(n) {
			x.stats.BusyCycles += n
		}
		if ln.rs.skip(n) || x.held(si) {
			x.stats.BusyCycles += n
		}
	}
}

// tickLane runs the lane's two channels. The response channel runs
// first, so a completion taken this tick frees its slave queue slot in
// time for the same tick's request-channel credit check.
func (x *Crossbar) tickLane(si int) {
	ln := &x.lanes[si]
	held := x.held(si)

	switch {
	case ln.rs.state != chIdle:
		x.step(&ln.rs)
	case len(x.pend[si]) == 0:
		// nothing outstanding at this slave
	case x.respond(&ln.rs, si):
		if !held {
			// A held lane was never released, so its response is not
			// a grant of its own.
			x.stats.RespGrants[si]++
		}
	case held:
		x.stats.BusyCycles++ // held while the slave works
	}

	switch {
	case ln.rq.state != chIdle:
		if x.step(&ln.rq) {
			x.deliver(&ln.rq, si)
		}
	case !held && x.slaves[si].CanAccept():
		if x.grant(&ln.rq, x.arbs[si], si, si) {
			x.stats.PerSlave[si]++
		}
	}
}
