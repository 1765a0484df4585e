package bus

import (
	"repro/internal/sim"
)

// Crossbar is a full crossbar interconnect: each slave has an independent
// transaction lane, so transactions to different memories proceed in
// parallel. Masters competing for the same slave are arbitrated per
// lane.
//
// Every lane runs two engines side by side: a request engine that
// transfers address phases into the slave port's queue, and a response
// engine that drains slave completions back to the masters.
//
// Split mode lets them run concurrently: a lane accepts request N+1
// while its slave processes request N and while response N−1 is still in
// flight — pipelined transactions to the same memory, queued per lane up
// to the port depth.
//
// Occupied mode (Split=false, the default) holds the lane from the
// address phase until the response has drained: the request engine
// starts only on a lane that was entirely free when the tick began, so
// one transaction owns the lane end-to-end, cycle-identical to the
// pre-port protocol. Even so, a master with a multi-outstanding port
// already overlaps lanes: once lane A pops its head request, the next
// queued request becomes poppable by lane B in the same cycle.
type Crossbar struct {
	name    string
	masters []*Port
	slaves  []*Port
	arbs    []Arbiter

	// WordCycles is the per-word occupancy of each crossbar lane.
	WordCycles uint32

	// Split selects the pipelined lanes. Configure before simulation
	// starts.
	Split bool

	// Snoop, when non-nil, is the cache-coherence domain consulted before
	// and notified after every lane's address-phase grant (see Snooper).
	// Configure before simulation starts.
	Snoop Snooper

	lanes   []xbarLane
	scratch []int // arbitration candidates; sized for every master
	stats   Stats
}

// xbarLane is one slave's pair of channels plus its pending table.
type xbarLane struct {
	rqState   chanState // chIdle or chReqXfer
	rqCounter uint32
	rqCur     Request
	rqFrom    pendSrc
	rsState   chanState // chIdle or chRespXfer
	rsCounter uint32

	pend map[Tag]pendSrc // slave-port tag → origin
}

// NewCrossbar creates a crossbar connecting masters to slaves. newArb is
// invoked once per slave to create that lane's arbiter (arbiters are
// stateful, so they cannot be shared).
func NewCrossbar(k *sim.Kernel, name string, masters, slaves []*Port, newArb func() Arbiter) *Crossbar {
	x := &Crossbar{
		name:       name,
		masters:    masters,
		slaves:     slaves,
		WordCycles: 1,
		lanes:      make([]xbarLane, len(slaves)),
		scratch:    make([]int, 0, len(masters)),
		stats: Stats{
			PerMaster:  make([]uint64, len(masters)),
			PerSlave:   make([]uint64, len(slaves)),
			RespGrants: make([]uint64, len(slaves)),
		},
	}
	for i := range x.lanes {
		x.lanes[i].pend = make(map[Tag]pendSrc)
	}
	for range slaves {
		x.arbs = append(x.arbs, newArb())
	}
	k.Add(x)
	return x
}

// Name implements sim.Module.
func (x *Crossbar) Name() string { return x.name }

// Stats returns a snapshot of the accumulated counters. BusyCycles counts
// lane-engine-cycles (two lanes busy in one cycle count twice; in split
// mode a lane's request and response engines count separately, while a
// held occupied lane counts once per cycle).
func (x *Crossbar) Stats() Stats {
	s := x.stats
	s.PerMaster = append([]uint64(nil), x.stats.PerMaster...)
	s.PerSlave = append([]uint64(nil), x.stats.PerSlave...)
	s.RespGrants = append([]uint64(nil), x.stats.RespGrants...)
	return s
}

func (x *Crossbar) wordCycles(words uint32) uint32 {
	wc := x.WordCycles
	if wc == 0 {
		wc = 1
	}
	return words * wc
}

// ConcurrentTick implements sim.Concurrent: same confinement argument
// as Bus — lanes, arbiters, pending tables and stats are the crossbar's
// own, and its port-side accesses are the interconnect half of the port
// protocol. With a snoop domain attached the crossbar mutates peer cache
// state during its Tick and must co-schedule with the caches on the
// serial shard.
func (x *Crossbar) ConcurrentTick() bool { return x.Snoop == nil }

// TickWeight implements sim.Weighted: one cheap lane FSM per slave.
func (x *Crossbar) TickWeight() int {
	if n := len(x.lanes); n > 2 {
		return n
	}
	return 2
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

// held reports whether the occupied protocol reserves lane ln for a
// transaction past its address phase: waiting on the slave, or draining
// the response. A split lane is never held.
func (x *Crossbar) held(ln *xbarLane) bool {
	return !x.Split && (ln.rsState != chIdle || len(ln.pend) != 0)
}

// Tick implements sim.Module.
func (x *Crossbar) Tick(cycle uint64) {
	x.rejectNoSlave()
	for si := range x.lanes {
		x.tickLane(si)
	}
}

// NextWake implements sim.Sleeper: the earliest wake over all lane
// engines. A poppable master head targeting a lane that could serve it
// (or a nonexistent slave, which the central reject loop handles)
// demands an immediate tick; engines in a transfer state wake when their
// word counter expires; idle and response-waiting engines wake on signal
// commits.
func (x *Crossbar) NextWake(now uint64) uint64 {
	for _, m := range x.masters {
		req, ok := m.Peek()
		if !ok {
			continue
		}
		if req.SM < 0 || req.SM >= len(x.slaves) {
			return now
		}
		ln := &x.lanes[req.SM]
		if ln.rqState == chIdle && !x.held(ln) && x.slaves[req.SM].CanAccept() {
			return now
		}
	}
	wake := uint64(sim.WakeNever)
	min := func(counter uint32) {
		w := now
		if counter > 1 {
			w = now + uint64(counter) - 1
		}
		if w < wake {
			wake = w
		}
	}
	for i := range x.lanes {
		ln := &x.lanes[i]
		if ln.rqState != chIdle {
			min(ln.rqCounter)
		}
		if ln.rsState != chIdle {
			min(ln.rsCounter)
		} else if len(ln.pend) != 0 && x.slaves[i].HasCompletion() {
			return now
		}
	}
	return wake
}

// Skip implements sim.Sleeper: per busy lane engine, n busy cycles (and
// counter ticks in the transfer states); a held lane waiting on its
// slave is busy without a counter. BusyCycles counts lane-engine-cycles,
// so each busy engine contributes n.
func (x *Crossbar) Skip(n uint64) {
	for i := range x.lanes {
		ln := &x.lanes[i]
		if ln.rqState != chIdle {
			ln.rqCounter -= uint32(n)
			x.stats.BusyCycles += n
		}
		if ln.rsState != chIdle {
			ln.rsCounter -= uint32(n)
			x.stats.BusyCycles += n
		} else if x.held(ln) {
			x.stats.BusyCycles += n
		}
	}
}

// pickRequest arbitrates among masters whose visible head request
// targets lane si and pops the winner's head. ok is false when no master
// demands this lane.
func (x *Crossbar) pickRequest(si int) (Txn, int, bool) {
	pending := x.scratch[:0]
	for mi, m := range x.masters {
		req, ok := m.Peek()
		if !ok || req.SM != si {
			continue
		}
		if x.Snoop != nil && !x.Snoop.CanProceed(req, mi) {
			continue
		}
		pending = append(pending, mi)
	}
	if len(pending) == 0 {
		return Txn{}, 0, false
	}
	gi := x.arbs[si].Pick(pending)
	tx, ok := x.masters[gi].Pop()
	if !ok {
		return Txn{}, 0, false
	}
	if x.Snoop != nil {
		req := tx.Req
		req.Master = gi
		x.Snoop.OnGrant(req, gi, tx.Tag)
	}
	return tx, gi, true
}

// tickLane runs the lane's two engines. The response engine runs first,
// so a completion taken this tick frees its slave queue slot in time for
// the same tick's request-engine credit check.
func (x *Crossbar) tickLane(si int) {
	ln := &x.lanes[si]
	held := x.held(ln)

	// Response engine: drain slave completions back to the masters.
	switch ln.rsState {
	case chIdle:
		if len(ln.pend) == 0 {
			break // nothing outstanding at this slave
		}
		if c, ok := x.slaves[si].TakeCompletion(); ok {
			src := ln.pend[c.Tag]
			delete(ln.pend, c.Tag)
			if !held {
				// A held lane was never released, so its response is not
				// a grant of its own.
				x.stats.RespGrants[si]++
			}
			x.stats.Words += uint64(c.Resp.WireWords())
			x.masters[src.master].Complete(src.tag, c.Resp)
			ln.rsCounter = x.wordCycles(c.Resp.WireWords())
			ln.rsState = chRespXfer
			x.stats.BusyCycles++
		} else if held {
			x.stats.BusyCycles++ // held while the slave works
		}
	case chRespXfer:
		x.stats.BusyCycles++
		if ln.rsCounter > 0 {
			ln.rsCounter--
		}
		if ln.rsCounter == 0 {
			ln.rsState = chIdle
		}
	}

	// Request engine: transfer address phases into the slave queue.
	switch ln.rqState {
	case chIdle:
		if held || !x.slaves[si].CanAccept() {
			return
		}
		tx, gi, ok := x.pickRequest(si)
		if !ok {
			return
		}
		req := tx.Req
		req.Master = gi
		ln.rqCur = req
		ln.rqFrom = pendSrc{master: gi, tag: tx.Tag}
		x.stats.Transactions++
		x.stats.PerMaster[gi]++
		x.stats.PerOp[req.Op]++
		x.stats.PerSlave[si]++
		x.stats.Words += uint64(req.WireWords())
		ln.rqCounter = x.wordCycles(req.WireWords())
		ln.rqState = chReqXfer
		x.stats.BusyCycles++
	case chReqXfer:
		x.stats.BusyCycles++
		if ln.rqCounter > 0 {
			ln.rqCounter--
		}
		if ln.rqCounter > 0 {
			return
		}
		stag := x.slaves[si].Issue(ln.rqCur)
		ln.pend[stag] = ln.rqFrom
		ln.rqCur = Request{}
		ln.rqState = chIdle
	}
}
