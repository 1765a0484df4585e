package mem

import (
	"fmt"

	"repro/internal/bus"
	"repro/internal/sim"
	"repro/internal/snapshot"
)

// Stats counts a memory's service activity. Every memory model's stats
// embed it; the Server keeps it.
type Stats struct {
	Ops        [bus.NumOps]uint64
	Errors     [bus.NumOps]uint64
	BusyCycles uint64
	BurstElems uint64
}

// Walk walks the counters in field order.
func (s *Stats) Walk(c *snapshot.Codec) {
	c.U64Array(s.Ops[:])
	c.U64Array(s.Errors[:])
	c.U64(&s.BusyCycles)
	c.U64(&s.BurstElems)
}

type serveState uint8

const (
	serveIdle   serveState = iota // waiting for a request
	serveDecode                   // counting down the decode cycles
	serveExec                     // counting down the operation's cycles
)

// Hooks are what a memory model of type M adds to the Server: the
// cycles of each phase and the functional effect. A model declares its
// hooks once, as a package-level value, so binding them allocates
// nothing.
type Hooks[M any] struct {
	// Decode returns the decode cycles of a request as it is popped.
	Decode func(m M, req bus.Request) uint32
	// Exec returns the exec cycles of a request entering exec in cycle
	// (DRAM's refresh schedule depends on it). Nil means the model has
	// no exec phase: Decode returns its whole delay.
	Exec func(m M, req bus.Request, cycle uint64) uint32
	// Respond applies the request's functional effect and returns its
	// response once its cycles have elapsed.
	Respond func(m M, req bus.Request) bus.Response
}

// Server is the serving FSM every memory model runs on one slave port —
// the cycle-true half of the paper's Figure 2. Idle, it pops the next
// request the cycle one is visible; Decode and Exec then count their
// cycles down, each a busy cycle; when Exec reaches zero the model's
// Respond hook runs, the completion is published and the FSM is Idle
// again. The functional effect happens at the final cycle, so responses
// are exactly as late as the model's timing says. Models embed a Server
// and differ only in their hooks, so their timing overheads compare
// like for like.
type Server[M any] struct {
	model M
	hooks *Hooks[M]
	port  *bus.Port
	acct  *Stats

	state  serveState
	wait   uint32
	cur    bus.Request
	curTag bus.Tag
}

// NewServer returns a Server for model on port that counts into acct,
// for the model to embed.
func NewServer[M any](model M, port *bus.Port, acct *Stats, hooks *Hooks[M]) Server[M] {
	return Server[M]{model: model, hooks: hooks, port: port, acct: acct}
}

// Port returns the slave port the Server pops requests from.
func (s *Server[M]) Port() *bus.Port { return s.port }

// Tick implements sim.Module: one cycle of the FSM.
func (s *Server[M]) Tick(cycle uint64) {
	if s.state == serveIdle {
		tx, ok := s.port.Pop()
		if !ok {
			return
		}
		s.cur, s.curTag = tx.Req, tx.Tag
		s.state, s.wait = serveDecode, s.hooks.Decode(s.model, tx.Req)
	} else {
		s.wait--
	}
	s.acct.BusyCycles++
	if s.state == serveDecode && s.wait == 0 {
		s.state = serveExec
		if s.hooks.Exec != nil {
			s.wait = s.hooks.Exec(s.model, s.cur, cycle)
		}
	}
	if s.state == serveExec && s.wait == 0 {
		s.finish()
	}
}

// finish responds to the request in service and returns to Idle.
func (s *Server[M]) finish() {
	resp := s.hooks.Respond(s.model, s.cur)
	if op := int(s.cur.Op); op < bus.NumOps {
		s.acct.Ops[op]++
		if resp.Err != bus.OK {
			s.acct.Errors[op]++
		}
	}
	s.port.Complete(s.curTag, resp)
	s.cur = bus.Request{}
	s.state = serveIdle
}

// NextWake implements sim.Sleeper. Idle, the Server has work only when
// a request is visible on its port (which a signal commit announces,
// so WakeNever is safe). In Decode or Exec it is a pure countdown:
// nothing observable happens until the tick on which wait reaches
// zero, wait-1 cycles from now.
func (s *Server[M]) NextWake(now uint64) uint64 {
	if s.state == serveIdle {
		if s.port.Pending() {
			return now
		}
		return sim.WakeNever
	}
	if s.wait <= 1 {
		return now
	}
	return now + uint64(s.wait) - 1
}

// Skip implements sim.Sleeper: n skipped cycles are n countdown ticks,
// each a busy cycle. An idle Server's skipped ticks would have done
// nothing but re-latch its idle inputs.
func (s *Server[M]) Skip(n uint64) {
	if s.state == serveIdle {
		return
	}
	s.wait -= uint32(n)
	s.acct.BusyCycles += n
}

// WalkFSM walks the registers every memory section starts with: state,
// wait, the request in service and its tag. walkCur, when non-nil,
// walks in place of the request (HeapMem keeps its eager response
// instead). Loading rejects a state the model does not have.
func (s *Server[M]) WalkFSM(c *snapshot.Codec, walkCur func(cur *bus.Request)) {
	snapshot.Byte(c, &s.state)
	c.U32(&s.wait)
	if walkCur != nil {
		walkCur(&s.cur)
	} else {
		s.cur.Walk(c)
	}
	snapshot.Word(c, &s.curTag)
	last := serveExec
	if s.hooks.Exec == nil {
		last = serveDecode
	}
	if s.state > last {
		c.Fail(fmt.Errorf("serving state %d is not one of this memory's states 0..%d", s.state, last))
	}
}

// Check reports an error unless a busy Server has a cycle left to count
// — Tick and Skip keep wait at least 1 between cycles, and a zero would
// count down through 2³² busy cycles — and serves a tag its port has
// handed out, which Complete could accept.
func (s *Server[M]) Check() error {
	switch {
	case s.state != serveIdle && s.wait == 0:
		return fmt.Errorf("memory at port %s: serving state %d with 0 cycles left to wait", s.port.Name(), s.state)
	case s.state != serveIdle && !s.port.InService(s.curTag):
		return fmt.Errorf("serving tag %d, which port %s has not handed out", s.curTag, s.port.Name())
	}
	return nil
}
