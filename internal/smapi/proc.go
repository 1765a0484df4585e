package smapi

import (
	"fmt"
	"iter"

	"repro/internal/bus"
	"repro/internal/sim"
)

// Task is the software body of a processing element. It runs as a
// coroutine against the simulation: every Ctx or Mem method that
// consumes simulated time suspends the task and lets the kernel advance.
type Task func(ctx *Ctx)

type procState uint8

const (
	procRunning procState = iota
	procWaitResp
	procSleeping
	procDone
)

// Proc is a processing element executing a native software task. It is
// the native-code counterpart of an ISS: computation happens at host
// speed, while every shared-memory operation becomes a cycle-true bus
// transaction on its master link.
type Proc struct {
	name string
	id   int
	port *bus.Port
	task Task

	state  procState
	wakeAt uint64
	resp   bus.Response

	// next resumes the task coroutine until it suspends or returns;
	// suspend is the coroutine side of the same switch. Both come from
	// iter.Pull on the first running Tick. Its stop function is dropped
	// on purpose: stopping a suspended task would make suspend return
	// and let the task run on outside simulated time.
	next    func() (struct{}, bool)
	suspend func(struct{}) bool

	cycle uint64

	// Stats
	OpsIssued    uint64
	ActiveWakes  uint64
	WaitCycles   uint64
	SleepCycles  uint64
	RetiredTasks uint64

	k *sim.Kernel
}

// NewProc creates a processing element named name with master port port,
// running task. id is the master identity stamped on reservations (use
// the PE's index on the interconnect).
func NewProc(k *sim.Kernel, name string, id int, port *bus.Port, task Task) *Proc {
	p := &Proc{
		name: name,
		id:   id,
		port: port,
		task: task,
		k:    k,
	}
	k.Add(p)
	return p
}

// Name implements sim.Module.
func (p *Proc) Name() string { return p.name }

// Done reports whether the task function has returned.
func (p *Proc) Done() bool { return p.state == procDone }

// Tick implements sim.Module. The task is a coroutine the Tick switches
// into directly (iter.Pull, one resume per cycle at most) and that
// switches back when it suspends, so execution stays deterministic.
func (p *Proc) Tick(cycle uint64) {
	switch p.state {
	case procDone:
		return
	case procWaitResp:
		p.WaitCycles++
		resp, ok := p.port.Response()
		if !ok {
			return
		}
		p.resp = resp
		p.state = procRunning
		p.wake(cycle)
	case procSleeping:
		p.SleepCycles++
		if cycle < p.wakeAt {
			return
		}
		p.state = procRunning
		p.wake(cycle)
	case procRunning:
		if p.next == nil {
			p.next, _ = iter.Pull(p.run)
		}
		p.wake(cycle)
	}
}

// NextWake implements sim.Sleeper. A PE blocked on a bus response is
// woken by the completion's signal commit; a PE in Sleep knows its exact
// resume cycle; a finished PE never wakes; a runnable PE executes every
// cycle.
func (p *Proc) NextWake(now uint64) uint64 {
	switch p.state {
	case procDone, procWaitResp:
		return sim.WakeNever
	case procSleeping:
		if p.wakeAt <= now {
			return now
		}
		return p.wakeAt
	default:
		return now
	}
}

// Skip implements sim.Sleeper: skipped cycles spent blocked on the
// interconnect or in Sleep are accounted exactly as ticked ones.
func (p *Proc) Skip(n uint64) {
	switch p.state {
	case procWaitResp:
		p.WaitCycles += n
	case procSleeping:
		p.SleepCycles += n
	}
}

// run is the coroutine body. A task panic becomes a kernel fault naming
// the PE; either way the task retires.
func (p *Proc) run(suspend func(struct{}) bool) {
	p.suspend = suspend
	defer func() {
		if r := recover(); r != nil {
			p.k.Fault(fmt.Errorf("%s: task panic: %v", p.name, r))
		}
		p.state = procDone
		p.RetiredTasks++
	}()
	p.task(&Ctx{p: p})
}

// wake resumes the coroutine for the current cycle and returns when it
// suspends again (or finishes).
func (p *Proc) wake(cycle uint64) {
	p.ActiveWakes++
	p.cycle = cycle
	p.next()
}

// yield suspends the coroutine; the next wake delivers the then-current
// cycle. Called only from the task coroutine.
func (p *Proc) yield() {
	p.suspend(struct{}{})
}

// transact issues req on the PE's port and blocks (in simulated time)
// until the response arrives.
func (p *Proc) transact(req bus.Request) bus.Response {
	req.Master = p.id
	p.OpsIssued++
	p.port.Issue(req)
	p.state = procWaitResp
	p.yield()
	return p.resp
}

// Ctx is the task-side handle to simulated time and the shared memories.
type Ctx struct {
	p *Proc
}

// Cycle returns the current simulated cycle.
func (c *Ctx) Cycle() uint64 { return c.p.cycle }

// Sleep advances simulated time by n cycles, modelling computation that
// takes that long on the PE. Sleep(0) yields for exactly one cycle.
func (c *Ctx) Sleep(n uint64) {
	p := c.p
	p.wakeAt = p.cycle + n
	p.state = procSleeping
	p.yield()
}

// Mem returns the C-formalism API bound to shared memory module sm.
func (c *Ctx) Mem(sm int) *Mem {
	return &Mem{p: c.p, sm: sm}
}
