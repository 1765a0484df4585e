package dma

import (
	"repro/internal/bus"
	"repro/internal/sim"
)

// Descriptor is one copy job: Elems elements of type DType from
// (SrcSM, SrcVPtr) to (DstSM, DstVPtr), moved in bursts of at most
// Chunk elements (default 32).
//
// When source and destination ranges overlap within one memory, the
// engine serializes the descriptor chunk by chunk regardless of port
// depth (reads of chunk k+1 must observe writes of chunk k), so the
// chunked-memmove semantics of a depth-1 port hold at every depth.
type Descriptor struct {
	SrcSM, DstSM     int
	SrcVPtr, DstVPtr uint32
	Elems            uint32
	DType            bus.DataType
	Chunk            uint32
}

// overlaps reports whether the source and destination byte ranges
// intersect within the same memory — the case read-ahead must not
// reorder.
func (d Descriptor) overlaps() bool {
	if d.SrcSM != d.DstSM {
		return false
	}
	n := uint64(d.Elems) * uint64(d.DType.Size())
	s, t := uint64(d.SrcVPtr), uint64(d.DstVPtr)
	return s < t+n && t < s+n
}

// Status is a completed descriptor's outcome.
type Status struct {
	Desc Descriptor
	// Err is the first in-band error encountered, or OK.
	Err bus.ErrCode
	// Moved is the number of elements actually copied.
	Moved uint32
	// DoneCycle is the cycle the descriptor completed on.
	DoneCycle uint64
}

// Stats counts engine activity.
type Stats struct {
	Descriptors uint64
	ElemsMoved  uint64
	Errors      uint64
	BusyCycles  uint64
}

// chunk is one burst-sized slice of the current descriptor as it moves
// through the engine: read issued → data buffered → write issued →
// retired.
type chunk struct {
	off  uint32 // element offset within the descriptor
	n    uint32 // elements in this chunk
	data []uint32
}

// Engine is the DMA module. Descriptors are enqueued from host code
// (tests, examples, experiment harnesses) before or during simulation;
// the engine processes them in order.
type Engine struct {
	name string
	port *bus.Port

	queue []Descriptor
	done  []Status

	active bool // cur is in progress
	cur    Descriptor
	// err is cur's first in-band error. Once set the engine issues nothing
	// more and retires cur when its outstanding transactions have drained.
	err bus.ErrCode

	readOff  uint32             // next element offset to issue a read for
	written  uint32             // elements confirmed written
	inflight map[bus.Tag]*chunk // outstanding reads and writes by tag
	isWrite  map[bus.Tag]bool
	ready    []*chunk // read data buffered, write not yet issued

	stats Stats
}

// New creates a DMA engine mastering the given port and registers it
// with the kernel.
func New(k *sim.Kernel, name string, port *bus.Port) *Engine {
	if name == "" {
		name = "dma"
	}
	e := &Engine{
		name:     name,
		port:     port,
		inflight: make(map[bus.Tag]*chunk),
		isWrite:  make(map[bus.Tag]bool),
	}
	k.Add(e)
	return e
}

// Name implements sim.Module.
func (e *Engine) Name() string { return e.name }

// Enqueue appends a copy descriptor. Safe to call between kernel steps.
func (e *Engine) Enqueue(d Descriptor) {
	if d.Chunk == 0 {
		d.Chunk = 32
	}
	e.queue = append(e.queue, d)
}

// Done returns the statuses of completed descriptors.
func (e *Engine) Done() []Status { return e.done }

// Idle reports whether the engine has no pending or in-flight work.
func (e *Engine) Idle() bool { return !e.active && len(e.queue) == 0 }

// Stats returns a snapshot of the counters.
func (e *Engine) Stats() Stats { return e.stats }

// window is how many chunks of cur may be in flight or buffered at once:
// the port depth, or one when source and destination overlap (the read of
// chunk k+1 must observe the write of chunk k).
func (e *Engine) window() int {
	if e.cur.overlaps() {
		return 1
	}
	return e.port.Depth()
}

func (e *Engine) canWrite() bool { return len(e.ready) > 0 && e.port.CanIssue() }

func (e *Engine) canRead() bool {
	return e.readOff < e.cur.Elems && e.port.CanIssue() &&
		len(e.inflight)+len(e.ready) < e.window()
}

// Tick implements sim.Module: start the next descriptor if none is in
// progress, drain every completion the port delivers, retire the
// descriptor once nothing is outstanding and nothing is left to do (or
// it failed), and otherwise issue at most one write and one read (a
// hardware engine with one issue slot per direction). At window 1 this
// is the strictly alternating read→write engine: a read's completion
// and its chunk's write, or a write's completion and the next read,
// share a tick.
func (e *Engine) Tick(cycle uint64) {
	if !e.active {
		if len(e.queue) == 0 {
			return
		}
		e.cur = e.queue[0]
		e.queue = e.queue[1:]
		e.err = bus.OK
		e.readOff, e.written = 0, 0
		e.ready = nil
		e.active = true
	}
	e.stats.BusyCycles++
	e.drainCompletions()
	if len(e.inflight) == 0 && (e.err != bus.OK || (e.readOff >= e.cur.Elems && len(e.ready) == 0)) {
		e.retire(cycle)
		return
	}
	if e.err != bus.OK {
		return
	}
	// Writes first: retiring data frees buffer space and keeps the
	// destination memory fed.
	if e.canWrite() {
		c := e.ready[0]
		e.ready = e.ready[1:]
		es := e.cur.DType.Size()
		tag := e.port.Issue(bus.Request{
			Op:    bus.OpWriteBurst,
			SM:    e.cur.DstSM,
			VPtr:  e.cur.DstVPtr + c.off*es,
			Dim:   uint32(len(c.data)),
			Burst: c.data,
			DType: e.cur.DType,
		})
		e.inflight[tag] = c
		e.isWrite[tag] = true
	}
	// Read ahead while the window has room: each buffered or in-flight
	// chunk occupies one window slot. A read passes no destination
	// buffer: the chunk keeps the slice the slave returns until its
	// write completes (see the bus package's read-burst rule).
	if e.canRead() {
		n := e.cur.Elems - e.readOff
		if n > e.cur.Chunk {
			n = e.cur.Chunk
		}
		es := e.cur.DType.Size()
		tag := e.port.Issue(bus.Request{
			Op:    bus.OpReadBurst,
			SM:    e.cur.SrcSM,
			VPtr:  e.cur.SrcVPtr + e.readOff*es,
			Dim:   n,
			DType: e.cur.DType,
		})
		e.inflight[tag] = &chunk{off: e.readOff, n: n}
		e.readOff += n
	}
}

// drainCompletions consumes every completion deliverable this cycle and
// advances the matching chunks. After an error, writes already issued
// still count as moved; read data is dropped.
func (e *Engine) drainCompletions() {
	for tag, resp := range e.port.Completions() {
		c := e.inflight[tag]
		write := e.isWrite[tag]
		delete(e.inflight, tag)
		delete(e.isWrite, tag)
		switch {
		case resp.Err != bus.OK:
			if e.err == bus.OK {
				e.err = resp.Err
				e.ready = nil
			}
		case write:
			e.written += c.n
			e.stats.ElemsMoved += uint64(c.n)
		case e.err == bus.OK:
			c.data = resp.Burst
			e.ready = append(e.ready, c)
		}
	}
}

func (e *Engine) retire(cycle uint64) {
	if e.err != bus.OK {
		e.stats.Errors++
	}
	e.done = append(e.done, Status{Desc: e.cur, Err: e.err, Moved: e.written, DoneCycle: cycle})
	e.stats.Descriptors++
	e.active = false
}

// NextWake implements sim.Sleeper. With an empty queue the engine is
// fully drained (Enqueue happens between steps, and NextWake is
// re-queried at every skip opportunity, so host-side enqueues are seen
// immediately). Blocked purely on completions, the engine resumes on the
// completion signal; whenever it could retire or an issue slot could
// fire it ticks every cycle.
func (e *Engine) NextWake(now uint64) uint64 {
	if !e.active {
		if len(e.queue) > 0 {
			return now
		}
		return sim.WakeNever
	}
	// Nothing outstanding means the next tick retires or issues.
	if len(e.inflight) == 0 || e.port.HasCompletion() {
		return now
	}
	if e.err == bus.OK && (e.canWrite() || e.canRead()) {
		return now
	}
	return sim.WakeNever
}

// Skip implements sim.Sleeper: waiting on a burst response is busy time.
func (e *Engine) Skip(n uint64) {
	if e.active {
		e.stats.BusyCycles += n
	}
}
