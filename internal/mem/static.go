package mem

import (
	"repro/internal/bus"
	"repro/internal/sim"
	"repro/internal/snapshot"
)

// Delays are the static RAM's timing parameters, a subset of the
// wrapper's: static memories have no allocation path.
type Delays struct {
	Decode       uint32
	Read         uint32
	Write        uint32
	BurstBase    uint32
	BurstPerElem uint32
}

// DefaultDelays matches the wrapper's default scalar timings so that E2
// compares functional overhead, not configured latency.
func DefaultDelays() Delays {
	return Delays{Decode: 1, Read: 1, Write: 1, BurstBase: 1, BurstPerElem: 1}
}

// OpCycles returns the data-path cycles of req: a scalar access or a
// burst transfer. Other operations cost none.
func (d *Delays) OpCycles(req bus.Request) uint32 {
	switch req.Op {
	case bus.OpRead:
		return d.Read
	case bus.OpWrite:
		return d.Write
	case bus.OpReadBurst:
		return d.BurstBase + d.BurstPerElem*req.Dim
	case bus.OpWriteBurst:
		return d.BurstBase + d.BurstPerElem*uint32(len(req.Burst))
	default:
		return 0
	}
}

// Config parameterizes a StaticRAM.
type Config struct {
	// Name labels the module.
	Name string
	// Size is the table size in bytes, allocated in full at construction
	// (that is the point of the static model).
	Size uint32
	// Delays are the timing parameters; zero values mean minimum latency.
	Delays Delays
}

// Latch is the input register bank a cycle-true memory samples every
// clock, whether or not a request is arriving (see core.Wrapper's
// ioRegs note). StaticRAM and HeapMem latch these fields; the wrapper
// also latches sm and master.
type Latch struct {
	pending         bool
	op              bus.Op
	vptr, data, dim uint32
	dtype           bus.DataType
}

// Sample latches the head of port's request queue, or zeroes the
// registers when the queue is empty.
func (l *Latch) Sample(port *bus.Port) {
	if q, ok := port.Peek(); ok {
		l.pending = true
		l.op, l.vptr, l.data, l.dim, l.dtype = q.Op, q.VPtr, q.Data, q.Dim, q.DType
	} else {
		*l = Latch{}
	}
}

// Walk walks the registers in field order.
func (l *Latch) Walk(c *snapshot.Codec) {
	c.Bool(&l.pending)
	snapshot.Byte(c, &l.op)
	c.U32(&l.vptr)
	c.U32(&l.data)
	c.U32(&l.dim)
	snapshot.Byte(c, &l.dtype)
}

// StaticRAM is a table memory module: a fixed little-endian byte array
// addressed directly by VPtr. Dynamic operations answer ErrBadOp. It
// serves its port with the same Server as the wrapper, so the two
// models differ only functionally.
type StaticRAM struct {
	Server[*StaticRAM]
	cfg   Config
	data  []byte
	in    Latch
	stats Stats
}

// NewStaticRAM creates the module, allocates its full table, and
// registers it with the kernel.
func NewStaticRAM(k *sim.Kernel, cfg Config, port *bus.Port) *StaticRAM {
	if cfg.Name == "" {
		cfg.Name = "sram"
	}
	r := &StaticRAM{cfg: cfg, data: make([]byte, cfg.Size)}
	r.Server = NewServer(r, port, &r.stats, &staticHooks)
	k.Add(r)
	return r
}

// staticHooks time a StaticRAM by its Delays and serve it from its table.
var staticHooks = Hooks[*StaticRAM]{
	Decode: func(r *StaticRAM, _ bus.Request) uint32 { return r.cfg.Delays.Decode },
	Exec:   func(r *StaticRAM, req bus.Request, _ uint64) uint32 { return r.cfg.Delays.OpCycles(req) },
	Respond: func(r *StaticRAM, req bus.Request) bus.Response {
		return ExecuteTable(r.data, req, &r.stats.BurstElems)
	},
}

// Name implements sim.Module.
func (r *StaticRAM) Name() string { return r.cfg.Name }

// Stats returns a snapshot of the counters.
func (r *StaticRAM) Stats() Stats { return r.stats }

// Size returns the configured table size in bytes.
func (r *StaticRAM) Size() uint32 { return r.cfg.Size }

// Peek returns the byte at addr for white-box tests.
func (r *StaticRAM) Peek(addr uint32) byte { return r.data[addr] }

// Tick implements sim.Module: latch the inputs, then run the Server.
func (r *StaticRAM) Tick(cycle uint64) {
	r.in.Sample(r.port)
	r.Server.Tick(cycle)
}
