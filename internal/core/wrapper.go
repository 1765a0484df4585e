package core

import (
	"repro/internal/alloc"
	"repro/internal/bus"
	"repro/internal/mem"
	"repro/internal/sim"
)

// Config parameterizes one dynamic shared memory wrapper instance.
type Config struct {
	// Name labels the module in diagnostics and stats.
	Name string
	// TotalSize is the simulated capacity in bytes; allocations beyond it
	// are denied with ErrCapacity (the paper's finite-size modelling).
	// Zero means unlimited.
	TotalSize uint32
	// Endian is the simulated target's byte order.
	Endian Endian
	// Delays are the FSM timing parameters; the zero value is legal
	// (every operation completes in the minimum handshake time).
	Delays DelayParams
	// Host supplies host memory; nil selects GoAllocator.
	Host HostAllocator
	// EnforceReadReservation extends reservation protection to scalar and
	// burst reads. Writes and frees are always protected. Off by default:
	// concurrent readers of a reserved buffer remain legal, which is what
	// the GSM pipeline wants.
	EnforceReadReservation bool
	// LinearLookup forces linear pointer-table search (ablation A2).
	LinearLookup bool
	// Policy selects the virtual-address placement policy (see
	// internal/alloc and PointerTable): the zero value keeps the
	// paper's bump rule; a concrete policy reuses freed virtual ranges
	// and requires a finite TotalSize. Placement is functional only —
	// it never adds simulated cycles.
	Policy alloc.Kind
}

// Stats counts wrapper activity. All cycle figures are simulated cycles.
type Stats struct {
	mem.Stats
	// Host-call traffic (also available from a CountingAllocator, but
	// recorded here so every wrapper reports it by default).
	HostAllocs uint64
	HostFrees  uint64
	HostBytes  uint64
}

// ioRegs are the wrapper's input registers (the "I/O registers" of the
// paper's Figure 2). A cycle-true FSM samples its input port every clock
// cycle whether or not a transaction is arriving — the original
// C++/GEZEL modules were evaluated unconditionally each cycle — so the
// wrapper latches these every Tick. This costs the host what a
// hardware-faithful FSM evaluation costs, which is exactly the per-module
// overhead experiment E1 measures.
type ioRegs struct {
	pending bool
	op      bus.Op
	sm      int
	vptr    uint32
	data    uint32
	dim     uint32
	dtype   bus.DataType
	master  int
}

// Wrapper is the dynamic shared memory module: the cycle-true FSM of the
// paper's Figure 2 driving the functional part (pointer table +
// translator + host calls). It serves one bus.Port as a slave: requests
// queue on the port (up to its depth) and the FSM pops the next one the
// moment it returns to Idle, so back-to-back split transactions pipeline
// through the memory without a bus turnaround in between.
//
// The FSM is the mem.Server every memory model shares: Idle –(request)→
// Decode (I → A, Delays.Decode cycles) → Exec (F/W/R, the operation's
// cycles) → complete, back to Idle. The functional effect happens at the
// final cycle, so responses and memory state changes are exactly as late
// as the configured hardware timing says.
type Wrapper struct {
	mem.Server[*Wrapper]
	cfg   Config
	table *PointerTable
	tr    Translator
	in    ioRegs
	stats Stats
}

// NewWrapper creates a wrapper with config cfg serving requests from
// port, and registers it with the kernel. It errors when the placement
// policy configuration is unsatisfiable (no or too small TotalSize).
func NewWrapper(k *sim.Kernel, cfg Config, port *bus.Port) (*Wrapper, error) {
	if cfg.Name == "" {
		cfg.Name = "wrapper"
	}
	table, err := NewPointerTablePolicy(cfg.TotalSize, cfg.Host, cfg.Policy)
	if err != nil {
		return nil, err
	}
	w := &Wrapper{
		cfg:   cfg,
		table: table,
		tr:    Translator{Target: cfg.Endian},
	}
	w.Server = mem.NewServer(w, port, &w.stats.Stats, &wrapperHooks)
	w.table.Linear = cfg.LinearLookup
	k.Add(w)
	return w, nil
}

// wrapperHooks time a Wrapper by its DelayParams and serve it through
// its pointer table.
var wrapperHooks = mem.Hooks[*Wrapper]{
	Decode:  func(w *Wrapper, _ bus.Request) uint32 { return w.cfg.Delays.Decode },
	Exec:    func(w *Wrapper, req bus.Request, _ uint64) uint32 { return w.cfg.Delays.opCycles(req) },
	Respond: (*Wrapper).execute,
}

// Name implements sim.Module.
func (w *Wrapper) Name() string { return w.cfg.Name }

// Table exposes the pointer table for inspection by tests, stats and the
// experiment harness. Simulated software must of course go through the
// bus protocol.
func (w *Wrapper) Table() *PointerTable { return w.table }

// Stats returns a snapshot of the accumulated counters.
func (w *Wrapper) Stats() Stats { return w.stats }

// sampleInputs latches the input port into the I/O registers, as the
// cycle-true FSM does on every clock edge. Peek returns the head of the
// port's request queue together with its validity, so an idle queue can
// never alias a previously latched request.
func (w *Wrapper) sampleInputs() {
	if r, ok := w.Port().Peek(); ok {
		w.in = ioRegs{
			pending: true,
			op:      r.Op,
			sm:      r.SM,
			vptr:    r.VPtr,
			data:    r.Data,
			dim:     r.Dim,
			dtype:   r.DType,
			master:  r.Master,
		}
	} else {
		w.in = ioRegs{}
	}
}

// Tick implements sim.Module: latch the inputs, then run the FSM.
func (w *Wrapper) Tick(cycle uint64) {
	w.sampleInputs()
	w.Server.Tick(cycle)
}

// execute performs the functional part of one request against the pointer
// table, translator and host. It is pure with respect to simulation time:
// all timing has already been charged by the FSM.
func (w *Wrapper) execute(req bus.Request) bus.Response {
	switch req.Op {
	case bus.OpAlloc:
		vptr, code := w.table.Alloc(req.Dim, req.DType)
		if code != bus.OK {
			return bus.Response{Err: code}
		}
		w.stats.HostAllocs++
		w.stats.HostBytes += uint64(req.Dim) * uint64(req.DType.Size())
		return bus.Response{VPtr: vptr}

	case bus.OpFree:
		code := w.table.Free(req.VPtr, req.Master)
		if code == bus.OK {
			w.stats.HostFrees++
		}
		return bus.Response{Err: code}

	case bus.OpRead:
		e, off, ok := w.table.Resolve(req.VPtr)
		if !ok {
			return bus.Response{Err: bus.ErrBadVPtr}
		}
		if w.cfg.EnforceReadReservation && e.Reserved && e.Owner != req.Master {
			return bus.Response{Err: bus.ErrReserved}
		}
		elem, code := elemIndex(e, off, 1)
		if code != bus.OK {
			return bus.Response{Err: code}
		}
		return bus.Response{Data: w.tr.ReadElem(e.Host, e.DType, elem)}

	case bus.OpWrite:
		e, off, ok := w.table.Resolve(req.VPtr)
		if !ok {
			return bus.Response{Err: bus.ErrBadVPtr}
		}
		if e.Reserved && e.Owner != req.Master {
			return bus.Response{Err: bus.ErrReserved}
		}
		elem, code := elemIndex(e, off, 1)
		if code != bus.OK {
			return bus.Response{Err: code}
		}
		w.tr.WriteElem(e.Host, e.DType, elem, req.Data)
		return bus.Response{}

	case bus.OpReadBurst:
		e, off, ok := w.table.Resolve(req.VPtr)
		if !ok {
			return bus.Response{Err: bus.ErrBadVPtr}
		}
		if w.cfg.EnforceReadReservation && e.Reserved && e.Owner != req.Master {
			return bus.Response{Err: bus.ErrReserved}
		}
		elem, code := elemIndex(e, off, req.Dim)
		if code != bus.OK {
			return bus.Response{Err: code}
		}
		w.stats.BurstElems += uint64(req.Dim)
		return bus.Response{Burst: w.tr.ReadBurst(e.Host, e.DType, elem, req.Dim)}

	case bus.OpWriteBurst:
		e, off, ok := w.table.Resolve(req.VPtr)
		if !ok {
			return bus.Response{Err: bus.ErrBadVPtr}
		}
		if e.Reserved && e.Owner != req.Master {
			return bus.Response{Err: bus.ErrReserved}
		}
		elem, code := elemIndex(e, off, uint32(len(req.Burst)))
		if code != bus.OK {
			return bus.Response{Err: code}
		}
		w.stats.BurstElems += uint64(len(req.Burst))
		w.tr.WriteBurst(e.Host, e.DType, elem, req.Burst)
		return bus.Response{}

	case bus.OpReserve:
		return bus.Response{Err: w.table.Reserve(req.VPtr, req.Master)}

	case bus.OpRelease:
		return bus.Response{Err: w.table.Release(req.VPtr, req.Master)}

	default:
		return bus.Response{Err: bus.ErrBadOp}
	}
}

// elemIndex converts a byte offset inside an entry to an element index and
// bounds-checks n elements from there. Unaligned offsets (pointer
// arithmetic that lands mid-element) and overruns yield ErrBounds.
func elemIndex(e *Entry, off, n uint32) (uint32, bus.ErrCode) {
	es := e.DType.Size()
	if off%es != 0 {
		return 0, bus.ErrBounds
	}
	idx := off / es
	if uint64(idx)+uint64(n) > uint64(e.Dim) {
		return 0, bus.ErrBounds
	}
	return idx, bus.OK
}
