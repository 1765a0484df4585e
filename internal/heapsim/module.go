package heapsim

import (
	"repro/internal/alloc"
	"repro/internal/bus"
	"repro/internal/mem"
	"repro/internal/sim"
)

// Config parameterizes a HeapMem module.
type Config struct {
	// Name labels the module.
	Name string
	// ArenaSize is the simulated heap size in bytes. It must be at
	// least alloc.MinArena(Policy); NewHeapMem errors otherwise.
	ArenaSize uint32
	// Policy selects the in-arena allocation policy (see
	// internal/alloc). The zero value is first-fit, the historical
	// allocator, bit-identical to the pre-policy module.
	Policy alloc.Kind
	// WordLatency is the simulated cycles charged per 32-bit allocator
	// access (free-list walk steps, header updates, zeroing). Defaults
	// to 1 when zero. This is the knob that makes the detailed model
	// "slow but accurate": the latency of malloc/free emerges from the
	// data structure traffic instead of a flat parameter.
	WordLatency uint32
	// Decode is the per-transaction decode time, matching the wrapper's.
	Decode uint32
	// Read and Write are the scalar data access latencies.
	Read, Write uint32
	// BurstBase and BurstPerElem time burst transfers.
	BurstBase, BurstPerElem uint32
	// NoZero disables calloc-style zeroing of allocations. The default
	// (false) zeroes, matching the wrapper's calloc semantics.
	NoZero bool
}

// Stats counts module activity.
type Stats struct {
	mem.Stats
	MgrAccesses   uint64 // allocator metadata accesses (from Heap)
	MgrCycles     uint64 // cycles spent on allocator traffic
	AllocFailures uint64
}

// HeapMem is the detailed dynamic-memory module: the same bus protocol as
// the wrapper, but alloc and free are executed by the in-arena free-list
// allocator and charged per metadata access. Reads and writes address the
// arena directly (VPtr is an arena offset, as returned by OpAlloc) through
// mem.ExecuteTable. Reservations are not modelled (ErrBadOp), as the
// conventional models the paper displaces did not have them either.
//
// It serves its port with the mem.Server every memory model shares, but
// executes each request eagerly the cycle it is popped, recording the
// allocator traffic, and charges the whole derived delay as decode
// cycles: it has no exec phase, and holds the response until the delay
// has elapsed. Functional effects are invisible to other masters until
// the response is published, so eager execution is indistinguishable
// from end-of-delay execution.
type HeapMem struct {
	mem.Server[*HeapMem]
	cfg    Config
	timing mem.Delays // cfg's data-path cycles
	heap   *Heap
	resp   bus.Response // computed by serve, held until the delay elapses
	curOp  bus.Op       // the last request's op; its section carries it for the request
	in     mem.Latch
	stats  Stats
}

// NewHeapMem creates the module and registers it with the kernel. It
// errors when the arena is too small for the configured policy's
// metadata plus one block (see alloc.MinArena).
func NewHeapMem(k *sim.Kernel, cfg Config, port *bus.Port) (*HeapMem, error) {
	if cfg.Name == "" {
		cfg.Name = "heapsim"
	}
	if cfg.WordLatency == 0 {
		cfg.WordLatency = 1
	}
	heap, err := NewHeapPolicy(cfg.ArenaSize, cfg.Policy)
	if err != nil {
		return nil, err
	}
	m := &HeapMem{cfg: cfg, heap: heap, timing: mem.Delays{
		Read: cfg.Read, Write: cfg.Write, BurstBase: cfg.BurstBase, BurstPerElem: cfg.BurstPerElem,
	}}
	m.Server = mem.NewServer(m, port, &m.stats.Stats, &heapHooks)
	k.Add(m)
	return m, nil
}

// heapHooks serve a HeapMem eagerly at decode, with no exec phase.
var heapHooks = mem.Hooks[*HeapMem]{Decode: (*HeapMem).serve, Respond: (*HeapMem).respond}

// Name implements sim.Module.
func (m *HeapMem) Name() string { return m.cfg.Name }

// Heap exposes the allocator for white-box tests and experiments.
func (m *HeapMem) Heap() *Heap { return m.heap }

// Stats returns a snapshot of the counters.
func (m *HeapMem) Stats() Stats { return m.stats }

// Tick implements sim.Module: latch the inputs, then run the Server.
func (m *HeapMem) Tick(cycle uint64) {
	m.in.Sample(m.Port())
	m.Server.Tick(cycle)
}

// serve is the Server's Decode hook: it executes req, charges the
// allocator traffic it caused, and returns the whole delay.
func (m *HeapMem) serve(req bus.Request) uint32 {
	before := m.heap.Accesses
	resp, dataCycles := m.execute(req)
	mgr := uint32(m.heap.Accesses - before)
	m.stats.MgrAccesses += uint64(mgr)
	mgrCycles := mgr * m.cfg.WordLatency
	m.stats.MgrCycles += uint64(mgrCycles)
	m.resp, m.curOp = resp, req.Op
	return m.cfg.Decode + mgrCycles + dataCycles
}

// respond is the Server's Respond hook: it hands over the response
// serve computed.
func (m *HeapMem) respond(bus.Request) bus.Response {
	resp := m.resp
	m.resp = bus.Response{}
	return resp
}

// execute performs the functional operation, returning the response and
// the data-path cycles to charge (allocator cycles are derived from the
// access counter by the caller).
func (m *HeapMem) execute(req bus.Request) (bus.Response, uint32) {
	switch req.Op {
	case bus.OpAlloc:
		bytes := uint64(req.Dim) * uint64(req.DType.Size())
		if req.Dim == 0 || bytes > uint64(m.heap.Size()) {
			m.stats.AllocFailures++
			return bus.Response{Err: bus.ErrCapacity}, 0
		}
		addr, ok := m.heap.Alloc(uint32(bytes), !m.cfg.NoZero)
		if !ok {
			m.stats.AllocFailures++
			return bus.Response{Err: bus.ErrCapacity}, 0
		}
		return bus.Response{VPtr: addr}, 0

	case bus.OpFree:
		if !m.heap.Free(req.VPtr) {
			return bus.Response{Err: bus.ErrBadVPtr}, 0
		}
		return bus.Response{}, 0

	default:
		return mem.ExecuteTable(m.heap.Arena(), req, &m.stats.BurstElems), m.timing.OpCycles(req)
	}
}
