package heapsim

import (
	"repro/internal/snapshot"
)

// WalkState walks the heap memory: the module FSM, the sampled input
// registers, the stats, the heap's operation counters, and the raw
// arena image. The arena bytes carry the allocator's entire metadata
// (all four policies keep their free lists, headers, and bitmaps inside
// the simulated arena — the Go-side policy structs are stateless), so
// walking the image walks the allocator. Build has already formatted a
// fresh arena; loading overwrites it wholesale and never re-formats it.
func (h *HeapMem) WalkState(c *snapshot.Codec) error {
	snapshot.Byte(c, &h.state)
	c.U32(&h.wait)
	h.resp.Walk(c)
	snapshot.Byte(c, &h.curOp)
	snapshot.Word(c, &h.curTag)
	c.Bool(&h.in.pending)
	snapshot.Byte(c, &h.in.op)
	c.U32(&h.in.vptr)
	c.U32(&h.in.data)
	c.U32(&h.in.dim)
	snapshot.Byte(c, &h.in.dtype)
	c.U64Array(h.stats.Ops[:])
	c.U64Array(h.stats.Errors[:])
	c.U64(&h.stats.BusyCycles)
	c.U64(&h.stats.MgrAccesses)
	c.U64(&h.stats.MgrCycles)
	c.U64(&h.stats.BurstElems)
	c.U64(&h.stats.AllocFailures)
	c.U64(&h.heap.Accesses)
	c.U64(&h.heap.Allocs)
	c.U64(&h.heap.Frees)
	c.U64(&h.heap.Failed)
	c.Image(h.heap.arena)
	return c.Err()
}
