package heapsim

import (
	"fmt"

	"repro/internal/bus"
	"repro/internal/snapshot"
)

// WalkState walks the heap memory: the Server's registers — with the
// eager response and its operation in place of the request — the
// sampled input registers, the stats, the heap's operation counters,
// and the raw arena image. The arena bytes carry the allocator's entire
// metadata (all four policies keep their free lists, headers, and
// bitmaps inside the simulated arena — the Go-side policy structs are
// stateless), so walking the image walks the allocator. Build has
// already formatted a fresh arena; loading overwrites it wholesale and
// never re-formats it.
func (h *HeapMem) WalkState(c *snapshot.Codec) error {
	h.WalkFSM(c, func(cur *bus.Request) {
		h.resp.Walk(c)
		snapshot.Byte(c, &h.curOp)
		if c.Loading() {
			cur.Op = h.curOp // the Server counts the response under it
		}
	})
	h.in.Walk(c)
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

// Check adds the arena to the Server's check: the allocator's free
// lists and blocks must tile it, or the next allocation would follow a
// link out of it.
func (h *HeapMem) Check() error {
	if err := h.heap.CheckInvariants(); err != nil {
		return fmt.Errorf("%s: arena: %w", h.cfg.Name, err)
	}
	return h.Server.Check()
}
