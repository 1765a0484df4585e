package dma

import (
	"fmt"

	"repro/internal/bus"
	"repro/internal/snapshot"
)

func (d *Descriptor) walk(c *snapshot.Codec) {
	c.Int(&d.SrcSM)
	c.Int(&d.DstSM)
	c.U32(&d.SrcVPtr)
	c.U32(&d.DstVPtr)
	c.U32(&d.Elems)
	snapshot.Byte(c, &d.DType)
	c.U32(&d.Chunk)
}

// walkChunk walks one chunk, allocating it when loading.
func walkChunk(c *snapshot.Codec, p **chunk) {
	if *p == nil {
		*p = new(chunk)
	}
	ch := *p
	c.U32(&ch.off)
	c.U32(&ch.n)
	c.U32s(&ch.data)
}

// WalkState walks the descriptor queue, completed statuses, the
// descriptor in progress and every in-flight chunk. The inflight map and
// the ready slice hold disjoint chunk sets (a chunk moves from ready to
// inflight when its write issues), so they travel independently without
// aliasing.
func (e *Engine) WalkState(c *snapshot.Codec) error {
	snapshot.Slice(c, &e.queue, func(d *Descriptor) { d.walk(c) })
	snapshot.Slice(c, &e.done, func(s *Status) {
		s.Desc.walk(c)
		snapshot.Byte(c, &s.Err)
		c.U32(&s.Moved)
		c.U64(&s.DoneCycle)
	})
	c.Bool(&e.active)
	e.cur.walk(c)
	snapshot.Byte(c, &e.err)
	c.U32(&e.readOff)
	c.U32(&e.written)
	if c.Loading() {
		e.isWrite = make(map[bus.Tag]bool)
	}
	snapshot.Map(c, &e.inflight, func(t bus.Tag, ch *chunk) *chunk {
		w := e.isWrite[t]
		c.Bool(&w)
		if c.Loading() {
			e.isWrite[t] = w
		}
		walkChunk(c, &ch)
		return ch
	})
	snapshot.Slice(c, &e.ready, func(ch **chunk) { walkChunk(c, ch) })
	c.U64(&e.stats.Descriptors)
	c.U64(&e.stats.ElemsMoved)
	c.U64(&e.stats.Errors)
	c.U64(&e.stats.BusyCycles)
	return c.Err()
}

// Check reports an error unless the in-flight table holds exactly the
// transactions outstanding on the engine's port: a completion with no
// entry has no chunk to land in, and an entry with no transaction keeps
// the descriptor from ever retiring.
func (e *Engine) Check() error {
	if n := e.port.Outstanding(); len(e.inflight) != n {
		return fmt.Errorf("%s: %d chunks in flight, port %s holds %d", e.name, len(e.inflight), e.port.Name(), n)
	}
	for tag := range e.inflight {
		if !e.port.Holds(tag) {
			return fmt.Errorf("%s: chunk in flight under tag %d, which port %s does not hold", e.name, tag, e.port.Name())
		}
	}
	return nil
}
