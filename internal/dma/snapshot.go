package dma

import (
	"sort"

	"repro/internal/bus"
	"repro/internal/snapshot"
)

func encodeDescriptor(enc *snapshot.Encoder, d Descriptor) {
	enc.Int(d.SrcSM)
	enc.Int(d.DstSM)
	enc.U32(d.SrcVPtr)
	enc.U32(d.DstVPtr)
	enc.U32(d.Elems)
	enc.U8(uint8(d.DType))
	enc.U32(d.Chunk)
}

func decodeDescriptor(dec *snapshot.Decoder) Descriptor {
	var d Descriptor
	d.SrcSM = dec.Int()
	d.DstSM = dec.Int()
	d.SrcVPtr = dec.U32()
	d.DstVPtr = dec.U32()
	d.Elems = dec.U32()
	d.DType = bus.DataType(dec.U8())
	d.Chunk = dec.U32()
	return d
}

func encodeChunk(enc *snapshot.Encoder, c *chunk) {
	enc.U32(c.off)
	enc.U32(c.n)
	enc.U32s(c.data)
}

func decodeChunk(dec *snapshot.Decoder) *chunk {
	return &chunk{off: dec.U32(), n: dec.U32(), data: dec.U32s()}
}

// SaveState implements snapshot.Saver: the descriptor queue, completed
// statuses, the descriptor in progress and every in-flight chunk. The inflight map and the ready slice hold
// disjoint chunk sets (a chunk moves from ready to inflight when its
// write issues), so they serialize independently without aliasing.
func (e *Engine) SaveState(enc *snapshot.Encoder) {
	enc.U32(uint32(len(e.queue)))
	for _, d := range e.queue {
		encodeDescriptor(enc, d)
	}
	enc.U32(uint32(len(e.done)))
	for _, s := range e.done {
		encodeDescriptor(enc, s.Desc)
		enc.U8(uint8(s.Err))
		enc.U32(s.Moved)
		enc.U64(s.DoneCycle)
	}
	enc.Bool(e.active)
	encodeDescriptor(enc, e.cur)
	enc.U8(uint8(e.err))
	enc.U32(e.readOff)
	enc.U32(e.written)
	tags := make([]bus.Tag, 0, len(e.inflight))
	for t := range e.inflight {
		tags = append(tags, t)
	}
	sort.Slice(tags, func(i, j int) bool { return tags[i] < tags[j] })
	enc.U32(uint32(len(tags)))
	for _, t := range tags {
		enc.U64(uint64(t))
		enc.Bool(e.isWrite[t])
		encodeChunk(enc, e.inflight[t])
	}
	enc.U32(uint32(len(e.ready)))
	for _, c := range e.ready {
		encodeChunk(enc, c)
	}
	enc.U64(e.stats.Descriptors)
	enc.U64(e.stats.ElemsMoved)
	enc.U64(e.stats.Errors)
	enc.U64(e.stats.BusyCycles)
}

// RestoreState implements snapshot.Restorer.
func (e *Engine) RestoreState(dec *snapshot.Decoder) error {
	e.queue = nil
	for n := dec.U32(); n > 0 && dec.Err() == nil; n-- {
		e.queue = append(e.queue, decodeDescriptor(dec))
	}
	e.done = nil
	for n := dec.U32(); n > 0 && dec.Err() == nil; n-- {
		var s Status
		s.Desc = decodeDescriptor(dec)
		s.Err = bus.ErrCode(dec.U8())
		s.Moved = dec.U32()
		s.DoneCycle = dec.U64()
		e.done = append(e.done, s)
	}
	e.active = dec.Bool()
	e.cur = decodeDescriptor(dec)
	e.err = bus.ErrCode(dec.U8())
	e.readOff = dec.U32()
	e.written = dec.U32()
	e.inflight = make(map[bus.Tag]*chunk)
	e.isWrite = make(map[bus.Tag]bool)
	for n := dec.U32(); n > 0 && dec.Err() == nil; n-- {
		tag := bus.Tag(dec.U64())
		w := dec.Bool()
		e.inflight[tag] = decodeChunk(dec)
		e.isWrite[tag] = w
	}
	e.ready = nil
	for n := dec.U32(); n > 0 && dec.Err() == nil; n-- {
		e.ready = append(e.ready, decodeChunk(dec))
	}
	e.stats.Descriptors = dec.U64()
	e.stats.ElemsMoved = dec.U64()
	e.stats.Errors = dec.U64()
	e.stats.BusyCycles = dec.U64()
	return dec.Finish()
}
