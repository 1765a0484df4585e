package mem

import (
	"repro/internal/bus"
)

// ExecuteTable implements the flat table-memory operation semantics
// shared by StaticRAM, DRAM and the heapsim arena: a fixed
// little-endian byte array addressed directly by VPtr, dynamic
// operations rejected with ErrBadOp. burstElems is bumped by the
// element count of burst operations.
func ExecuteTable(data []byte, req bus.Request, burstElems *uint64) bus.Response {
	es := req.DType.Size()
	// fits reports whether n elements from VPtr lie inside data. The
	// span is 64-bit: a burst of 2³⁰+1 words must not wrap to 4 bytes.
	fits := func(n uint32) bool {
		return uint64(req.VPtr)+uint64(es)*uint64(n) <= uint64(len(data))
	}
	switch req.Op {
	case bus.OpRead:
		if !fits(1) {
			return bus.Response{Err: bus.ErrBounds}
		}
		return bus.Response{Data: req.DType.ReadElem(data[req.VPtr:])}

	case bus.OpWrite:
		if !fits(1) {
			return bus.Response{Err: bus.ErrBounds}
		}
		req.DType.WriteElem(data[req.VPtr:], req.Data)
		return bus.Response{}

	case bus.OpReadBurst:
		if !fits(req.Dim) {
			return bus.Response{Err: bus.ErrBounds}
		}
		out := req.ReadBuffer()
		for i := uint32(0); i < req.Dim; i++ {
			out[i] = req.DType.ReadElem(data[req.VPtr+i*es:])
		}
		*burstElems += uint64(req.Dim)
		return bus.Response{Burst: out}

	case bus.OpWriteBurst:
		n := uint32(len(req.Burst))
		if !fits(n) {
			return bus.Response{Err: bus.ErrBounds}
		}
		for i, v := range req.Burst {
			req.DType.WriteElem(data[req.VPtr+uint32(i)*es:], v)
		}
		*burstElems += uint64(n)
		return bus.Response{}

	default:
		// Flat tables have no dynamic operations.
		return bus.Response{Err: bus.ErrBadOp}
	}
}
