package smapi

import (
	"repro/internal/bus"
)

// Mem is the high-level shared-memory API bound to one memory module
// (one sm_addr), mirroring the host machine's own functions: Malloc,
// Free, Read, Write, plus array transfers and the reservation semaphore.
// Every call is one bus transaction and blocks the calling task in
// simulated time until the wrapper responds.
type Mem struct {
	p  *Proc
	sm int
}

// Malloc allocates dim elements of type dt, returning the virtual
// pointer. Maps to calloc on the host, so the memory reads as zero.
func (m *Mem) Malloc(dim uint32, dt bus.DataType) (uint32, bus.ErrCode) {
	resp := m.p.transact(bus.Request{Op: bus.OpAlloc, SM: m.sm, Dim: dim, DType: dt})
	return resp.VPtr, resp.Err
}

// Calloc is an alias for Malloc: the wrapper's allocations are always
// zeroed, exactly like the paper's calloc mapping.
func (m *Mem) Calloc(dim uint32, dt bus.DataType) (uint32, bus.ErrCode) {
	return m.Malloc(dim, dt)
}

// Free deallocates the allocation starting at vptr.
func (m *Mem) Free(vptr uint32) bus.ErrCode {
	return m.p.transact(bus.Request{Op: bus.OpFree, SM: m.sm, VPtr: vptr}).Err
}

// Read returns the element at vptr.
func (m *Mem) Read(vptr uint32) (uint32, bus.ErrCode) {
	resp := m.p.transact(bus.Request{Op: bus.OpRead, SM: m.sm, VPtr: vptr})
	return resp.Data, resp.Err
}

// Write stores val into the element at vptr.
func (m *Mem) Write(vptr uint32, val uint32) bus.ErrCode {
	return m.p.transact(bus.Request{Op: bus.OpWrite, SM: m.sm, VPtr: vptr, Data: val}).Err
}

// ReadAs reads the element at vptr as type dt. Typed memories (the
// static table, a cache line) use dt for element width and sign
// extension; the wrapper resolves the type from its pointer table and
// ignores dt.
func (m *Mem) ReadAs(vptr uint32, dt bus.DataType) (uint32, bus.ErrCode) {
	resp := m.p.transact(bus.Request{Op: bus.OpRead, SM: m.sm, VPtr: vptr, DType: dt})
	return resp.Data, resp.Err
}

// WriteAs stores val into the element at vptr as type dt (see ReadAs).
func (m *Mem) WriteAs(vptr uint32, val uint32, dt bus.DataType) bus.ErrCode {
	return m.p.transact(bus.Request{Op: bus.OpWrite, SM: m.sm, VPtr: vptr, Data: val, DType: dt}).Err
}

// ReadArray reads n consecutive elements starting at vptr through the
// wrapper's I/O array. It passes no destination buffer, so the slave
// returns a new slice, which the caller keeps (see the bus package's
// read-burst rule).
func (m *Mem) ReadArray(vptr, n uint32) ([]uint32, bus.ErrCode) {
	resp := m.p.transact(bus.Request{Op: bus.OpReadBurst, SM: m.sm, VPtr: vptr, Dim: n})
	return resp.Burst, resp.Err
}

// WriteArray writes data to consecutive elements starting at vptr
// through the wrapper's I/O array.
func (m *Mem) WriteArray(vptr uint32, data []uint32) bus.ErrCode {
	return m.p.transact(bus.Request{Op: bus.OpWriteBurst, SM: m.sm, VPtr: vptr, Dim: uint32(len(data)), Burst: data}).Err
}

// Reserve attempts to set the reservation bit on the allocation
// containing vptr. A single attempt; see Acquire for the blocking form.
func (m *Mem) Reserve(vptr uint32) bus.ErrCode {
	return m.p.transact(bus.Request{Op: bus.OpReserve, SM: m.sm, VPtr: vptr}).Err
}

// Release clears the reservation bit held by this PE.
func (m *Mem) Release(vptr uint32) bus.ErrCode {
	return m.p.transact(bus.Request{Op: bus.OpRelease, SM: m.sm, VPtr: vptr}).Err
}

// Acquire spins until the reservation is obtained, backing off backoff
// cycles between attempts (minimum 1). It returns a non-OK code only for
// errors other than contention (for example a dangling pointer).
func (m *Mem) Acquire(vptr uint32, backoff uint64) bus.ErrCode {
	if backoff == 0 {
		backoff = 1
	}
	for {
		code := m.Reserve(vptr)
		if code != bus.ErrReserved {
			return code
		}
		c := &Ctx{p: m.p}
		c.Sleep(backoff)
	}
}

// SM returns the module index this API is bound to.
func (m *Mem) SM() int { return m.sm }
