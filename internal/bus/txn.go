package bus

import (
	"encoding/binary"
	"fmt"
)

// Op identifies a shared-memory operation. The dynamic operations (alloc,
// free, reserve, release) exist only on dynamic memory modules; static
// table memories reject them with ErrBadOp.
type Op uint8

const (
	// OpRead reads one element at VPtr (+Data as element index for typed
	// accesses is not used; scalar reads address the exact VPtr).
	OpRead Op = iota
	// OpWrite writes Data to the element at VPtr.
	OpWrite
	// OpAlloc allocates Dim elements of DType; the response carries the
	// new virtual pointer. Maps to calloc(Dim, size(DType)) on the host.
	OpAlloc
	// OpFree deallocates the allocation that starts exactly at VPtr.
	OpFree
	// OpReadBurst reads Dim consecutive elements starting at VPtr into the
	// response's Burst (the wrapper's I/O array mechanism).
	OpReadBurst
	// OpWriteBurst writes the request's Burst to Dim consecutive elements
	// starting at VPtr.
	OpWriteBurst
	// OpReserve sets the reservation bit of the allocation containing
	// VPtr on behalf of the requesting master. Fails with ErrReserved if
	// another master holds it.
	OpReserve
	// OpRelease clears the reservation bit if held by the requesting
	// master.
	OpRelease
)

var opNames = [...]string{
	OpRead: "READ", OpWrite: "WRITE", OpAlloc: "ALLOC", OpFree: "FREE",
	OpReadBurst: "READN", OpWriteBurst: "WRITEN", OpReserve: "RESERVE", OpRelease: "RELEASE",
}

// String returns the mnemonic used in traces and error messages.
func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("Op(%d)", uint8(o))
}

// NumOps is the number of defined operations (for stats tables).
const NumOps = int(OpRelease) + 1

// DataType is the element type of an allocation — the paper's "type"
// column in the pointer table. It fixes the element size used by the
// translator for endianness and host-offset computation.
type DataType uint8

const (
	// U8 is an unsigned byte element.
	U8 DataType = iota
	// U16 is an unsigned 16-bit element.
	U16
	// U32 is an unsigned 32-bit element.
	U32
	// I16 is a signed 16-bit element (PCM samples in the GSM workload).
	I16
	// I32 is a signed 32-bit element.
	I32
)

// ReadElem decodes one element of this type from the little-endian
// bytes at the front of b, sign-extending I16 — the element codec every
// byte-backed memory model (static table, heapsim arena, cache line)
// shares.
func (t DataType) ReadElem(b []byte) uint32 {
	switch t {
	case U8:
		return uint32(b[0])
	case U16:
		return uint32(binary.LittleEndian.Uint16(b))
	case I16:
		return uint32(int32(int16(binary.LittleEndian.Uint16(b))))
	default:
		return binary.LittleEndian.Uint32(b)
	}
}

// WriteElem encodes val as one element of this type into the front of
// b, little-endian.
func (t DataType) WriteElem(b []byte, val uint32) {
	switch t {
	case U8:
		b[0] = byte(val)
	case U16, I16:
		binary.LittleEndian.PutUint16(b, uint16(val))
	default:
		binary.LittleEndian.PutUint32(b, val)
	}
}

// Size returns the element size in bytes.
func (t DataType) Size() uint32 {
	switch t {
	case U8:
		return 1
	case U16, I16:
		return 2
	default:
		return 4
	}
}

// String returns the type's short name.
func (t DataType) String() string {
	switch t {
	case U8:
		return "u8"
	case U16:
		return "u16"
	case U32:
		return "u32"
	case I16:
		return "i16"
	case I32:
		return "i32"
	default:
		return fmt.Sprintf("DataType(%d)", uint8(t))
	}
}

// ErrCode is the modelled (in-band) error result of a transaction. These
// are hardware-visible response codes, not Go errors: simulated software
// is expected to observe and handle them.
type ErrCode uint8

const (
	// OK means the operation succeeded.
	OK ErrCode = iota
	// ErrBadVPtr means the virtual pointer does not fall inside any live
	// allocation.
	ErrBadVPtr
	// ErrCapacity means an allocation was denied because the sum of live
	// allocation sizes would exceed the module's configured total size.
	ErrCapacity
	// ErrReserved means the allocation is reserved by a different master.
	ErrReserved
	// ErrBadOp means the target module does not implement the operation.
	ErrBadOp
	// ErrBounds means a burst ran past the end of its allocation, or a
	// static-memory access fell outside the address range.
	ErrBounds
	// ErrNoSlave means the sm_addr selected a nonexistent module.
	ErrNoSlave
	// ErrHost means the host allocator failed (out of host memory).
	ErrHost
)

var errNames = [...]string{
	OK: "OK", ErrBadVPtr: "BAD_VPTR", ErrCapacity: "CAPACITY", ErrReserved: "RESERVED",
	ErrBadOp: "BAD_OP", ErrBounds: "BOUNDS", ErrNoSlave: "NO_SLAVE", ErrHost: "HOST",
}

// String returns the code's mnemonic.
func (e ErrCode) String() string {
	if int(e) < len(errNames) {
		return errNames[e]
	}
	return fmt.Sprintf("ErrCode(%d)", uint8(e))
}

// Request is one shared-memory transaction as issued by a master. The
// operation code and SM (the paper's sm_addr) route the transaction; the
// remaining fields are operands whose meaning depends on Op.
type Request struct {
	Op    Op
	SM    int      // target shared-memory module index
	VPtr  uint32   // virtual pointer operand (read/write/free/burst/reserve)
	Data  uint32   // scalar datum for OpWrite
	Dim   uint32   // element count for OpAlloc and bursts
	DType DataType // element type for OpAlloc
	// Burst is the payload of an OpWriteBurst, one element per entry. On
	// an OpReadBurst it may carry the master's destination buffer
	// (length 0, capacity at least Dim); see "Read-burst buffers" in the
	// package documentation.
	Burst []uint32

	// Master identifies the issuing master. The interconnect stamps it;
	// the wrapper uses it for reservation ownership.
	Master int

	// Excl marks a cache line refill that requests exclusive (writable)
	// ownership — the MESI BusRdX. Set by caches on write misses; the
	// snoop phase invalidates peer copies. Memories ignore it.
	Excl bool
	// WB marks a cache writeback of an owned (Modified) line. Writebacks
	// are the resolution mechanism of the snoop protocol's dirty-line
	// deferrals, so the snoop phase never defers or invalidates on them.
	// Memories treat the request as an ordinary burst write.
	WB bool
}

// String renders the request for traces.
func (r Request) String() string {
	switch r.Op {
	case OpAlloc:
		return fmt.Sprintf("%s sm=%d dim=%d type=%s m=%d", r.Op, r.SM, r.Dim, r.DType, r.Master)
	case OpWrite:
		return fmt.Sprintf("%s sm=%d v=%#x data=%#x m=%d", r.Op, r.SM, r.VPtr, r.Data, r.Master)
	case OpWriteBurst:
		return fmt.Sprintf("%s sm=%d v=%#x n=%d m=%d", r.Op, r.SM, r.VPtr, len(r.Burst), r.Master)
	case OpReadBurst:
		return fmt.Sprintf("%s sm=%d v=%#x dim=%d m=%d", r.Op, r.SM, r.VPtr, r.Dim, r.Master)
	default:
		return fmt.Sprintf("%s sm=%d v=%#x m=%d", r.Op, r.SM, r.VPtr, r.Master)
	}
}

// WireWords returns the number of bus words a master transfers to convey
// this request: one word for opcode+sm_addr (the paper sends these first),
// plus the operands. Burst writes move their payload one word per cycle
// through the wrapper's I/O array.
func (r Request) WireWords() uint32 {
	switch r.Op {
	case OpAlloc:
		return 1 + 2 // dim, type
	case OpWrite:
		return 1 + 2 // vptr, data
	case OpRead, OpFree, OpReserve, OpRelease:
		return 1 + 1 // vptr
	case OpReadBurst:
		return 1 + 2 // vptr, dim
	case OpWriteBurst:
		return 1 + 2 + uint32(len(r.Burst)) // vptr, dim, payload
	default:
		return 1
	}
}

// ReadBuffer returns the slice a slave serving r, an OpReadBurst, reads
// its Dim elements into and returns as Response.Burst: the master's
// buffer r.Burst resliced when it has the capacity, a new slice
// otherwise. See "Read-burst buffers" in the package documentation.
func (r Request) ReadBuffer() []uint32 {
	if r.Burst != nil && cap(r.Burst) >= int(r.Dim) {
		return r.Burst[:r.Dim]
	}
	return make([]uint32, r.Dim)
}

// Response is the completion of a Request. Err is the in-band hardware
// status; the data fields are valid only when Err == OK.
type Response struct {
	Err  ErrCode
	Data uint32 // scalar result for OpRead
	VPtr uint32 // new virtual pointer for OpAlloc
	// Burst is the payload of an OpReadBurst: the master's own buffer
	// when it passed one in Request.Burst (see "Read-burst buffers" in
	// the package documentation).
	Burst []uint32
}

// WireWords returns the number of bus words the slave returns: a status
// word plus any payload.
func (p Response) WireWords() uint32 {
	return 1 + uint32(len(p.Burst))
}

// String renders the response for traces.
func (p Response) String() string {
	if p.Err != OK {
		return fmt.Sprintf("ERR(%s)", p.Err)
	}
	if p.Burst != nil {
		return fmt.Sprintf("OK n=%d", len(p.Burst))
	}
	return fmt.Sprintf("OK data=%#x v=%#x", p.Data, p.VPtr)
}
