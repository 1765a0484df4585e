package alloc

import (
	"encoding/binary"
	"fmt"
)

// Kind selects an allocation policy.
type Kind uint8

const (
	// Default is the zero value: each consumer's historical behavior
	// (heapsim: FirstFit; the wrapper's pointer table: bump placement
	// with no address reuse). Using it keeps pre-policy runs
	// bit-identical.
	Default Kind = iota
	// FirstFit is the address-ordered first-fit free list.
	FirstFit
	// BestFit is the smallest-fitting-block variant of the same layout.
	BestFit
	// Buddy is the binary buddy system.
	Buddy
	// Segregated is the TLSF-style segregated free-list allocator.
	Segregated

	numKinds
)

// String names the kind as the -alloc flags spell it.
func (k Kind) String() string {
	switch k {
	case Default:
		return "default"
	case FirstFit:
		return "first-fit"
	case BestFit:
		return "best-fit"
	case Buddy:
		return "buddy"
	case Segregated:
		return "segregated"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// MarshalText spells the kind as String does, so Kind is a value of
// flag.TextVar and encoding/json alike.
func (k Kind) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

// UnmarshalText is the one parser of the -alloc flags and the "alloc"
// JSON key: it accepts exactly the spellings String produces, plus the
// empty string for Default (a key present but blank).
func (k *Kind) UnmarshalText(text []byte) error {
	if len(text) == 0 {
		*k = Default
		return nil
	}
	for c := Default; c < numKinds; c++ {
		if string(text) == c.String() {
			*k = c
			return nil
		}
	}
	return fmt.Errorf("alloc: unknown policy %q (want default|first-fit|best-fit|buddy|segregated)", text)
}

// Kinds returns the concrete policies (Default excluded), for sweeps.
func Kinds() []Kind { return []Kind{FirstFit, BestFit, Buddy, Segregated} }

// Mem is the word-granular view of an arena a Policy manages. Rd32 and
// Wr32 are the metered accesses (heapsim charges simulated cycles per
// call); Peek32 reads without metering and is reserved for inspection
// and for bounds the manager has already paid to learn.
type Mem interface {
	Rd32(addr uint32) uint32
	Wr32(addr, val uint32)
	Peek32(addr uint32) uint32
	Size() uint32
}

// Policy is one allocation discipline bound to a Mem at construction
// (New formats the arena metadata). Alloc returns the payload address
// of a block holding at least n bytes, zeroing it word-by-word through
// the metered interface when zero is set (calloc semantics). Free
// returns a block by its payload address, reporting false for
// addresses that fail the policy's validation (wild or double frees).
//
// FreeBytes, FreeBlocks and LargestFree are unmetered fragmentation
// gauges; CheckInvariants walks the whole arena structure and is meant
// for tests and the fuzzer.
type Policy interface {
	Kind() Kind
	Alloc(n uint32, zero bool) (addr uint32, ok bool)
	Free(addr uint32) bool
	FreeBytes() uint32
	FreeBlocks() int
	LargestFree() uint32
	CheckInvariants() error
}

// Shared layout constants. Every policy gives blocks an 8-byte header:
// word 0 holds the block size in bytes including the header (plus, for
// Segregated, flag bits in the low 3 bits the 8-byte size granularity
// leaves free); word 1 is the allocation magic when live and a
// free-list link when free. Links are arena byte offsets; nilPtr
// terminates lists and is distinguishable from magic for any arena
// under 2.5 GiB, which the 32-bit simulated space guarantees.
const (
	hdrSize  = 8          // block header bytes
	nilPtr   = 0xFFFFFFFF // end-of-list marker
	magic    = 0xA110CA7E // word 1 of an allocated block
	minSplit = 16         // smallest remainder worth keeping as a free block
)

func align8(n uint32) uint32 { return (n + 7) &^ 7 }

// MinArena returns the smallest arena (in bytes) kind can manage: its
// metadata region plus one minimum block. Sizes are rounded down to a
// multiple of 8 before the comparison by consumers.
func MinArena(k Kind) uint32 {
	switch k {
	case Buddy:
		return buddyBase + minSplit
	case Segregated:
		return segBase + minSplit
	default: // Default, FirstFit, BestFit
		return listHeapStart + hdrSize + 8
	}
}

// New formats m's metadata for kind and returns the bound policy.
// Default maps to FirstFit (the historical allocator). It errors when
// the arena is smaller than MinArena(kind); formatting accesses are
// metered — consumers that model construction as free (heapsim does)
// reset their access counter afterwards.
func New(kind Kind, m Mem) (Policy, error) {
	if m.Size() < MinArena(kind) {
		return nil, fmt.Errorf("alloc: %s needs an arena of at least %d bytes, got %d",
			kind, MinArena(kind), m.Size())
	}
	switch kind {
	case Default, FirstFit:
		return newListPolicy(FirstFit, m), nil
	case BestFit:
		return newListPolicy(BestFit, m), nil
	case Buddy:
		return newBuddy(m), nil
	case Segregated:
		return newSegregated(m), nil
	default:
		return nil, fmt.Errorf("alloc: unknown policy kind %d", kind)
	}
}

// walkFree calls visit, unmetered, for every block on the free list
// whose head word is at head; each block links to the next through its
// word 1. The arena bytes may come from outside the program (a
// snapshot), so the walk bounds itself: a link to a block that is
// unaligned or does not fit in [lo, hi), or more blocks in total (n
// counts them across the lists of one arena) than [lo, hi) has room
// for, ends it with an error instead of a panic or an endless loop. An
// error from visit ends it too.
func walkFree(m Mem, head, lo, hi uint32, n *int, visit func(blk uint32) error) error {
	for cur := m.Peek32(head); cur != nilPtr; cur = m.Peek32(cur + 4) {
		if cur < lo || cur%8 != 0 || uint64(cur)+minSplit > uint64(hi) {
			return fmt.Errorf("free list links to %#x, outside the blocks [%#x, %#x)", cur, lo, hi)
		}
		if *n++; *n > int((hi-lo)/minSplit) {
			return fmt.Errorf("free lists hold more than the %d blocks [%#x, %#x) has room for", (hi-lo)/minSplit, lo, hi)
		}
		if err := visit(cur); err != nil {
			return err
		}
	}
	return nil
}

// SliceMem is a host-backed Mem over a plain byte slice with an access
// counter — the arena the wrapper's placement policy and the allocator
// benchmarks use. The counter exists for reporting symmetry with
// heapsim; nothing charges cycles for it.
type SliceMem struct {
	Buf      []byte
	Accesses uint64
}

// NewSliceMem allocates a zeroed host arena of size bytes (rounded
// down to a multiple of 8, matching the simulated-arena convention).
func NewSliceMem(size uint32) *SliceMem {
	return &SliceMem{Buf: make([]byte, size&^7)}
}

// Rd32 implements Mem.
func (s *SliceMem) Rd32(addr uint32) uint32 {
	s.Accesses++
	return binary.LittleEndian.Uint32(s.Buf[addr:])
}

// Wr32 implements Mem.
func (s *SliceMem) Wr32(addr, val uint32) {
	s.Accesses++
	binary.LittleEndian.PutUint32(s.Buf[addr:], val)
}

// Peek32 implements Mem.
func (s *SliceMem) Peek32(addr uint32) uint32 {
	return binary.LittleEndian.Uint32(s.Buf[addr:])
}

// Size implements Mem.
func (s *SliceMem) Size() uint32 { return uint32(len(s.Buf)) }
