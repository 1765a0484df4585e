package alloc

import "fmt"

// listPolicy is the address-ordered free-list allocator in its two
// scan disciplines: FirstFit takes the first block that fits (and is
// access-for-access identical to the historical heapsim allocator);
// BestFit walks the entire list and takes the smallest fitting block.
//
// Layout: word 0 of the arena is the free-list head (padded to 8
// bytes); heap blocks tile [listHeapStart, size). A free block's
// word 1 is the next-free link; frees insert in address order and
// coalesce with both neighbors.
type listPolicy struct {
	kind Kind
	m    Mem
}

const (
	listHeadAddr  = 0 // free-list head pointer location
	listHeapStart = 8 // first block offset
)

func newListPolicy(kind Kind, m Mem) *listPolicy {
	p := &listPolicy{kind: kind, m: m}
	// One free block spans the whole heap; head points at it.
	m.Wr32(listHeadAddr, listHeapStart)
	m.Wr32(listHeapStart, m.Size()-listHeapStart) // block size
	m.Wr32(listHeapStart+4, nilPtr)               // next free
	return p
}

// Kind implements Policy.
func (p *listPolicy) Kind() Kind { return p.kind }

// Alloc implements Policy: carve n payload bytes out of a free block —
// the first that fits (FirstFit) or the smallest that fits after a
// full walk (BestFit) — returning the payload address. ok is false
// when no free block fits (which, under fragmentation, can happen even
// if total free space would suffice — an honest property of the
// detailed model).
func (p *listPolicy) Alloc(n uint32, zero bool) (uint32, bool) {
	if n == 0 || n > 0xFFFFFFF0-hdrSize { // reject zero and size-arithmetic wrap
		return 0, false
	}
	need := align8(n) + hdrSize
	m := p.m
	prev := uint32(nilPtr)
	cur := m.Rd32(listHeadAddr)
	if p.kind == BestFit {
		// Full walk: remember the tightest fit and its predecessor.
		best, bestPrev, bestSize := uint32(nilPtr), uint32(nilPtr), uint32(0)
		for cur != nilPtr {
			size := m.Rd32(cur)
			next := m.Rd32(cur + 4)
			if size >= need && (best == nilPtr || size < bestSize) {
				best, bestPrev, bestSize = cur, prev, size
			}
			prev = cur
			cur = next
		}
		if best == nilPtr {
			return 0, false
		}
		return p.take(best, bestPrev, bestSize, need, zero), true
	}
	for cur != nilPtr {
		size := m.Rd32(cur)
		next := m.Rd32(cur + 4)
		if size >= need {
			return p.take(cur, prev, size, need, zero), true
		}
		prev = cur
		cur = next
	}
	return 0, false
}

// take allocates need bytes from the free block at cur (size bytes,
// list predecessor prev) and returns the payload address. The access
// pattern is exactly the historical first-fit one: split from the tail
// so no links change, or unlink the whole block.
func (p *listPolicy) take(cur, prev, size, need uint32, zero bool) uint32 {
	m := p.m
	var blk uint32
	if size-need >= minSplit {
		// Allocate from the tail of the free block: the free block
		// shrinks in place and no links change.
		m.Wr32(cur, size-need)
		blk = cur + size - need
		m.Wr32(blk, need)
	} else {
		// Take the whole block: unlink it.
		next := m.Peek32(cur + 4) // already read during the walk
		if prev == nilPtr {
			m.Wr32(listHeadAddr, next)
		} else {
			m.Wr32(prev+4, next)
		}
		blk = cur
	}
	m.Wr32(blk+4, magic)
	payload := blk + hdrSize
	if zero {
		limit := blk + m.Peek32(blk)
		for a := payload; a < limit; a += 4 {
			m.Wr32(a, 0)
		}
	}
	return payload
}

// Free implements Policy: return the block whose payload starts at
// addr to the free list, inserting in address order and coalescing
// with adjacent free blocks. It reports false for invalid or double
// frees (magic mismatch).
func (p *listPolicy) Free(addr uint32) bool {
	m := p.m
	if addr < listHeapStart+hdrSize || addr >= m.Size() || (addr-hdrSize)%8 != 0 {
		return false
	}
	blk := addr - hdrSize
	size := m.Rd32(blk)
	if m.Rd32(blk+4) != magic || size < hdrSize || uint64(blk)+uint64(size) > uint64(m.Size()) {
		return false
	}
	// Find address-ordered insertion point.
	prev := uint32(nilPtr)
	cur := m.Rd32(listHeadAddr)
	for cur != nilPtr && cur < blk {
		next := m.Rd32(cur + 4)
		prev = cur
		cur = next
	}
	// Link the block in.
	m.Wr32(blk+4, cur)
	if prev == nilPtr {
		m.Wr32(listHeadAddr, blk)
	} else {
		m.Wr32(prev+4, blk)
	}
	// Coalesce with the following block.
	if cur != nilPtr && blk+size == cur {
		size += m.Rd32(cur)
		m.Wr32(blk, size)
		m.Wr32(blk+4, m.Rd32(cur+4))
	}
	// Coalesce with the preceding block.
	if prev != nilPtr {
		psize := m.Rd32(prev)
		if prev+psize == blk {
			m.Wr32(prev, psize+size)
			m.Wr32(prev+4, m.Rd32(blk+4))
		}
	}
	return true
}

// span describes one free block for inspection.
type span struct {
	Addr, Size uint32
}

// freeList walks the free list without charging accesses (see
// walkFree).
func (p *listPolicy) freeList() ([]span, error) {
	var out []span
	n := 0
	err := walkFree(p.m, listHeadAddr, listHeapStart, p.m.Size(), &n, func(blk uint32) error {
		out = append(out, span{blk, p.m.Peek32(blk)})
		return nil
	})
	return out, err
}

// FreeBytes implements Policy.
func (p *listPolicy) FreeBytes() uint32 {
	var total uint32
	fl, _ := p.freeList()
	for _, s := range fl {
		total += s.Size
	}
	return total
}

// FreeBlocks implements Policy.
func (p *listPolicy) FreeBlocks() int {
	fl, _ := p.freeList()
	return len(fl)
}

// LargestFree implements Policy.
func (p *listPolicy) LargestFree() uint32 {
	var max uint32
	fl, _ := p.freeList()
	for _, s := range fl {
		if s.Size > max {
			max = s.Size
		}
	}
	return max
}

// CheckInvariants implements Policy: the free list is address-ordered,
// fully coalesced and in bounds, and block sizes tile the heap exactly
// with every block either free or carrying the allocation magic.
func (p *listPolicy) CheckInvariants() error {
	m := p.m
	fl, err := p.freeList()
	if err != nil {
		return err
	}
	freeAt := map[uint32]uint32{}
	last := uint32(0)
	for i, s := range fl {
		if i > 0 && s.Addr <= last {
			return fmt.Errorf("free list not address-ordered at %#x", s.Addr)
		}
		if s.Addr < listHeapStart || uint64(s.Addr)+uint64(s.Size) > uint64(m.Size()) {
			return fmt.Errorf("free block out of bounds: %+v", s)
		}
		if i > 0 && last+freeAt[last] == s.Addr {
			return fmt.Errorf("adjacent free blocks not coalesced: %#x and %#x", last, s.Addr)
		}
		freeAt[s.Addr] = s.Size
		last = s.Addr
	}
	// Walk the block sequence; every block is either on the free list or
	// carries the allocation magic, and sizes tile the heap exactly.
	off := uint32(listHeapStart)
	for off < m.Size() {
		size := m.Peek32(off)
		if size < hdrSize || size%8 != 0 || uint64(off)+uint64(size) > uint64(m.Size()) {
			return fmt.Errorf("bad block size %d at %#x", size, off)
		}
		w1 := m.Peek32(off + 4)
		if _, isFree := freeAt[off]; !isFree && w1 != magic {
			return fmt.Errorf("block at %#x neither free nor allocated (w1=%#x)", off, w1)
		}
		off += size
	}
	if off != m.Size() {
		return fmt.Errorf("blocks do not tile the heap: ended at %#x of %#x", off, m.Size())
	}
	return nil
}
