package alloc

import "fmt"

// segregated is the TLSF-style segregated free-list allocator: one
// doubly-linked free list per size class (16-byte steps up to 256
// bytes, then two subdivisions per power of two), class heads in the
// arena's metadata region, boundary-tag coalescing. Allocation is
// good-fit with a bounded in-class probe: the first segScanLimit
// blocks of the request's own class are checked (a class spans a size
// range, so its blocks are not guaranteed to fit), then the front
// block of the first non-empty higher class wins — every block there
// is guaranteed to fit. Alloc and free therefore touch O(segScanLimit
// + classes) words no matter how many free blocks exist; the price is
// that a fitting block buried deep in the request's own class can be
// missed, denying an allocation total free space could serve — the
// same honestly-modelled fragmentation denial the other policies have.
//
// Block layout (sizes are multiples of 8, so word 0's low bits carry
// flags): word 0 = size | thisFree(bit 0) | prevFree(bit 1). A live
// block's word 1 is the allocation magic; a free block's words 1 and 2
// are the next/prev class-list links and its last word is a footer
// holding the plain size, which lets the following block find this
// block's start when coalescing backward. The prevFree bit lives in
// the *following* block's header — never in payload a live block could
// scribble over.
type segregated struct {
	m   Mem
	end uint32
}

// segBounds are the class lower bounds: a free block of size s lives on
// the list of the largest bound ≤ s, so every block on a class above a
// request's own class is guaranteed to fit it.
var segBounds = func() []uint32 {
	var b []uint32
	for s := uint32(16); s <= 240; s += 16 {
		b = append(b, s)
	}
	for s := uint32(256); s < 1<<26; s <<= 1 {
		b = append(b, s, s+s/2)
	}
	return append(b, 1<<26)
}()

// segBase is the first block offset: the class-head table, 8-aligned.
var segBase = (uint32(4*len(segBounds)) + 7) &^ 7

const (
	segFree     = 1 // word-0 bit 0: this block is free
	segPrevFree = 2 // word-0 bit 1: the preceding block is free
	segFlags    = 7

	// segScanLimit bounds the first-fit probe of the request's own
	// class. It keeps the exact-fit win for short lists (a fully
	// recovered arena is one block at the head of its class) while
	// capping the worst-case alloc cost at O(segScanLimit + classes)
	// metered accesses — the near-constant guarantee E9 measures.
	segScanLimit = 8
)

// segClass maps a block size to its class index (insertion mapping).
func segClass(size uint32) int {
	lo, hi := 0, len(segBounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if segBounds[mid] <= size {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo - 1
}

func segHeadOff(c int) uint32 { return uint32(4 * c) }

func newSegregated(m Mem) *segregated {
	p := &segregated{m: m, end: m.Size() &^ 7}
	for c := range segBounds {
		m.Wr32(segHeadOff(c), nilPtr)
	}
	p.insert(segBase, p.end-segBase)
	return p
}

// Kind implements Policy.
func (p *segregated) Kind() Kind { return Segregated }

// insert pushes a free block onto its class list and writes its header
// and footer. The caller guarantees the block's preceding neighbor is
// not free (coalescing has already run).
func (p *segregated) insert(blk, size uint32) {
	m := p.m
	c := segClass(size)
	head := m.Rd32(segHeadOff(c))
	m.Wr32(blk, size|segFree)
	m.Wr32(blk+4, head)   // next
	m.Wr32(blk+8, nilPtr) // prev
	if head != nilPtr {
		m.Wr32(head+8, blk)
	}
	m.Wr32(segHeadOff(c), blk)
	m.Wr32(blk+size-4, size) // footer
}

// unlink removes a free block of the given size from its class list.
func (p *segregated) unlink(blk, size uint32) {
	m := p.m
	next := m.Rd32(blk + 4)
	prev := m.Rd32(blk + 8)
	if prev == nilPtr {
		m.Wr32(segHeadOff(segClass(size)), next)
	} else {
		m.Wr32(prev+4, next)
	}
	if next != nilPtr {
		m.Wr32(next+8, prev)
	}
}

// Alloc implements Policy: good-fit search — a bounded first-fit probe
// of the request's own class, then the front block of the first
// non-empty higher class (which always fits).
func (p *segregated) Alloc(n uint32, zero bool) (uint32, bool) {
	if n == 0 || n > 0xFFFFFFF0-hdrSize { // reject zero and size-arithmetic wrap
		return 0, false
	}
	need := align8(n) + hdrSize
	if need < minSplit {
		need = minSplit
	}
	m := p.m
	c := segClass(need)
	blk, size := uint32(nilPtr), uint32(0)
	probes := 0
	for cur := m.Rd32(segHeadOff(c)); cur != nilPtr && probes < segScanLimit; cur = m.Rd32(cur + 4) {
		if s := m.Rd32(cur) &^ segFlags; s >= need {
			blk, size = cur, s
			break
		}
		probes++
	}
	if blk == nilPtr {
		for j := c + 1; j < len(segBounds); j++ {
			if head := m.Rd32(segHeadOff(j)); head != nilPtr {
				blk = head
				size = m.Rd32(blk) &^ segFlags
				break
			}
		}
	}
	if blk == nilPtr {
		return 0, false
	}
	p.unlink(blk, size)
	allocSize := size
	if size-need >= minSplit {
		// Split: the head becomes the live block, the tail a free
		// remainder. The block after the remainder keeps prevFree set.
		p.insert(blk+need, size-need)
		allocSize = need
	} else if blk+size < p.end {
		// Whole block taken: the following block's prev is now live.
		m.Wr32(blk+size, m.Rd32(blk+size)&^segPrevFree)
	}
	// The block's own prevFree is clear by the coalescing invariant (a
	// free block never follows another free block).
	m.Wr32(blk, allocSize)
	m.Wr32(blk+4, magic)
	payload := blk + hdrSize
	if zero {
		limit := blk + allocSize
		for a := payload; a < limit; a += 4 {
			m.Wr32(a, 0)
		}
	}
	return payload, true
}

// Free implements Policy: validate, coalesce forward via the next
// header and backward via the boundary-tag footer, insert the merged
// block, and flag the follower's prevFree bit.
func (p *segregated) Free(addr uint32) bool {
	m := p.m
	if addr < segBase+hdrSize || addr >= p.end || addr%8 != 0 {
		return false
	}
	blk := addr - hdrSize
	w0 := m.Rd32(blk)
	size := w0 &^ segFlags
	if w0&segFree != 0 || size < minSplit || uint64(blk)+uint64(size) > uint64(p.end) ||
		m.Rd32(blk+4) != magic {
		return false
	}
	start, s := blk, size
	if start+s < p.end {
		if nw := m.Rd32(start + s); nw&segFree != 0 {
			ns := nw &^ segFlags
			p.unlink(start+s, ns)
			s += ns
		}
	}
	if w0&segPrevFree != 0 {
		psize := m.Rd32(blk - 4) // preceding free block's footer
		prev := blk - psize
		p.unlink(prev, psize)
		start = prev
		s += psize
		// The merged header is written at prev, so blk's own header
		// words survive inside the free block. Scrub the magic, else a
		// replayed Free(addr) re-validates against the stale header and
		// corrupts the class lists (double free must report false).
		m.Wr32(blk+4, 0)
	}
	p.insert(start, s)
	if start+s < p.end {
		m.Wr32(start+s, m.Rd32(start+s)|segPrevFree)
	}
	return true
}

// walkClasses walks every class list (see walkFree), visit receiving
// each block with its class.
func (p *segregated) walkClasses(visit func(c int, blk uint32) error) error {
	n := 0
	for c := range segBounds {
		if err := walkFree(p.m, segHeadOff(c), segBase, p.end, &n, func(blk uint32) error { return visit(c, blk) }); err != nil {
			return err
		}
	}
	return nil
}

// freeSpans collects every free block from the class lists, unmetered.
func (p *segregated) freeSpans() []span {
	var out []span
	p.walkClasses(func(_ int, blk uint32) error {
		out = append(out, span{blk, p.m.Peek32(blk) &^ segFlags})
		return nil
	})
	return out
}

// FreeBytes implements Policy.
func (p *segregated) FreeBytes() uint32 {
	var total uint32
	for _, s := range p.freeSpans() {
		total += s.Size
	}
	return total
}

// FreeBlocks implements Policy.
func (p *segregated) FreeBlocks() int { return len(p.freeSpans()) }

// LargestFree implements Policy.
func (p *segregated) LargestFree() uint32 {
	var max uint32
	for _, s := range p.freeSpans() {
		if s.Size > max {
			max = s.Size
		}
	}
	return max
}

// CheckInvariants implements Policy: blocks tile [segBase, end) with
// consistent free/prevFree flags, footers and magics; the class lists
// hold exactly the free blocks, each on its correct class with intact
// double links; and no two free blocks are adjacent.
func (p *segregated) CheckInvariants() error {
	m := p.m
	listed := map[uint32]uint32{}
	prev, prevClass := uint32(nilPtr), -1
	err := p.walkClasses(func(c int, cur uint32) error {
		if c != prevClass {
			prev, prevClass = nilPtr, c
		}
		w0 := m.Peek32(cur)
		size := w0 &^ segFlags
		if w0&segFree == 0 {
			return fmt.Errorf("listed block %#x not flagged free", cur)
		}
		if segClass(size) != c {
			return fmt.Errorf("block %#x size %d on class %d, want %d", cur, size, c, segClass(size))
		}
		if got := m.Peek32(cur + 8); got != prev {
			return fmt.Errorf("block %#x prev link %#x, want %#x", cur, got, prev)
		}
		if _, dup := listed[cur]; dup {
			return fmt.Errorf("block %#x listed twice", cur)
		}
		listed[cur] = size
		prev = cur
		return nil
	})
	if err != nil {
		return err
	}
	off := segBase
	prevFree := false
	for off < p.end {
		w0 := m.Peek32(off)
		size := w0 &^ segFlags
		free := w0&segFree != 0
		if size < minSplit || size%8 != 0 || uint64(off)+uint64(size) > uint64(p.end) {
			return fmt.Errorf("bad block size %d at %#x", size, off)
		}
		if got := w0&segPrevFree != 0; got != prevFree {
			return fmt.Errorf("block %#x prevFree=%v, want %v", off, got, prevFree)
		}
		if free {
			if prevFree {
				return fmt.Errorf("adjacent free blocks at %#x", off)
			}
			if _, ok := listed[off]; !ok {
				return fmt.Errorf("free block %#x not on any class list", off)
			}
			if f := m.Peek32(off + size - 4); f != size {
				return fmt.Errorf("block %#x footer %d, want %d", off, f, size)
			}
			delete(listed, off)
		} else if m.Peek32(off+4) != magic {
			return fmt.Errorf("live block %#x missing magic", off)
		}
		prevFree = free
		off += size
	}
	if off != p.end {
		return fmt.Errorf("blocks do not tile the heap: ended at %#x of %#x", off, p.end)
	}
	if len(listed) != 0 {
		return fmt.Errorf("%d listed blocks not found in the heap walk", len(listed))
	}
	return nil
}
