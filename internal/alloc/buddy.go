package alloc

import "fmt"

// buddy is the binary buddy allocator: blocks are powers of two from
// 16 bytes (buddyMinOrder) to 64 MiB (buddyMaxOrder), one singly-linked
// free list per order with its head word in the arena's metadata
// region. A block's buddy is found by XORing its region offset with its
// size, so coalescing never walks the heap — freeing merges up the
// order ladder, allocation splits down it, and neither cost depends on
// how many free blocks exist (the property E9 measures against
// first-fit's list walk).
//
// Arenas need not be powers of two: init seeds the free lists with the
// binary decomposition of [buddyBase, end) — descending power-of-two
// top blocks whose offsets are naturally aligned — and buddy checks
// never merge across top-block boundaries because the neighbor's header
// size can never equal the block's own.
type buddy struct {
	m   Mem
	end uint32 // one past the managed region (tail slack < 16 B unmanaged)
}

const (
	buddyMinOrder = 4                                 // 16-byte minimum block
	buddyMaxOrder = 26                                // 64 MiB maximum block
	buddyOrders   = buddyMaxOrder - buddyMinOrder + 1 // free-list count
	buddyBase     = (4*buddyOrders + 7) &^ 7          // metadata bytes, 8-aligned
)

func buddyHeadOff(idx int) uint32 { return uint32(4 * idx) }

// buddyIdx maps a power-of-two size to its free-list index.
func buddyIdx(size uint32) int {
	idx := -buddyMinOrder
	for size > 1 {
		size >>= 1
		idx++
	}
	return idx
}

func newBuddy(m Mem) *buddy {
	p := &buddy{m: m}
	for i := 0; i < buddyOrders; i++ {
		m.Wr32(buddyHeadOff(i), nilPtr)
	}
	// Seed the lists with the binary decomposition of the arena:
	// descending powers of two, each naturally aligned at its offset.
	end := m.Size() &^ 7
	off := uint32(0)
	for end-buddyBase-off >= minSplit {
		rem := end - buddyBase - off
		s := uint32(1) << buddyMaxOrder
		for s > rem {
			s >>= 1
		}
		blk := buddyBase + off
		idx := buddyIdx(s)
		m.Wr32(blk, s)
		m.Wr32(blk+4, m.Rd32(buddyHeadOff(idx)))
		m.Wr32(buddyHeadOff(idx), blk)
		off += s
	}
	p.end = buddyBase + off
	return p
}

// Kind implements Policy.
func (p *buddy) Kind() Kind { return Buddy }

// Alloc implements Policy: round the request up to a power of two,
// take the smallest non-empty order at or above it, and split down.
func (p *buddy) Alloc(n uint32, zero bool) (uint32, bool) {
	if n == 0 || n > (1<<buddyMaxOrder)-hdrSize {
		return 0, false
	}
	need := align8(n) + hdrSize
	if need < minSplit {
		need = minSplit
	}
	if need > 1<<buddyMaxOrder {
		return 0, false
	}
	s := uint32(minSplit)
	for s < need {
		s <<= 1
	}
	m := p.m
	// Scan the order table upward for a non-empty list; each head probe
	// is a metered metadata access.
	idx := buddyIdx(s)
	blk := uint32(nilPtr)
	have := uint32(0)
	for i := idx; i < buddyOrders; i++ {
		if head := m.Rd32(buddyHeadOff(i)); head != nilPtr {
			blk = head
			have = 1 << (i + buddyMinOrder)
			m.Wr32(buddyHeadOff(i), m.Rd32(blk+4)) // pop
			break
		}
	}
	if blk == nilPtr {
		return 0, false
	}
	// Split down to the target order, pushing each upper half free.
	for have > s {
		have >>= 1
		bud := blk + have
		j := buddyIdx(have)
		m.Wr32(bud, have)
		m.Wr32(bud+4, m.Rd32(buddyHeadOff(j)))
		m.Wr32(buddyHeadOff(j), bud)
	}
	m.Wr32(blk, s)
	m.Wr32(blk+4, magic)
	payload := blk + hdrSize
	if zero {
		limit := blk + s
		for a := payload; a < limit; a += 4 {
			m.Wr32(a, 0)
		}
	}
	return payload, true
}

// unlink removes blk from the order-idx free list, reporting whether it
// was present. The walk is metered; list reachability is also the
// authoritative free-ness check during coalescing — a header that
// merely *looks* free never merges.
func (p *buddy) unlink(idx int, blk uint32) bool {
	m := p.m
	prev := uint32(nilPtr)
	cur := m.Rd32(buddyHeadOff(idx))
	for cur != nilPtr {
		next := m.Rd32(cur + 4)
		if cur == blk {
			if prev == nilPtr {
				m.Wr32(buddyHeadOff(idx), next)
			} else {
				m.Wr32(prev+4, next)
			}
			return true
		}
		prev = cur
		cur = next
	}
	return false
}

// Free implements Policy: validate the header, merge with the buddy as
// far up the order ladder as possible, and push the result.
func (p *buddy) Free(addr uint32) bool {
	m := p.m
	if addr < buddyBase+hdrSize || addr >= p.end || (addr-hdrSize-buddyBase)%8 != 0 {
		return false
	}
	blk := addr - hdrSize
	s := m.Rd32(blk)
	if s < minSplit || s > 1<<buddyMaxOrder || s&(s-1) != 0 ||
		(blk-buddyBase)%s != 0 || uint64(blk)+uint64(s) > uint64(p.end) ||
		m.Rd32(blk+4) != magic {
		return false
	}
	for s < 1<<buddyMaxOrder {
		bud := buddyBase + ((blk - buddyBase) ^ s)
		if bud >= p.end || uint64(bud)+uint64(s) > uint64(p.end) {
			break
		}
		if m.Rd32(bud) != s || m.Rd32(bud+4) == magic {
			break
		}
		if !p.unlink(buddyIdx(s), bud) {
			break // header coincidence, not a free block
		}
		if bud < blk {
			// Merging downward: the merged header lands at bud, so blk's
			// own header (size and live magic) would survive inside the
			// free block and let a replayed Free(addr) re-validate,
			// pushing a free block nested inside a larger one. Scrub the
			// magic of the absorbed half.
			m.Wr32(blk+4, 0)
			blk = bud
		}
		s <<= 1
	}
	idx := buddyIdx(s)
	m.Wr32(blk, s)
	m.Wr32(blk+4, m.Rd32(buddyHeadOff(idx)))
	m.Wr32(buddyHeadOff(idx), blk)
	return true
}

// walkOrders walks every order list (see walkFree), visit receiving
// each block with its order's block size.
func (p *buddy) walkOrders(visit func(size, blk uint32) error) error {
	n := 0
	for i := 0; i < buddyOrders; i++ {
		size := uint32(1) << (i + buddyMinOrder)
		if err := walkFree(p.m, buddyHeadOff(i), buddyBase, p.end, &n, func(blk uint32) error { return visit(size, blk) }); err != nil {
			return err
		}
	}
	return nil
}

// freeSpans collects every free block from the order lists, unmetered.
func (p *buddy) freeSpans() []span {
	var out []span
	p.walkOrders(func(size, blk uint32) error {
		out = append(out, span{blk, size})
		return nil
	})
	return out
}

// FreeBytes implements Policy.
func (p *buddy) FreeBytes() uint32 {
	var total uint32
	for _, s := range p.freeSpans() {
		total += s.Size
	}
	return total
}

// FreeBlocks implements Policy.
func (p *buddy) FreeBlocks() int { return len(p.freeSpans()) }

// LargestFree implements Policy.
func (p *buddy) LargestFree() uint32 {
	var max uint32
	for _, s := range p.freeSpans() {
		if s.Size > max {
			max = s.Size
		}
	}
	return max
}

// CheckInvariants implements Policy: every listed free block is sized
// and aligned for its order, blocks tile the managed region exactly,
// and no two free buddies coexist unmerged.
func (p *buddy) CheckInvariants() error {
	m := p.m
	free := map[uint32]uint32{}
	err := p.walkOrders(func(size, cur uint32) error {
		if got := m.Peek32(cur); got != size {
			return fmt.Errorf("free block %#x on the %d-byte list has size %d", cur, size, got)
		}
		if (cur-buddyBase)%size != 0 || uint64(cur)+uint64(size) > uint64(p.end) {
			return fmt.Errorf("free block %#x size %d misaligned or out of bounds", cur, size)
		}
		if _, dup := free[cur]; dup {
			return fmt.Errorf("free block %#x listed twice", cur)
		}
		free[cur] = size
		return nil
	})
	if err != nil {
		return err
	}
	for blk, size := range free {
		bud := buddyBase + ((blk - buddyBase) ^ size)
		if bsize, ok := free[bud]; ok && bsize == size && uint64(bud)+uint64(size) <= uint64(p.end) {
			return fmt.Errorf("free buddies %#x and %#x (size %d) not merged", blk, bud, size)
		}
	}
	// Blocks tile the managed region: every block start carries either a
	// listed free header or the allocation magic.
	off := uint32(buddyBase)
	for off < p.end {
		size := m.Peek32(off)
		if size < minSplit || size&(size-1) != 0 || (off-buddyBase)%size != 0 ||
			uint64(off)+uint64(size) > uint64(p.end) {
			return fmt.Errorf("bad block size %d at %#x", size, off)
		}
		if _, isFree := free[off]; isFree {
			delete(free, off)
		} else if m.Peek32(off+4) != magic {
			return fmt.Errorf("block at %#x neither free nor allocated", off)
		}
		off += size
	}
	if off != p.end {
		return fmt.Errorf("blocks do not tile the region: ended at %#x of %#x", off, p.end)
	}
	// Every listed free block must have been a block start in the walk:
	// a leftover is a free block nested inside another block (the
	// signature of an accepted double free).
	if len(free) != 0 {
		return fmt.Errorf("%d listed free blocks not reached by the tiling walk", len(free))
	}
	return nil
}
