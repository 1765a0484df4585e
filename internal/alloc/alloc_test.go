package alloc

import (
	"encoding/json"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

func mustPolicy(t *testing.T, kind Kind, size uint32) (Policy, *SliceMem) {
	t.Helper()
	m := NewSliceMem(size)
	p, err := New(kind, m)
	if err != nil {
		t.Fatalf("New(%v, %d): %v", kind, size, err)
	}
	return p, m
}

func TestKindParseRoundTrip(t *testing.T) {
	for k := Default; k < numKinds; k++ {
		var got Kind
		if err := got.UnmarshalText([]byte(k.String())); err != nil || got != k {
			t.Errorf("UnmarshalText(%q) = %v, %v", k.String(), got, err)
		}
		// The JSON face is the same parser.
		j, err := json.Marshal(k)
		if err != nil || string(j) != strconv.Quote(k.String()) {
			t.Errorf("Marshal(%v) = %s, %v", k, j, err)
		}
		if err := json.Unmarshal(j, &got); err != nil || got != k {
			t.Errorf("Unmarshal(%s) = %v, %v", j, got, err)
		}
	}
	got := Buddy
	if err := got.UnmarshalText(nil); err != nil || got != Default {
		t.Errorf("empty text = %v, %v, want Default", got, err)
	}
	err := got.UnmarshalText([]byte("slab"))
	if err == nil {
		t.Fatal("UnmarshalText accepted an unknown policy")
	}
	for k := Default; k < numKinds; k++ {
		if !strings.Contains(err.Error(), k.String()) {
			t.Errorf("error %q does not name valid policy %q", err, k)
		}
	}
}

func TestNewRejectsUndersizedArena(t *testing.T) {
	for _, kind := range Kinds() {
		min := MinArena(kind)
		if _, err := New(kind, NewSliceMem((min-1)&^7)); err == nil {
			t.Errorf("%v: arena below MinArena accepted", kind)
		}
		p, _ := mustPolicy(t, kind, min)
		if _, ok := p.Alloc(8, false); !ok {
			t.Errorf("%v: minimum arena cannot satisfy an 8-byte allocation", kind)
		}
	}
}

// TestAllocBasics covers, for every policy: 8-aligned payloads, calloc
// zeroing through the metered path, rejection of zero-size and
// oversized requests, double/wild-free rejection, and full recovery of
// the arena after freeing everything.
func TestAllocBasics(t *testing.T) {
	for _, kind := range Kinds() {
		t.Run(kind.String(), func(t *testing.T) {
			p, m := mustPolicy(t, kind, 1<<14)
			freeB, freeN := p.FreeBytes(), p.FreeBlocks()

			// Dirty a region first so the zeroing assertion is real.
			a0, ok := p.Alloc(256, false)
			if !ok {
				t.Fatal("alloc failed")
			}
			for i := uint32(0); i < 256; i++ {
				m.Buf[a0+i] = 0xAA
			}
			if !p.Free(a0) {
				t.Fatal("free failed")
			}

			before := m.Accesses
			a, ok := p.Alloc(100, true)
			if !ok {
				t.Fatal("alloc failed")
			}
			if a%8 != 0 {
				t.Errorf("payload %#x not 8-aligned", a)
			}
			for i := uint32(0); i < 100; i++ {
				if m.Buf[a+i] != 0 {
					t.Fatalf("byte %d not zeroed", i)
				}
			}
			if zeroCost := m.Accesses - before; zeroCost < 100/4 {
				t.Errorf("zeroing metered only %d accesses, want ≥ %d", zeroCost, 100/4)
			}

			if _, ok := p.Alloc(0, false); ok {
				t.Error("zero-size alloc succeeded")
			}
			if _, ok := p.Alloc(1<<30, false); ok {
				t.Error("oversized alloc succeeded")
			}
			if p.Free(a + 4) {
				t.Error("interior unaligned-block free accepted")
			}
			if p.Free(1 << 29) {
				t.Error("wild free accepted")
			}
			if !p.Free(a) {
				t.Fatal("free failed")
			}
			if p.Free(a) {
				t.Error("double free accepted")
			}
			if err := p.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			// Everything returned: the arena coalesces back to its
			// initial state.
			if p.FreeBytes() != freeB || p.FreeBlocks() != freeN {
				t.Errorf("after free-all: %d bytes / %d blocks, want %d / %d",
					p.FreeBytes(), p.FreeBlocks(), freeB, freeN)
			}
		})
	}
}

// TestCoalescingBothSides frees three adjacent blocks outer-first and
// demands the policy merges the middle one with both neighbors.
func TestCoalescingBothSides(t *testing.T) {
	for _, kind := range Kinds() {
		t.Run(kind.String(), func(t *testing.T) {
			p, _ := mustPolicy(t, kind, 1<<14)
			a, _ := p.Alloc(64, false)
			b, _ := p.Alloc(64, false)
			c, _ := p.Alloc(64, false)
			if !p.Free(a) || !p.Free(c) {
				t.Fatal("frees failed")
			}
			blocksBefore := p.FreeBlocks()
			if !p.Free(b) {
				t.Fatal("middle free failed")
			}
			// Buddy only merges true buddy pairs (a is not b's buddy
			// here), so it may hold steady; the list policies and
			// segregated must merge all three into one block.
			got := p.FreeBlocks()
			if kind == Buddy {
				if got > blocksBefore {
					t.Errorf("FreeBlocks = %d, want ≤ %d", got, blocksBefore)
				}
			} else if got >= blocksBefore {
				t.Errorf("FreeBlocks = %d, want < %d (coalesced)", got, blocksBefore)
			}
			if err := p.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestExhaustionAndRecovery fills a small arena to denial, then frees
// everything and demands a near-arena-sized allocation succeeds again.
func TestExhaustionAndRecovery(t *testing.T) {
	for _, kind := range Kinds() {
		t.Run(kind.String(), func(t *testing.T) {
			p, _ := mustPolicy(t, kind, 4096)
			large := p.LargestFree()
			var got []uint32
			for {
				a, ok := p.Alloc(32, false)
				if !ok {
					break
				}
				got = append(got, a)
			}
			if len(got) == 0 {
				t.Fatal("no allocations fit")
			}
			for _, a := range got {
				if !p.Free(a) {
					t.Fatal("free failed")
				}
			}
			if p.LargestFree() != large {
				t.Errorf("LargestFree after free-all = %d, want %d", p.LargestFree(), large)
			}
			// The biggest payload the recovered arena can hold.
			if _, ok := p.Alloc(large-hdrSize, false); !ok {
				t.Errorf("arena did not recover: %d-byte alloc failed", large-hdrSize)
			}
			if err := p.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestPropertyRandomWorkload is the cross-policy property test: random
// alloc/free churn with overlap tracking and periodic invariant walks.
func TestPropertyRandomWorkload(t *testing.T) {
	for _, kind := range Kinds() {
		t.Run(kind.String(), func(t *testing.T) {
			for seed := int64(0); seed < 6; seed++ {
				rng := rand.New(rand.NewSource(seed))
				p, _ := mustPolicy(t, kind, 1<<16)
				type liveBlock struct{ addr, size uint32 }
				var live []liveBlock
				for op := 0; op < 2500; op++ {
					if rng.Intn(2) == 0 || len(live) == 0 {
						n := uint32(1 + rng.Intn(512))
						if a, ok := p.Alloc(n, rng.Intn(2) == 0); ok {
							if a%8 != 0 {
								t.Fatalf("seed %d op %d: unaligned payload %#x", seed, op, a)
							}
							for _, lb := range live {
								if a < lb.addr+lb.size && lb.addr < a+n {
									t.Fatalf("seed %d op %d: overlap [%d,%d) vs [%d,%d)",
										seed, op, a, a+n, lb.addr, lb.addr+lb.size)
								}
							}
							live = append(live, liveBlock{a, n})
						}
					} else {
						i := rng.Intn(len(live))
						if !p.Free(live[i].addr) {
							t.Fatalf("seed %d op %d: free of live block failed", seed, op)
						}
						live = append(live[:i], live[i+1:]...)
					}
					if op%250 == 0 {
						if err := p.CheckInvariants(); err != nil {
							t.Fatalf("seed %d op %d: %v", seed, op, err)
						}
					}
				}
				for _, lb := range live {
					if !p.Free(lb.addr) {
						t.Fatalf("seed %d: final free failed", seed)
					}
				}
				if err := p.CheckInvariants(); err != nil {
					t.Fatalf("seed %d final: %v", seed, err)
				}
			}
		})
	}
}

// TestBestFitPicksTightestHole crafts three holes (small, exact, large)
// and checks best-fit lands in the exact one where first-fit takes the
// first that fits.
func TestBestFitPicksTightestHole(t *testing.T) {
	mk := func(kind Kind) (Policy, []uint32) {
		m := NewSliceMem(1 << 14)
		p, err := New(kind, m)
		if err != nil {
			t.Fatal(err)
		}
		// Carve: [hole 312][pin][hole 56][pin][hole 120][pin][rest].
		sizes := []uint32{312, 8, 56, 8, 120, 8}
		var addrs []uint32
		for _, s := range sizes {
			a, ok := p.Alloc(s, false)
			if !ok {
				t.Fatal("setup alloc failed")
			}
			addrs = append(addrs, a)
		}
		var holes []uint32
		for i := 0; i < len(addrs); i += 2 {
			if !p.Free(addrs[i]) {
				t.Fatal("setup free failed")
			}
			holes = append(holes, addrs[i])
		}
		return p, holes
	}
	ff, holes := mk(FirstFit)
	a, ok := ff.Alloc(56, false)
	if !ok {
		t.Fatal("first-fit alloc failed")
	}
	// First-fit allocates from the tail of the first (312-byte) hole.
	if a == holes[1] {
		t.Errorf("first-fit landed in the exact hole; expected the first")
	}
	bf, holes := mk(BestFit)
	a, ok = bf.Alloc(56, false)
	if !ok {
		t.Fatal("best-fit alloc failed")
	}
	if a != holes[1] {
		t.Errorf("best-fit payload %#x, want the exact 56-byte hole at %#x", a, holes[1])
	}
}

// TestBuddyRoundsToPowerOfTwo checks buddy's internal fragmentation
// contract: a 300-byte request consumes a 512-byte block.
func TestBuddyRoundsToPowerOfTwo(t *testing.T) {
	p, _ := mustPolicy(t, Buddy, 1<<14)
	total := p.FreeBytes()
	if _, ok := p.Alloc(300, false); !ok {
		t.Fatal("alloc failed")
	}
	if got := total - p.FreeBytes(); got != 512 {
		t.Errorf("300-byte alloc consumed %d bytes, want 512", got)
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestAllocCostUnderFragmentation is the unit-level form of E9's claim.
// The arena is filled to exhaustion with small/separator pairs, the
// smalls are freed (hundreds of pinned holes), and a request that fits
// no hole is probed: the address-ordered list policies walk every hole
// before denying, while buddy and segregated answer from their order /
// class tables in a near-constant number of metered accesses.
func TestAllocCostUnderFragmentation(t *testing.T) {
	costs := map[Kind]uint64{}
	holes := map[Kind]int{}
	for _, kind := range Kinds() {
		p, m := mustPolicy(t, kind, 1<<16)
		var smalls []uint32
		for {
			s, ok := p.Alloc(24, false) // will become a hole
			if !ok {
				break
			}
			if _, ok := p.Alloc(40, false); !ok { // live separator
				p.Free(s)
				break
			}
			smalls = append(smalls, s)
		}
		if len(smalls) < 300 {
			t.Fatalf("%v: only %d pairs fit; test needs heavy fragmentation", kind, len(smalls))
		}
		for _, s := range smalls {
			if !p.Free(s) {
				t.Fatalf("%v: setup free failed", kind)
			}
		}
		holes[kind] = p.FreeBlocks()
		before := m.Accesses
		if _, ok := p.Alloc(200, false); ok { // fits no small hole
			t.Fatalf("%v: probe alloc unexpectedly fit (largest free %d)", kind, p.LargestFree())
		}
		costs[kind] = m.Accesses - before
	}
	if costs[FirstFit] < uint64(holes[FirstFit]) {
		t.Errorf("first-fit probe cost %d accesses for %d holes, want ≥ one per hole",
			costs[FirstFit], holes[FirstFit])
	}
	for _, kind := range []Kind{Buddy, Segregated} {
		if costs[kind] >= costs[FirstFit]/8 {
			t.Errorf("%v probe cost %d accesses vs first-fit %d; want near-flat", kind, costs[kind], costs[FirstFit])
		}
	}
}

// TestDoubleFreeAfterBackwardCoalesce pins the reviewed segregated
// corruption: when a free is absorbed backward into its preceding free
// neighbor, the absorbed block's stale header (size + magic) used to
// survive inside the merged block, so replaying the same Free passed
// validation and corrupted the class lists. Both free orders are
// driven for every policy; the double free must report false and the
// arena must stay walkable and leak-free.
func TestDoubleFreeAfterBackwardCoalesce(t *testing.T) {
	for _, kind := range Kinds() {
		t.Run(kind.String(), func(t *testing.T) {
			for _, loFirst := range []bool{true, false} {
				p, _ := mustPolicy(t, kind, 1<<14)
				initB, initN := p.FreeBytes(), p.FreeBlocks()
				a, ok1 := p.Alloc(120, false)
				b, ok2 := p.Alloc(120, false)
				pin, ok3 := p.Alloc(120, false) // keeps the merge local
				if !ok1 || !ok2 || !ok3 {
					t.Fatal("setup allocs failed")
				}
				lo, hi := a, b
				if lo > hi {
					lo, hi = hi, lo
				}
				first, second := lo, hi // second absorbed backward
				if !loFirst {
					first, second = hi, lo // second absorbs forward
				}
				if !p.Free(first) || !p.Free(second) {
					t.Fatal("setup frees failed")
				}
				if p.Free(second) {
					t.Errorf("loFirst=%v: double free of coalesced block %#x accepted", loFirst, second)
				}
				if p.Free(first) {
					t.Errorf("loFirst=%v: double free of absorbed block %#x accepted", loFirst, first)
				}
				if err := p.CheckInvariants(); err != nil {
					t.Fatalf("loFirst=%v: %v", loFirst, err)
				}
				if !p.Free(pin) {
					t.Fatal("pin free failed")
				}
				if p.FreeBytes() != initB || p.FreeBlocks() != initN {
					t.Errorf("loFirst=%v: after drain %d bytes / %d blocks, want %d / %d",
						loFirst, p.FreeBytes(), p.FreeBlocks(), initB, initN)
				}
			}
		})
	}
}

// TestBuddyDoubleFreeAfterDownwardMerge pins the reviewed buddy
// corruption: when a free merges downward (the buddy is the lower
// half), the freed block's own header — size and live magic — used to
// survive inside the merged block, so a replayed Free pushed a free
// block nested inside a larger free block. The generic coalesce test
// cannot force this (its adjacent allocations are not buddy pairs), so
// this one hunts an actual low/high buddy pair first.
func TestBuddyDoubleFreeAfterDownwardMerge(t *testing.T) {
	p, _ := mustPolicy(t, Buddy, 1<<14)
	initB, initN := p.FreeBytes(), p.FreeBlocks()
	// Allocating 128-byte blocks repeatedly must eventually split a
	// 256-byte block: the low half is returned first, the pushed high
	// half on the very next call — a true buddy pair, low allocated
	// first.
	var addrs []uint32
	var lo, hi uint32
	for i := 0; i < 32 && hi == 0; i++ {
		a, ok := p.Alloc(120, false)
		if !ok {
			t.Fatal("setup alloc failed")
		}
		addrs = append(addrs, a)
		if n := len(addrs); n >= 2 {
			pb, cb := addrs[n-2]-hdrSize, a-hdrSize
			if cb == pb+128 && (pb-buddyBase)%256 == 0 {
				lo, hi = addrs[n-2], a
			}
		}
	}
	if hi == 0 {
		t.Fatal("no low/high buddy pair found")
	}
	if !p.Free(lo) {
		t.Fatal("free of low buddy failed")
	}
	if !p.Free(hi) { // merges downward: bud < blk
		t.Fatal("free of high buddy failed")
	}
	if p.Free(hi) {
		t.Error("double free after downward merge accepted")
	}
	if p.Free(lo) {
		t.Error("double free of merged block accepted")
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for _, a := range addrs {
		if a == lo || a == hi {
			continue
		}
		if !p.Free(a) {
			t.Fatalf("drain free of %#x failed", a)
		}
	}
	if p.FreeBytes() != initB || p.FreeBlocks() != initN {
		t.Errorf("after drain: %d bytes / %d blocks, want %d / %d",
			p.FreeBytes(), p.FreeBlocks(), initB, initN)
	}
}

func TestSliceMemMetering(t *testing.T) {
	m := NewSliceMem(64)
	m.Wr32(0, 42)
	if m.Rd32(0) != 42 {
		t.Error("Rd32 after Wr32 mismatch")
	}
	if m.Accesses != 2 {
		t.Errorf("Accesses = %d, want 2", m.Accesses)
	}
	if m.Peek32(0) != 42 || m.Accesses != 2 {
		t.Error("Peek32 must not meter")
	}
	if m.Size() != 64 {
		t.Errorf("Size = %d", m.Size())
	}
}

// TestSegregatedInClassScanBounded pins the fix for the reviewed
// worst case: thousands of same-class free blocks smaller than the
// request must not make Alloc linear — the in-class probe is bounded
// and the search falls through to a higher class.
func TestSegregatedInClassScanBounded(t *testing.T) {
	p, m := mustPolicy(t, Segregated, 1<<21)
	// 512-byte blocks and 700-byte requests share a class
	// ([512,768)); pin ~2000 free 512-byte holes with live separators.
	var holes []uint32
	for i := 0; i < 2000; i++ {
		h, ok1 := p.Alloc(512-hdrSize, false)
		_, ok2 := p.Alloc(24, false)
		if !ok1 || !ok2 {
			t.Fatalf("setup pair %d failed", i)
		}
		holes = append(holes, h)
	}
	for _, h := range holes {
		if !p.Free(h) {
			t.Fatal("setup free failed")
		}
	}
	before := m.Accesses
	if _, ok := p.Alloc(700-hdrSize, false); !ok {
		t.Fatal("probe alloc failed")
	}
	cost := m.Accesses - before
	if cost > uint64(segScanLimit+len(segBounds)+32) {
		t.Errorf("same-class adversary cost %d accesses; want bounded by scan limit + classes", cost)
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestCheckInvariantsBoundsHostileLists corrupts the free lists of a
// fragmented arena the way hostile snapshot bytes can — a link out of
// the arena, a link to an unaligned address, a list that loops back on
// itself — and expects CheckInvariants and the gauges to return rather
// than panic or spin, CheckInvariants with an error.
func TestCheckInvariantsBoundsHostileLists(t *testing.T) {
	for _, kind := range Kinds() {
		for _, tc := range []struct {
			name string
			link func(blk uint32) uint32
		}{
			{"link beyond 4 GiB", func(uint32) uint32 { return 0xFFFFFF00 }},
			{"link past the arena", func(uint32) uint32 { return 4096 + 8 }},
			{"unaligned link", func(blk uint32) uint32 { return blk + 4 }},
			{"list loops on itself", func(blk uint32) uint32 { return blk }},
		} {
			p, m := mustPolicy(t, kind, 4096)
			var live []uint32
			for range 8 {
				a, ok := p.Alloc(40, false)
				if !ok {
					t.Fatalf("%v: alloc failed", kind)
				}
				live = append(live, a)
			}
			for i := 0; i < len(live); i += 2 {
				p.Free(live[i])
			}
			blk := live[2] - hdrSize // free, between two live blocks
			m.Wr32(blk+4, tc.link(blk))
			if err := p.CheckInvariants(); err == nil {
				t.Errorf("%v, %s: CheckInvariants found nothing", kind, tc.name)
			}
			_, _, _ = p.FreeBytes(), p.FreeBlocks(), p.LargestFree()
		}
	}
}
