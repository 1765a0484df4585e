package cache

import (
	"encoding/json"
	"strconv"
	"strings"
	"testing"
)

func TestEqualSplit(t *testing.T) {
	cases := []struct {
		masters, ways int
		want          []uint64
	}{
		{2, 8, []uint64{0x0F, 0xF0}},
		{4, 8, []uint64{0x03, 0x0C, 0x30, 0xC0}},
		{3, 8, []uint64{0x07, 0x38, 0xC0}}, // 3+3+2
		{2, 2, []uint64{0x1, 0x2}},
		{4, 2, []uint64{0x1, 0x2, 0x2, 0x2}}, // more masters than ways: overflow shares the last way
	}
	for _, c := range cases {
		got := equalSplit(c.masters, c.ways)
		if len(got) != len(c.want) {
			t.Fatalf("equalSplit(%d,%d) = %#x", c.masters, c.ways, got)
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("equalSplit(%d,%d)[%d] = %#x, want %#x", c.masters, c.ways, i, got[i], c.want[i])
			}
		}
	}
}

// TestUMONStackDepth pins the marginal-utility counter math: a hit is
// credited to the entry's true-LRU stack depth at the moment of the
// hit, so hits[p] answers "how many extra hits would p+1 ways have
// given this master".
func TestUMONStackDepth(t *testing.T) {
	u := newUMON(1, 4, 32)
	a, b, c := uint32(0), uint32(32), uint32(64)
	u.access(0, a) // miss, installs
	u.access(0, a) // hit at depth 0 (MRU)
	u.access(0, b) // miss
	u.access(0, a) // hit at depth 1 (b is more recent)
	u.access(0, c) // miss
	u.access(0, a) // hit at depth 1 (c more recent, b older)
	u.access(0, b) // hit at depth 2 (a, c more recent)
	if u.hits[0] != 1 || u.hits[1] != 2 || u.hits[2] != 1 || u.hits[3] != 0 {
		t.Errorf("hits = %v, want [1 2 1 0]", u.hits)
	}
}

// TestUMONEviction: the shadow directory replaces true-LRU, so a
// working set one line over capacity misses every time (the classic
// LRU cliff the utility curve exposes).
func TestUMONEviction(t *testing.T) {
	u := newUMON(1, 2, 32)
	for pass := 0; pass < 3; pass++ {
		for _, base := range []uint32{0, 32, 64} { // 3 lines through 2 ways
			u.access(0, base)
		}
	}
	for p, h := range u.hits {
		if h != 0 {
			t.Errorf("hits[%d] = %d, want 0 (cyclic thrash never hits under LRU)", p, h)
		}
	}
	u2 := newUMON(1, 2, 32)
	for pass := 0; pass < 3; pass++ {
		for _, base := range []uint32{0, 32} { // fits
			u2.access(0, base)
		}
	}
	if u2.hits[1] != 4 {
		t.Errorf("hits = %v, want 4 hits at depth 1 (alternating pair)", u2.hits)
	}
}

// TestUCPAllocate pins the greedy marginal-utility decision on
// hand-built curves.
func TestUCPAllocate(t *testing.T) {
	// Master 0 is a streaming thrasher: no reuse at any depth. Master 1
	// is reuse-heavy: big gains up to 3 ways. UCP must give master 1
	// everything beyond master 0's guaranteed single way.
	hits := [][]uint64{
		{0, 0, 0, 0},
		{100, 80, 60, 0},
	}
	alloc := ucpAllocate(nil, hits, 4)
	if alloc[0] != 1 || alloc[1] != 3 {
		t.Errorf("alloc = %v, want [1 3]", alloc)
	}
	// Equal curves: ties go to the lowest master index, masks stay
	// deterministic.
	even := [][]uint64{
		{10, 10, 0, 0},
		{10, 10, 0, 0},
	}
	alloc = ucpAllocate(nil, even, 4)
	if alloc[0] != 2 || alloc[1] != 2 {
		t.Errorf("alloc = %v, want [2 2]", alloc)
	}
	// A master never exceeds the way count even when its curve dominates.
	solo := [][]uint64{{5, 5}, {1, 1}}
	alloc = ucpAllocate(nil, solo, 2)
	if alloc[0] != 1 || alloc[1] != 1 {
		t.Errorf("alloc = %v, want [1 1] (minimum one way each)", alloc)
	}
	// Non-convex curve: a loop over 3 lines pays off only at 3 ways
	// (zero gain at 2). The lookahead must still hand both extra ways
	// over in one move.
	cliff := [][]uint64{
		{0, 0, 0, 0},
		{0, 0, 50, 0},
	}
	alloc = ucpAllocate(nil, cliff, 4)
	if alloc[0] != 1 || alloc[1] != 3 {
		t.Errorf("alloc = %v, want [1 3] (lookahead through the cliff)", alloc)
	}
}

// TestPartitionerRepartition: a full UCP cycle — observe to the period
// boundary, check the masks move toward the reuse-heavy master and the
// counters age.
func TestPartitionerRepartition(t *testing.T) {
	p, err := newPartitioner(PartUCP, 2, 4, 4, 32, nil, 64)
	if err != nil {
		t.Fatal(err)
	}
	if p.mask(0) != 0x3 || p.mask(1) != 0xC {
		t.Fatalf("initial masks = %#x/%#x, want equal split 0x3/0xC", p.mask(0), p.mask(1))
	}
	// Master 0 streams (no reuse), master 1 loops over 3 lines of one
	// set (reuse needing 3 ways).
	reuse := []uint32{0, 128, 256} // same set with 4 sets × 32B lines
	for i := 0; i < 64; i++ {
		if i%2 == 0 {
			p.observe(0, 0, uint32(i)*32)
		} else {
			p.observe(1, 0, reuse[(i/2)%3])
		}
	}
	if p.repartitions != 1 {
		t.Fatalf("repartitions = %d after %d observes with period 64", p.repartitions, 64)
	}
	m0, m1 := p.mask(0), p.mask(1)
	if popcount(m1) <= popcount(m0) {
		t.Errorf("masks after repartition = %#x/%#x: reuse-heavy master did not gain ways", m0, m1)
	}
	if m0&m1 != 0 {
		t.Errorf("masks overlap: %#x & %#x", m0, m1)
	}
	if popcount(m0)+popcount(m1) != 4 {
		t.Errorf("masks %#x/%#x do not cover the 4 ways", m0, m1)
	}
}

func popcount(v uint64) int {
	n := 0
	for ; v != 0; v &= v - 1 {
		n++
	}
	return n
}

func TestSWPMaskValidation(t *testing.T) {
	if _, err := newPartitioner(PartSWP, 2, 4, 4, 32, []uint64{0x3}, 0); err == nil {
		t.Error("mask count mismatch accepted")
	}
	if _, err := newPartitioner(PartSWP, 2, 4, 4, 32, []uint64{0x3, 0x30}, 0); err == nil {
		t.Error("out-of-range mask accepted")
	}
	if _, err := newPartitioner(PartSWP, 2, 4, 4, 32, []uint64{0x3, 0}, 0); err == nil {
		t.Error("empty mask accepted")
	}
	p, err := newPartitioner(PartSWP, 2, 4, 4, 32, []uint64{0x1, 0xE}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if p.mask(0) != 0x1 || p.mask(1) != 0xE {
		t.Errorf("masks = %#x/%#x", p.mask(0), p.mask(1))
	}
	// Out-of-range master (a DMA engine beyond the core count) is
	// unconstrained rather than crashing.
	if p.mask(5) != ^uint64(0) {
		t.Errorf("unknown master mask = %#x, want all ways", p.mask(5))
	}
}

func TestParsePartition(t *testing.T) {
	for _, k := range []PartitionKind{PartNone, PartSWP, PartUCP} {
		got := PartitionKind(99)
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
	got := PartUCP
	if err := got.UnmarshalText(nil); err != nil || got != PartNone {
		t.Errorf("empty text = %v, %v, want PartNone", got, err)
	}
	err := got.UnmarshalText([]byte("bogus"))
	if err == nil {
		t.Fatal("bogus policy accepted")
	}
	for _, want := range []string{"none", "swp", "ucp"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name valid policy %q", err, want)
		}
	}
}
