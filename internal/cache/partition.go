package cache

import "fmt"

// PartitionKind selects the shared L2's way-partitioning policy.
type PartitionKind uint8

const (
	// PartNone: plain LRU, every master competes for every way.
	PartNone PartitionKind = iota
	// PartSWP: static way partitioning — each master is restricted to a
	// fixed way mask (configured, or an equal contiguous split).
	PartSWP
	// PartUCP: utility-based cache partitioning — per-master shadow-tag
	// monitors (UMONs) count how many hits each master would get from
	// each additional way, and a periodic greedy repartition hands the
	// ways to whoever gains the most from them.
	PartUCP
)

// String returns the flag spelling.
func (p PartitionKind) String() string {
	switch p {
	case PartSWP:
		return "swp"
	case PartUCP:
		return "ucp"
	default:
		return "none"
	}
}

// MarshalText spells the policy as String does, so PartitionKind is a
// value of flag.TextVar and encoding/json alike.
func (p PartitionKind) MarshalText() ([]byte, error) { return []byte(p.String()), nil }

// UnmarshalText is the one parser of the -partition flag and the
// "partition" JSON key: it accepts exactly the spellings String
// produces, plus the empty string for PartNone (a key present but
// blank).
func (p *PartitionKind) UnmarshalText(text []byte) error {
	if len(text) == 0 {
		*p = PartNone
		return nil
	}
	for c := PartNone; c <= PartUCP; c++ {
		if string(text) == c.String() {
			*p = c
			return nil
		}
	}
	return fmt.Errorf("cache: unknown partition policy %q (want none|swp|ucp)", text)
}

// equalSplit returns contiguous way masks dividing `ways` ways over
// `masters` masters as evenly as possible (the first masters get the
// remainder ways). With more masters than ways the extra masters share
// the last way rather than getting an empty mask.
func equalSplit(masters, ways int) []uint64 {
	masks := make([]uint64, masters)
	base, rem := ways/masters, ways%masters
	lo := 0
	for i := range masks {
		n := base
		if i < rem {
			n++
		}
		if n == 0 {
			masks[i] = 1 << uint(ways-1)
			continue
		}
		masks[i] = ((uint64(1) << uint(n)) - 1) << uint(lo)
		lo += n
	}
	return masks
}

// contiguousMasks converts a per-master way allocation (summing to the
// way count) into contiguous masks in master order, appended to dst[:0].
func contiguousMasks(dst []uint64, alloc []int) []uint64 {
	masks := dst[:0]
	lo := 0
	for _, n := range alloc {
		masks = append(masks, ((uint64(1)<<uint(n))-1)<<uint(lo))
		lo += n
	}
	return masks
}

// umonTag is one shadow-tag entry.
type umonTag struct {
	valid bool
	sm    int
	base  uint32
	used  uint64
}

// umon is one master's utility monitor: a shadow tag directory with the
// L2's geometry and true-LRU stacks, but no data. Every demand access
// the master sends to the L2 is replayed here as if the master owned
// the whole cache; a hit at LRU stack position p means "one more hit if
// this master had at least p+1 ways", which is exactly the marginal
// utility curve UCP allocates from.
type umon struct {
	sets, ways int
	lineBytes  uint32
	tags       [][]umonTag
	clock      uint64
	// hits[p] counts shadow hits whose entry sat at LRU stack depth p
	// (0 = MRU). Halved at every repartition so the curve tracks the
	// recent phase rather than all history.
	hits []uint64
}

func newUMON(sets, ways int, lineBytes uint32) *umon {
	u := &umon{sets: sets, ways: ways, lineBytes: lineBytes,
		tags: make([][]umonTag, sets), hits: make([]uint64, ways)}
	for s := range u.tags {
		u.tags[s] = make([]umonTag, ways)
	}
	return u
}

func (u *umon) setIndex(sm int, base uint32) int {
	return int((base/u.lineBytes + uint32(sm)) % uint32(u.sets))
}

// access replays one demand access to line (sm, base): on a hit the
// entry's LRU stack depth is credited, on a miss the LRU entry is
// replaced. Either way the touched entry becomes MRU.
func (u *umon) access(sm int, base uint32) {
	set := u.tags[u.setIndex(sm, base)]
	u.clock++
	for w := range set {
		e := &set[w]
		if e.valid && e.sm == sm && e.base == base {
			// Stack depth = number of entries touched more recently.
			depth := 0
			for x := range set {
				if set[x].valid && set[x].used > e.used {
					depth++
				}
			}
			u.hits[depth]++
			e.used = u.clock
			return
		}
	}
	victim, oldest := 0, ^uint64(0)
	for w := range set {
		if !set[w].valid {
			victim = w
			break
		}
		if set[w].used < oldest {
			victim, oldest = w, set[w].used
		}
	}
	set[victim] = umonTag{valid: true, sm: sm, base: base, used: u.clock}
}

// age halves the hit counters (and leaves the tags, which carry no
// stale utility by themselves).
func (u *umon) age() {
	for i := range u.hits {
		u.hits[i] /= 2
	}
}

// ucpAllocate runs the greedy marginal-utility allocation with
// lookahead: every master gets one way, then each round hands k more
// ways to the (master, k) pair with the highest per-way utility
// sum(hits[alloc..alloc+k))/k. The lookahead is what sees through
// non-convex curves (a working set that only pays off at 3 ways shows
// zero gain for the 2nd way alone). Ties go to the lowest master index
// and the smallest k, so the decision is deterministic. hits[i][p] is
// master i's utility curve: shadow hits at LRU stack depth p. The
// allocation is appended to dst[:0].
func ucpAllocate(dst []int, hits [][]uint64, ways int) []int {
	alloc := dst[:0]
	for range hits {
		alloc = append(alloc, 1)
	}
	assigned := len(alloc)
	for assigned < ways {
		best, bestK := 0, 1
		var bestSum uint64
		haveBest := false
		for i := range hits {
			var sum uint64
			maxK := ways - assigned
			if room := ways - alloc[i]; room < maxK {
				maxK = room
			}
			for k := 1; k <= maxK; k++ {
				sum += hits[i][alloc[i]+k-1]
				// sum/k > bestSum/bestK, compared without division.
				if !haveBest || sum*uint64(bestK) > bestSum*uint64(k) {
					best, bestK, bestSum, haveBest = i, k, sum, true
				}
			}
		}
		if !haveBest {
			break // every master already owns all ways it can use
		}
		alloc[best] += bestK
		assigned += bestK
	}
	return alloc
}

// partitioner is the L2's way-partitioning state: the per-master way
// masks constraining victim selection, and (for UCP) the UMONs plus the
// repartition schedule. The schedule counts demand accesses, never
// cycles, so every kernel scheduling mode repartitions at the same
// points and stays bit-identical.
type partitioner struct {
	kind   PartitionKind
	ways   int
	masks  []uint64
	umons  []*umon
	period uint64 // UCP: demand accesses between repartitions
	count  uint64 // demand accesses since the last repartition

	// UCP: each UMON's utility curve and the allocation repartition
	// computes from them, kept so a repartition allocates nothing.
	hits  [][]uint64
	alloc []int

	repartitions uint64
}

// newPartitioner builds the policy state. swpMasks overrides the SWP
// default equal split when non-nil (one mask per master, each non-zero
// and within the way count).
func newPartitioner(kind PartitionKind, masters, sets, ways int, lineBytes uint32, swpMasks []uint64, period uint64) (*partitioner, error) {
	p := &partitioner{kind: kind, ways: ways}
	switch kind {
	case PartNone:
		return p, nil
	case PartSWP:
		if swpMasks != nil {
			if len(swpMasks) != masters {
				return nil, fmt.Errorf("cache: %d SWP masks for %d masters", len(swpMasks), masters)
			}
			full := uint64(1)<<uint(ways) - 1
			for i, m := range swpMasks {
				if m == 0 || m&^full != 0 {
					return nil, fmt.Errorf("cache: SWP mask %d = %#x invalid for %d ways", i, m, ways)
				}
			}
			p.masks = append([]uint64(nil), swpMasks...)
			return p, nil
		}
		p.masks = equalSplit(masters, ways)
		return p, nil
	case PartUCP:
		if masters > ways {
			return nil, fmt.Errorf("cache: UCP needs at least one way per master (%d masters, %d ways)", masters, ways)
		}
		if period == 0 {
			period = 2048
		}
		p.period = period
		p.masks = equalSplit(masters, ways)
		p.umons = make([]*umon, masters)
		p.hits = make([][]uint64, masters)
		for i := range p.umons {
			p.umons[i] = newUMON(sets, ways, lineBytes)
			p.hits[i] = p.umons[i].hits
		}
		p.alloc = make([]int, 0, masters)
		return p, nil
	default:
		return nil, fmt.Errorf("cache: unknown partition kind %d", kind)
	}
}

// mask returns the way mask constraining master's victim selection.
func (p *partitioner) mask(master int) uint64 {
	if p.kind == PartNone || master < 0 || master >= len(p.masks) {
		return ^uint64(0)
	}
	return p.masks[master]
}

// observe replays one demand access into the master's UMON and runs the
// periodic repartition. Only UCP keeps per-access state.
func (p *partitioner) observe(master, sm int, base uint32) {
	if p.kind != PartUCP || master < 0 || master >= len(p.umons) {
		return
	}
	p.umons[master].access(sm, base)
	p.count++
	if p.count >= p.period {
		p.count = 0
		p.repartition()
	}
}

// repartition recomputes the masks from the UMON utility curves and
// ages the counters.
func (p *partitioner) repartition() {
	p.alloc = ucpAllocate(p.alloc, p.hits, p.ways)
	p.masks = contiguousMasks(p.masks, p.alloc)
	for _, u := range p.umons {
		u.age()
	}
	p.repartitions++
}
