package workload

// This file is the allocator-workload generator behind experiment E9:
// seeded alloc/free scripts with controllable size mixes, lifetime
// distributions and adversarial interleavings, replayed against any
// allocation policy (see internal/alloc). Ops reference
// abstract slots — the replayer maps slots to whatever addresses the
// policy under test returns, so one script drives every policy.

// ChurnOp is one step of an allocator workload: an allocation of Size
// payload bytes into Slot, or the free of whatever Slot currently
// holds. Replayers must tolerate allocation failure (skip the slot's
// later free): denial under fragmentation is policy-dependent and part
// of what the workloads measure.
type ChurnOp struct {
	Free bool
	Slot int
	Size uint32
	Zero bool
}

// SizeClass weights one allocation size in a churn mix.
type SizeClass struct {
	Bytes  uint32
	Weight int
}

// ChurnPattern selects the interleaving shape.
type ChurnPattern int

const (
	// ChurnRandom is the steady-state churn: class-sampled sizes with
	// per-allocation lifetimes drawn uniformly from [MinLife, MaxLife]
	// ops. At high occupancy the mixed sizes fragment the arena toward
	// a steady state — the workload under which first-fit's free list
	// grows and its alloc latency with it.
	ChurnRandom ChurnPattern = iota
	// ChurnComb is the adversarial interleaving, built for allocators
	// that carve fresh requests from a low-addressed reserve (first-fit
	// with tail splitting is immune to naive combs: its reserve sits at
	// the head of the address-ordered list and absorbs everything).
	// Phase A allocates a few medium "landing" blocks, which such an
	// allocator places at the top of the arena; phase B fills the rest
	// to exhaustion with small/separator pairs; phase C frees every
	// small (a comb of holes pinned by live separators) and the landing
	// blocks (one medium-capable region at the very end of the address
	// order); phase D is steady medium alloc/free churn — every medium
	// is too big for any hole, so a list walker passes the entire comb
	// to reach the landing region, while buddy and segregated jump
	// straight there via their order/class tables.
	ChurnComb
	// ChurnSawtooth fills every slot, then drains oldest-first, and
	// repeats — maximal live-set swings with FIFO lifetimes.
	ChurnSawtooth
)

// String names the pattern for reports.
func (p ChurnPattern) String() string {
	switch p {
	case ChurnComb:
		return "comb"
	case ChurnSawtooth:
		return "sawtooth"
	default:
		return "random"
	}
}

// ChurnConfig parameterizes the generator.
type ChurnConfig struct {
	// Seed drives the deterministic generator.
	Seed uint64
	// Ops is the number of operations to emit.
	Ops int
	// Slots bounds the simultaneously live allocations of ChurnRandom
	// and ChurnSawtooth (default 64). ChurnComb manages its own slots:
	// its live set grows for the whole run by design.
	Slots int
	// Classes is the size mix (default: a bimodal small/large mix).
	// ChurnComb uses Classes[0] as the hole size, Classes[1] as the
	// separator and the last class as the medium probe.
	Classes []SizeClass
	// ArenaBytes tells ChurnComb the arena it must exhaust (default
	// 64 KiB). For the comb to reach its steady churn phase, Ops should
	// be at least ~4 × ArenaBytes/80 (the pair fill cost).
	ArenaBytes uint32
	// MinLife and MaxLife bound ChurnRandom lifetimes in ops (defaults
	// 4 and 4×Slots).
	MinLife, MaxLife int
	// ZeroPct is the percentage of allocations requesting calloc-style
	// zeroing.
	ZeroPct int
	// Pattern selects the interleaving.
	Pattern ChurnPattern
}

func (c *ChurnConfig) defaults() {
	if c.Ops <= 0 {
		c.Ops = 1000
	}
	if c.Slots <= 0 {
		c.Slots = 64
	}
	if len(c.Classes) == 0 {
		c.Classes = []SizeClass{{24, 6}, {40, 3}, {200, 1}}
	}
	if c.MinLife <= 0 {
		c.MinLife = 4
	}
	if c.MaxLife < c.MinLife {
		c.MaxLife = 4 * c.Slots
	}
	if c.ArenaBytes == 0 {
		c.ArenaBytes = 1 << 16
	}
}

// churnRNG is the deterministic PCG-ish generator all patterns share.
type churnRNG uint64

func (r *churnRNG) next() uint32 {
	*r = *r*6364136223846793005 + 1442695040888963407
	return uint32(*r >> 33)
}

func (r *churnRNG) intn(n int) int { return int(r.next()) % n }

// pickClass samples a size from the weighted classes.
func pickClass(r *churnRNG, classes []SizeClass) uint32 {
	total := 0
	for _, c := range classes {
		total += c.Weight
	}
	n := r.intn(total)
	for _, c := range classes {
		if n < c.Weight {
			return c.Bytes
		}
		n -= c.Weight
	}
	return classes[len(classes)-1].Bytes
}

// Churn generates a deterministic allocator workload.
func Churn(cfg ChurnConfig) []ChurnOp {
	cfg.defaults()
	rng := churnRNG(cfg.Seed*2 + 1)
	switch cfg.Pattern {
	case ChurnComb:
		return churnComb(cfg, &rng)
	case ChurnSawtooth:
		return churnSawtooth(cfg, &rng)
	default:
		return churnRandom(cfg, &rng)
	}
}

func (c *ChurnConfig) zero(r *churnRNG) bool {
	return c.ZeroPct > 0 && r.intn(100) < c.ZeroPct
}

// churnRandom emits lifetime-driven steady-state churn.
func churnRandom(cfg ChurnConfig, rng *churnRNG) []ChurnOp {
	ops := make([]ChurnOp, 0, cfg.Ops)
	deaths := make([]int, cfg.Slots) // op index at which the slot frees; 0 = empty
	for t := 0; len(ops) < cfg.Ops; t++ {
		// Frees due this tick.
		for s := 0; s < cfg.Slots && len(ops) < cfg.Ops; s++ {
			if deaths[s] != 0 && deaths[s] <= t {
				ops = append(ops, ChurnOp{Free: true, Slot: s})
				deaths[s] = 0
			}
		}
		if len(ops) >= cfg.Ops {
			break
		}
		// One allocation into a random empty slot, if any.
		s := rng.intn(cfg.Slots)
		for i := 0; i < cfg.Slots && deaths[s] != 0; i++ {
			s = (s + 1) % cfg.Slots
		}
		if deaths[s] != 0 {
			continue // all live; let time pass
		}
		life := cfg.MinLife + rng.intn(cfg.MaxLife-cfg.MinLife+1)
		deaths[s] = t + life
		ops = append(ops, ChurnOp{Slot: s, Size: pickClass(rng, cfg.Classes), Zero: cfg.zero(rng)})
	}
	return ops
}

// churnComb emits the hole-comb adversary (see ChurnComb). Slot map:
// slot 0 is the medium scratch slot, slots 1..landing are the landing
// blocks, fresh slots after that hold pairs; separators stay live for
// the whole run. Pair fill is sized for the leanest policy (first-fit:
// 8-byte headers, 8-byte alignment) plus slack, so every policy's
// arena is genuinely exhausted — over-asked allocations simply fail at
// replay, which is itself part of the measured behavior.
func churnComb(cfg ChurnConfig, rng *churnRNG) []ChurnOp {
	small := cfg.Classes[0].Bytes
	sep := cfg.Classes[min(1, len(cfg.Classes)-1)].Bytes
	medium := cfg.Classes[len(cfg.Classes)-1].Bytes
	const landing = 8
	pairCost := (align8c(small) + 8) + (align8c(sep) + 8)
	pairs := int(cfg.ArenaBytes/pairCost) + int(cfg.ArenaBytes/pairCost)/10 + landing

	ops := make([]ChurnOp, 0, cfg.Ops)
	emit := func(op ChurnOp) bool {
		if len(ops) >= cfg.Ops {
			return false
		}
		ops = append(ops, op)
		return true
	}
	// Phase A: landing blocks — a reserve-carving allocator places
	// these at the far end of the arena.
	landed := 0
	for s := 1; s <= landing; s++ {
		if emit(ChurnOp{Slot: s, Size: medium}) {
			landed = s
		}
	}
	// Phase B: fill to exhaustion with small/separator pairs.
	nextSlot := landing + 1
	smalls := make([]int, 0, pairs)
	for i := 0; i < pairs; i++ {
		if !emit(ChurnOp{Slot: nextSlot, Size: small, Zero: cfg.zero(rng)}) {
			break
		}
		smalls = append(smalls, nextSlot)
		nextSlot++
		emit(ChurnOp{Slot: nextSlot, Size: sep})
		nextSlot++
	}
	// Phase C: open the comb — every small becomes a pinned hole — and
	// free the landing blocks into one medium-capable region at the far
	// end of the address order.
	for _, s := range smalls {
		emit(ChurnOp{Free: true, Slot: s})
	}
	for s := 1; s <= landed; s++ {
		emit(ChurnOp{Free: true, Slot: s})
	}
	// Phase D: steady medium churn. Every allocation fits no hole, so a
	// list walker passes the whole comb to reach the landing region.
	for len(ops) < cfg.Ops {
		emit(ChurnOp{Slot: 0, Size: medium})
		emit(ChurnOp{Free: true, Slot: 0})
	}
	return ops
}

// align8c mirrors the allocators' 8-byte payload alignment.
func align8c(n uint32) uint32 { return (n + 7) &^ 7 }

// churnSawtooth fills every slot then drains oldest-first.
func churnSawtooth(cfg ChurnConfig, rng *churnRNG) []ChurnOp {
	ops := make([]ChurnOp, 0, cfg.Ops)
	for len(ops) < cfg.Ops {
		n := 0
		for s := 0; s < cfg.Slots && len(ops) < cfg.Ops; s++ {
			ops = append(ops, ChurnOp{Slot: s, Size: pickClass(rng, cfg.Classes), Zero: cfg.zero(rng)})
			n++
		}
		for s := 0; s < n && len(ops) < cfg.Ops; s++ {
			ops = append(ops, ChurnOp{Free: true, Slot: s})
		}
	}
	return ops
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
