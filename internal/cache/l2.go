package cache

import (
	"fmt"

	"repro/internal/bus"
	"repro/internal/sim"
)

// L2Config parameterizes the shared L2.
type L2Config struct {
	// Name labels the module.
	Name string
	// Sets and Ways are the geometry (defaults 64 sets × 8 ways).
	Sets, Ways int
	// LineBytes is the L2 line size, a multiple of 4 (default 64). When
	// L1s sit above it, config enforces that it is a multiple of the L1
	// line size so every L1 line has exactly one covering L2 line.
	LineBytes uint32
	// MSHRs bounds outstanding L2 misses (default 8).
	MSHRs int
	// Masters is the number of L1 masters above the interconnect, for
	// way partitioning: a request stamped with interconnect master port
	// m belongs to core m % Masters (down and writeback ports of one L1
	// are Masters apart in the interconnect's master list). Zero
	// disables the mapping (every request is unconstrained).
	Masters int
	// Partition selects the victim-way policy; SWPMasks overrides the
	// equal split for PartSWP; UCPPeriod is the repartition period in
	// demand accesses for PartUCP (default 2048).
	Partition PartitionKind
	SWPMasks  []uint64
	UCPPeriod uint64
	// Cacheable reports whether lines of memory module sm may be
	// cached. Nil means every module is cacheable.
	Cacheable func(sm int) bool
}

// L2Stats counts shared-L2 activity. All counters are event counts, so
// they are identical across every kernel scheduling mode.
type L2Stats struct {
	// Hits and Misses classify cacheable accesses, L1 writebacks
	// included (a WB that misses write-allocates and counts as a miss).
	Hits, Misses uint64
	// WBAllocates counts L1 writebacks that missed and write-allocated —
	// the safety net that guarantees no dirty data is lost when a
	// writeback races an inclusion eviction of its line.
	WBAllocates uint64
	// Refills counts installed lines; Writebacks counts dirty victim
	// lines (and clean victims that absorbed dirty L1 data during
	// back-invalidation) queued to memory.
	Refills, Writebacks uint64
	// BackInvalidations counts inclusion sweeps (valid victims evicted
	// while L1s sit above); DirtyMerges counts sweeps that pulled
	// Modified L1 data into the victim before it went to memory.
	BackInvalidations, DirtyMerges uint64
	// Bypassed counts requests forwarded to memory uncached.
	Bypassed uint64
	// Errors counts refills and forwarded requests completing with an
	// in-band error.
	Errors uint64
	// Repartitions counts UCP mask recomputations.
	Repartitions uint64
}

// HitRate returns hits over cacheable accesses.
func (s L2Stats) HitRate() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// L2 is a shared, inclusive, set-associative second-level cache
// interposed between the interconnect and the memory modules: up port i
// is the interconnect's slave port for memory i (so L1 misses, L1
// writebacks and bypass traffic all flow in through it), and down port
// i is a private FIFO link to memory i. Because each down link is
// point-to-point and in-order, issue order alone orders writebacks
// ahead of dependent refills — the L2 needs no separate writeback
// channel and no snoop hook of its own. Lines are clean (Shared) or
// dirty (Modified) — there is no exclusivity — and every access type
// coalesces onto an in-flight miss of its line. See the package
// documentation for the inclusion protocol.
type L2 struct {
	engine
	cfg L2Config

	// dom is the L1 coherence domain sitting above, used to back-
	// invalidate L1 copies when an inclusion victim is evicted. Nil when
	// the L2 runs standalone.
	dom *Domain

	part *partitioner

	stats L2Stats
}

// NewL2 creates the shared L2 over len(ups) memory modules. ups[i] is
// the interconnect-facing slave port for memory i (it must deliver
// completions out of order so hits can overtake outstanding misses);
// downs[i] is the in-order port memory i consumes.
func NewL2(k *sim.Kernel, cfg L2Config, ups, downs []*bus.Port) (*L2, error) {
	if cfg.Name == "" {
		cfg.Name = "l2"
	}
	if len(ups) != len(downs) {
		return nil, fmt.Errorf("%s: %d up ports, %d down ports", cfg.Name, len(ups), len(downs))
	}
	if cfg.Sets <= 0 {
		cfg.Sets = 64
	}
	if cfg.Ways <= 0 {
		cfg.Ways = 8
	}
	if cfg.Ways > 64 {
		return nil, fmt.Errorf("%s: %d ways, at most 64 (way masks are 64 bits)", cfg.Name, cfg.Ways)
	}
	if cfg.LineBytes == 0 {
		cfg.LineBytes = 64
	}
	if cfg.LineBytes%4 != 0 {
		return nil, fmt.Errorf("%s: line size %d not a multiple of 4", cfg.Name, cfg.LineBytes)
	}
	if cfg.MSHRs <= 0 {
		cfg.MSHRs = 8
	}
	part, err := newPartitioner(cfg.Partition, cfg.Masters, cfg.Sets, cfg.Ways, cfg.LineBytes, cfg.SWPMasks, cfg.UCPPeriod)
	if err != nil {
		return nil, err
	}
	chans := make([]channel, len(ups))
	for i := range chans {
		chans[i] = newChannel(ups[i], downs[i], downs[i])
	}
	l := &L2{cfg: cfg, part: part}
	l.engine = newEngine(k, cfg.Name, cfg.Sets, cfg.Ways, cfg.LineBytes, chans, cfg.MSHRs,
		counters{&l.stats.Refills, &l.stats.Writebacks, &l.stats.Bypassed, &l.stats.Errors})
	k.Add(l)
	return l, nil
}

// AttachL1s hands the L2 the L1 coherence domain above it, enabling
// inclusion back-invalidation. The L1 line size must divide the L2's.
func (l *L2) AttachL1s(d *Domain) error {
	for _, c := range d.Caches() {
		if l.cfg.LineBytes%c.LineBytes() != 0 {
			return fmt.Errorf("%s: line size %d not a multiple of %s's %d",
				l.name, l.cfg.LineBytes, c.Name(), c.LineBytes())
		}
	}
	l.dom = d
	return nil
}

// Stats returns a snapshot of the counters, folding in the
// partitioner's repartition count.
func (l *L2) Stats() L2Stats {
	s := l.stats
	s.Repartitions = l.part.repartitions
	return s
}

// WayMasks returns the current per-core way masks (nil when
// unpartitioned) — for headers and tests.
func (l *L2) WayMasks() []uint64 {
	if l.part.kind == PartNone {
		return nil
	}
	return append([]uint64(nil), l.part.masks...)
}

func (l *L2) cacheable(sm int) bool {
	return sm >= 0 && sm < len(l.chans) && (l.cfg.Cacheable == nil || l.cfg.Cacheable(sm))
}

// coreOf maps an interconnect master-port index to its L1 core for
// partitioning: with caches the interconnect's masters are the L1 down
// ports followed by the L1 writeback ports, so both identities of core
// i are congruent to i modulo the core count. Masters beyond that range
// (DMA engines) are unconstrained.
func (l *L2) coreOf(master int) int {
	if l.cfg.Masters <= 0 || master < 0 || master >= 2*l.cfg.Masters {
		return -1
	}
	return master % l.cfg.Masters
}

// Tick implements sim.Module: drain memory completions, examine each up
// port's head, issue toward each memory.
func (l *L2) Tick(cycle uint64) {
	for i := range l.chans {
		for tag, resp := range l.chans[i].down.Completions() {
			if m := l.complete(i, tag, resp); m != nil {
				l.install(m, resp)
			}
		}
	}
	for i := range l.chans {
		l.processHead(i)
	}
	for i := range l.chans {
		l.issue(i)
	}
}

// install writes a completed refill into its target way and replays the
// MSHR's waiters in arrival order.
func (l *L2) install(m *mshr, resp bus.Response) {
	if ln := l.fill(m, resp); ln != nil {
		ln.state = Shared
		for _, w := range m.waiters {
			l.serve(ln, w.tag, w.req, m.sm)
		}
		l.removeMSHR(m)
	}
}

// serve answers one cacheable request from a resident line, dirtying it
// on writes. The request's whole data range lies within the line
// (checked before it was accepted as cacheable).
func (l *L2) serve(ln *line, tag bus.Tag, req bus.Request, up int) {
	off := req.VPtr - ln.base
	es := req.DType.Size()
	port := l.chans[up].up
	switch req.Op {
	case bus.OpRead:
		port.Complete(tag, bus.Response{Data: readElem(ln.data[off:], req.DType)})
	case bus.OpWrite:
		writeElem(ln.data[off:], req.DType, req.Data)
		ln.state = Modified
		port.Complete(tag, bus.Response{})
	case bus.OpReadBurst:
		out := req.ReadBuffer()
		for i := range out {
			out[i] = readElem(ln.data[off+uint32(i)*es:], req.DType)
		}
		port.Complete(tag, bus.Response{Burst: out})
	case bus.OpWriteBurst:
		for i, v := range req.Burst {
			writeElem(ln.data[off+uint32(i)*es:], req.DType, v)
		}
		ln.state = Modified
		port.Complete(tag, bus.Response{})
	}
}

// cacheableLine reports whether req is an access the L2 may serve from
// one line: any data operation (scalar or burst — L1 refills and
// writebacks are line bursts) on a cacheable memory whose whole byte
// range falls within a single L2 line.
func (l *L2) cacheableLine(up int, req bus.Request) bool {
	_, lo, hi, ok := dataRange(req)
	if !ok || !l.cacheable(up) || hi <= lo {
		return false
	}
	return l.lineBase(lo) == l.lineBase(hi-1)
}

// processHead examines up port i's queue head and pops at most one
// request. The head stays queued when the L2 cannot act on it yet
// (MSHRs exhausted, no victim way inside the master's partition, or an
// unforwarded bypass occupying the port's bypass slot). What the L2
// cannot cache (multi-line bursts, dynamic operations, non-cacheable
// memories) bypasses exactly like at the L1; the L1 domain already
// snooped it at the interconnect, so no back-invalidation is needed for
// it — L1 copies were handled at the grant.
func (l *L2) processHead(i int) {
	if l.chans[i].pending != nil {
		return
	}
	req, ok := l.chans[i].up.Peek()
	if !ok {
		return
	}
	if l.cacheableLine(i, req) {
		l.processCacheable(i, req)
		return
	}
	if p := l.bypass(i, i, l.cacheable(i), req); p != nil && p.needWait {
		l.flushRange(i, p.lo, p.hi, p.drops())
	}
}

func (l *L2) processCacheable(i int, req bus.Request) {
	base := l.lineBase(req.VPtr)

	if m := l.findMSHR(i, base); m != nil {
		l.join(i, m, req)
		l.countMiss(req, i, base)
		return
	}

	if set, way, ok := l.lookup(i, base); ok {
		ln := &l.sets[set][way]
		tx, _ := l.chans[i].up.Pop()
		l.stats.Hits++
		if !req.WB {
			l.observe(req, i, base)
		}
		l.touch(ln)
		l.serve(ln, tx.Tag, req, i)
		return
	}

	if len(l.mshrs) >= l.cfg.MSHRs {
		return
	}
	set := l.setIndex(i, base)
	way, ok := l.victimWay(set, l.part.mask(l.coreOf(req.Master)))
	if !ok {
		return // no way in this master's partition is free of an installing miss
	}
	l.countMiss(req, i, base)
	l.evict(&l.sets[set][way])
	l.addMSHR(i, i, base, set, way, req)
}

// countMiss counts a popped miss: a writeback write-allocates, a demand
// access feeds the partitioner.
func (l *L2) countMiss(req bus.Request, sm int, base uint32) {
	l.stats.Misses++
	if req.WB {
		l.stats.WBAllocates++
	} else {
		l.observe(req, sm, base)
	}
}

// observe feeds a demand access (never a writeback) to the partitioner.
func (l *L2) observe(req bus.Request, sm int, base uint32) {
	core := l.coreOf(req.Master)
	if core >= 0 {
		l.part.observe(core, sm, base)
	}
}

// evict empties a line for a refill, enforcing inclusion: L1 copies of
// the victim line are invalidated synchronously (dirty ones merge their
// data into the victim first — a zero-cycle forced writeback) and
// granted-but-uninstalled L1 refills of the line are killed. The victim
// goes to the writeback queue when it is dirty — either dirty in the
// L2, or dirtied by a merged L1 line. Eviction never stalls on L1
// state, so the L2's head-of-queue processing cannot deadlock.
func (l *L2) evict(ln *line) {
	if ln.state == Invalid {
		return
	}
	dirty := ln.state == Modified
	if l.dom != nil {
		l.stats.BackInvalidations++
		if l.dom.BackInvalidate(ln.sm, ln.base, ln.base+l.lineBytes, ln.data) {
			l.stats.DirtyMerges++
			dirty = true
		}
	}
	if dirty {
		l.queueWB(ln)
	}
	ln.state = Invalid
}

// flushRange writes back every dirty L2 line overlapping [lo, hi) in
// memory sm and, when invalidate is set, drops every overlapping line
// (back-invalidating L1 copies to keep inclusion).
func (l *L2) flushRange(sm int, lo, hi uint32, invalidate bool) {
	l.visitOverlapping(sm, lo, hi, func(ln *line) {
		if invalidate {
			l.evict(ln)
		} else if ln.state == Modified {
			l.clean(ln)
		}
	})
}

// FlushAll queues a writeback for every dirty line (M→S). Lines stay
// valid, so inclusion is untouched. Drain L1s first (their dirty data
// must land in the L2), then FlushAll here and run until Synced.
func (l *L2) FlushAll() { l.flushAll() }

// Covers reports whether a valid L2 line contains (sm, addr) — the
// inclusion invariant's building block.
func (l *L2) Covers(sm int, addr uint32) bool {
	_, _, ok := l.lookup(sm, l.lineBase(addr))
	return ok
}

// CheckInclusion verifies the inclusion invariant between kernel steps:
// every valid L1 line is covered by a valid L2 line. Back-invalidation
// is synchronous and kills granted-but-uninstalled L1 refills, so the
// invariant holds at every cycle boundary.
func CheckInclusion(l2 *L2, caches []*Cache) error {
	var err error
	for _, c := range caches {
		name := c.Name()
		c.VisitLines(func(sm int, base uint32, st State) {
			if err == nil && !l2.Covers(sm, base) {
				err = fmt.Errorf("cache: inclusion violation: %s holds sm=%d base=%#x (%v) with no L2 parent",
					name, sm, base, st)
			}
		})
	}
	return err
}
