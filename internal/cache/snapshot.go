package cache

import (
	"fmt"

	"repro/internal/bus"
	"repro/internal/snapshot"
)

// walkWB walks one writeback entry; loading takes it from the
// channel's free list. Its data must be one line.
func (ch *channel) walkWB(cd *snapshot.Codec, p **wbEntry, lineBytes uint32) {
	if *p == nil {
		*p = ch.newWB(lineBytes)
	}
	w := *p
	cd.Int(&w.sm)
	cd.U32(&w.base)
	cd.Image(w.data)
}

// checkModule fails the load unless module sm has a channel.
func (e *engine) checkModule(cd *snapshot.Codec, sm int) {
	if sm < 0 || e.chanOf(sm) >= len(e.chans) {
		cd.Fail(fmt.Errorf("%s: module %d out of range of %d channels", e.name, sm, len(e.chans)))
	}
}

// walkEngine walks the state both levels share, in the order of their
// format-v2 sections: the LRU clock, every line (state, module, address,
// LRU stamp, data), the nmshr MSHRs with their waiter queues, each
// channel's writeback queue, in-flight writebacks and forwards, then
// each channel's pending bypass. The L1 layout (mesi) adds a presence
// flag and the coherence flags to every MSHR and the module to the
// bypass. Every index a later tick dereferences — an MSHR's set, way
// and module, a line's module — is checked against the built geometry.
func (e *engine) walkEngine(cd *snapshot.Codec, nmshr int) {
	cd.U64(&e.useClock)
	for si := range e.sets {
		for wi := range e.sets[si] {
			ln := &e.sets[si][wi]
			snapshot.Byte(cd, &ln.state)
			cd.Int(&ln.sm)
			cd.U32(&ln.base)
			cd.U64(&ln.used)
			cd.Image(ln.data)
			e.checkModule(cd, ln.sm)
		}
	}
	// The snapshot holds the live MSHRs; loading retires the level's
	// own to the pool and takes the loaded ones from it. The caller has
	// checked that nmshr fits the pool.
	if cd.Loading() {
		e.free = append(e.free, e.mshrs...)
		e.mshrs = e.mshrs[:0]
	}
	for i := 0; i < nmshr && cd.Err() == nil; i++ {
		present := true
		if e.mesi {
			cd.Bool(&present)
		}
		if !present {
			continue
		}
		var m *mshr
		if cd.Loading() {
			m = e.newMSHR()
		} else {
			m = e.mshrs[i]
		}
		cd.Int(&m.sm)
		cd.U32(&m.base)
		if e.mesi {
			cd.Bool(&m.excl)
		}
		cd.Int(&m.set)
		cd.Int(&m.way)
		cd.Bool(&m.issued)
		if e.mesi {
			cd.Bool(&m.granted)
			cd.Bool(&m.shared)
			cd.Bool(&m.killed)
		}
		snapshot.Word(cd, &m.tag)
		// The waiters walk like a snapshot.Slice, but load into the
		// MSHR's own storage.
		nw := uint32(len(m.waiters))
		cd.U32(&nw)
		for j := 0; j < int(nw) && cd.Err() == nil; j++ {
			if cd.Loading() {
				m.waiters = append(m.waiters, waiter{})
			}
			w := &m.waiters[j]
			snapshot.Word(cd, &w.tag)
			w.req.Walk(cd)
		}
		if m.set < 0 || m.set >= len(e.sets) || m.way < 0 || m.way >= len(e.sets[m.set]) {
			cd.Fail(fmt.Errorf("%s: MSHR targets set %d way %d of a %dx%d array", e.name, m.set, m.way, len(e.sets), len(e.sets[0])))
		}
		e.checkModule(cd, m.sm)
	}
	for i := range e.chans {
		ch := &e.chans[i]
		snapshot.Slice(cd, &ch.wbq, func(w **wbEntry) { ch.walkWB(cd, w, e.lineBytes) })
		snapshot.Map(cd, &ch.wbInflight, func(_ bus.Tag, w *wbEntry) *wbEntry {
			ch.walkWB(cd, &w, e.lineBytes)
			return w
		})
		snapshot.Map(cd, &ch.fwd, func(_ bus.Tag, up bus.Tag) bus.Tag {
			snapshot.Word(cd, &up)
			return up
		})
	}
	for i := range e.chans {
		ch := &e.chans[i]
		has := ch.pending != nil
		cd.Bool(&has)
		if cd.Loading() {
			ch.pending = nil
			if has {
				ch.pending = &bypass{sm: i}
			}
		}
		if p := ch.pending; p != nil {
			snapshot.Word(cd, &p.upTag)
			p.req.Walk(cd)
			cd.Bool(&p.needWait)
			if e.mesi {
				cd.Int(&p.sm)
			}
			cd.U32(&p.lo)
			cd.U32(&p.hi)
		}
	}
}

// fields lists the counters in snapshot order.
func (s *Stats) fields() []*uint64 {
	return []*uint64{&s.Hits, &s.Misses, &s.Upgrades, &s.Refills, &s.Writebacks,
		&s.SnoopFlushes, &s.SnoopInvalidations, &s.SnoopDowngrades, &s.Bypassed,
		&s.Errors, &s.BackInvalidations, &s.KilledRefills}
}

// fields lists the counters in snapshot order (Repartitions lives in the
// partitioner).
func (s *L2Stats) fields() []*uint64 {
	return []*uint64{&s.Hits, &s.Misses, &s.WBAllocates, &s.Refills, &s.Writebacks,
		&s.BackInvalidations, &s.DirtyMerges, &s.Bypassed, &s.Errors}
}

// WalkState walks the geometry (sets, ways and MSHR count, which must
// fit the rebuilt cache), the shared engine state (see walkEngine), the
// stats — and the embedded state of the private writeback port, which
// only the cache holds a reference to (config.System tracks the up and
// down ports, the wb channel is internal wiring).
//
// The Domain is deliberately absent: it holds pure topology (which
// cache owns which MSHR address), all dynamic coherence state lives in
// the caches themselves.
func (c *Cache) WalkState(cd *snapshot.Codec) error {
	sets, ways, nmshr := c.cfg.Sets, c.cfg.Ways, len(c.mshrs)
	cd.Int(&sets)
	cd.Int(&ways)
	cd.Int(&nmshr)
	if sets != c.cfg.Sets || ways != c.cfg.Ways || nmshr > c.cfg.MSHRs {
		return cd.Fail(fmt.Errorf("cache %s geometry mismatch: snapshot has sets=%d ways=%d mshrs=%d, system has sets=%d ways=%d mshr capacity %d",
			c.name, sets, ways, nmshr, c.cfg.Sets, c.cfg.Ways, c.cfg.MSHRs))
	}
	c.walkEngine(cd, nmshr)
	for _, v := range c.stats.fields() {
		cd.U64(v)
	}
	return c.chans[0].wb.WalkState(cd)
}

// WalkState walks the geometry (sets, ways, port count and MSHR count,
// which must fit the rebuilt L2), the shared engine state (see
// walkEngine), the partitioner (masks, schedule and UMON shadow state —
// repartition points are deterministic, so they must survive a
// restore), the stats — and the embedded state of the private down
// links, which only the L2 holds references to (the up ports are
// interconnect slave ports that config.System tracks itself).
func (l *L2) WalkState(cd *snapshot.Codec) error {
	sets, ways, nups, nmshr := l.cfg.Sets, l.cfg.Ways, len(l.chans), len(l.mshrs)
	cd.Int(&sets)
	cd.Int(&ways)
	cd.Int(&nups)
	cd.Int(&nmshr)
	if sets != l.cfg.Sets || ways != l.cfg.Ways || nups != len(l.chans) || nmshr > l.cfg.MSHRs {
		return cd.Fail(fmt.Errorf("%s geometry mismatch: snapshot has sets=%d ways=%d ports=%d mshrs=%d, system has sets=%d ways=%d ports=%d mshr capacity %d",
			l.name, sets, ways, nups, nmshr, l.cfg.Sets, l.cfg.Ways, len(l.chans), l.cfg.MSHRs))
	}
	l.walkEngine(cd, nmshr)
	l.part.walk(cd)
	for _, v := range l.stats.fields() {
		cd.U64(v)
	}
	for i := range l.chans {
		l.chans[i].down.WalkState(cd)
	}
	return cd.Err()
}

// walk walks the partitioner's dynamic state: masks, the repartition
// schedule position, and each UMON's shadow directory.
func (p *partitioner) walk(cd *snapshot.Codec) {
	kind, nmasks := p.kind, uint32(len(p.masks))
	snapshot.Byte(cd, &kind)
	cd.U32(&nmasks)
	if kind != p.kind || int(nmasks) != len(p.masks) {
		cd.Fail(fmt.Errorf("partition policy mismatch: snapshot has kind=%d masks=%d, system has kind=%d masks=%d",
			kind, nmasks, p.kind, len(p.masks)))
		return
	}
	// A master's mask must leave it a way to install into, within the
	// L2's ways; a static partition's masks never change.
	full := uint64(1)<<uint(p.ways) - 1
	for i := range p.masks {
		built := p.masks[i]
		cd.U64(&p.masks[i])
		if m := p.masks[i]; m == 0 || m&^full != 0 || p.kind == PartSWP && m != built {
			cd.Fail(fmt.Errorf("way mask %#x of master %d is empty, outside the %d ways, or not the static mask %#x", m, i, p.ways, built))
		}
	}
	cd.U64(&p.count)
	cd.U64(&p.repartitions)
	numon := len(p.umons)
	cd.Int(&numon)
	if numon != len(p.umons) {
		cd.Fail(fmt.Errorf("UMON count mismatch: snapshot has %d, system has %d", numon, len(p.umons)))
		return
	}
	for _, u := range p.umons {
		cd.U64(&u.clock)
		for i := range u.hits {
			cd.U64(&u.hits[i])
		}
		for s := range u.tags {
			for w := range u.tags[s] {
				e := &u.tags[s][w]
				cd.Bool(&e.valid)
				cd.Int(&e.sm)
				cd.U32(&e.base)
				cd.U64(&e.used)
			}
		}
	}
}

// Check checks the private writeback port, whose state only the cache's
// section carries, and then the engine's tags against its ports (see
// checkTags).
func (c *Cache) Check() error {
	if err := c.chans[0].wb.Check(); err != nil {
		return err
	}
	return c.checkTags()
}

// Check checks the private down links, whose state only the L2's
// section carries, and then the engine's tags against its ports (see
// checkTags).
func (l *L2) Check() error {
	for i := range l.chans {
		if err := l.chans[i].down.Check(); err != nil {
			return err
		}
	}
	return l.checkTags()
}

// checkTags reports an error unless every tag the engine waits on is
// one its ports hold — an issued refill's and a forward's on the down
// port, an in-flight writeback's on the writeback port, the up-port tag
// of each waiter, forward and pending bypass in service on the up port —
// and the ports hold no transaction the engine does not wait on or
// answer. A completion nothing waits on faults the run, completing an
// up-port tag not in service panics, and an up-port request nothing
// answers never completes.
func (e *engine) checkTags() error {
	for i := range e.chans {
		ch := &e.chans[i]
		down, up := len(ch.fwd), len(ch.fwd)
		if ch.pending != nil {
			up++
		}
		for _, m := range e.mshrs {
			if e.chanOf(m.sm) != i {
				continue
			}
			if m.issued {
				down++
				if !ch.down.Holds(m.tag) {
					return fmt.Errorf("%s: refill under tag %d, which port %s does not hold", e.name, m.tag, ch.down.Name())
				}
			}
			up += len(m.waiters)
			for _, w := range m.waiters {
				if !ch.up.InService(w.tag) {
					return fmt.Errorf("%s: miss waiting under tag %d, which port %s has not handed out", e.name, w.tag, ch.up.Name())
				}
			}
		}
		for tag, upTag := range ch.fwd {
			switch {
			case !ch.down.Holds(tag):
				return fmt.Errorf("%s: forward under tag %d, which port %s does not hold", e.name, tag, ch.down.Name())
			case !ch.up.InService(upTag):
				return fmt.Errorf("%s: forward answers tag %d, which port %s has not handed out", e.name, upTag, ch.up.Name())
			}
		}
		if p := ch.pending; p != nil && !ch.up.InService(p.upTag) {
			return fmt.Errorf("%s: bypass answers tag %d, which port %s has not handed out", e.name, p.upTag, ch.up.Name())
		}
		for tag := range ch.wbInflight {
			if !ch.wb.Holds(tag) {
				return fmt.Errorf("%s: writeback under tag %d, which port %s does not hold", e.name, tag, ch.wb.Name())
			}
		}
		if ch.wb == ch.down {
			down += len(ch.wbInflight)
		} else if n := ch.wb.Outstanding(); n != len(ch.wbInflight) {
			return fmt.Errorf("%s: %d writebacks in flight, port %s holds %d", e.name, len(ch.wbInflight), ch.wb.Name(), n)
		}
		if n := ch.down.Outstanding(); n != down {
			return fmt.Errorf("%s: %d refills, forwards and writebacks in flight, port %s holds %d", e.name, down, ch.down.Name(), n)
		}
		if n := ch.up.Serving(); n != up {
			return fmt.Errorf("%s: %d miss waiters, forwards and bypasses, port %s serves %d", e.name, up, ch.up.Name(), n)
		}
	}
	return nil
}
