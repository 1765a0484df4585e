package cache

import (
	"fmt"
	"sort"

	"repro/internal/bus"
	"repro/internal/snapshot"
)

func sortedTags[V any](m map[bus.Tag]V) []bus.Tag {
	tags := make([]bus.Tag, 0, len(m))
	for t := range m {
		tags = append(tags, t)
	}
	sort.Slice(tags, func(i, j int) bool { return tags[i] < tags[j] })
	return tags
}

func encodeWB(enc *snapshot.Encoder, e *wbEntry) {
	enc.Int(e.sm)
	enc.U32(e.base)
	enc.Bytes32(e.data)
}

func decodeWB(dec *snapshot.Decoder) *wbEntry {
	return &wbEntry{sm: dec.Int(), base: dec.U32(), data: dec.Bytes32()}
}

// saveEngine writes the state both levels share, in the order of their
// format-v2 sections: the LRU clock, every line (state, address, LRU
// stamp, data), the MSHRs with their waiter queues, each channel's
// writeback queue, in-flight writebacks and forwards, then each
// channel's pending bypass. The L1 layout (mesi) adds a presence flag
// and the coherence flags to every MSHR and the module to the bypass.
func (e *engine) saveEngine(enc *snapshot.Encoder) {
	enc.U64(e.useClock)
	for si := range e.sets {
		for wi := range e.sets[si] {
			ln := &e.sets[si][wi]
			enc.U8(uint8(ln.state))
			enc.Int(ln.sm)
			enc.U32(ln.base)
			enc.U64(ln.used)
			enc.Bytes32(ln.data)
		}
	}
	for _, m := range e.mshrs {
		if e.mesi {
			enc.Bool(true)
		}
		enc.Int(m.sm)
		enc.U32(m.base)
		if e.mesi {
			enc.Bool(m.excl)
		}
		enc.Int(m.set)
		enc.Int(m.way)
		enc.Bool(m.issued)
		if e.mesi {
			enc.Bool(m.granted)
			enc.Bool(m.shared)
			enc.Bool(m.killed)
		}
		enc.U64(uint64(m.tag))
		enc.U32(uint32(len(m.waiters)))
		for _, w := range m.waiters {
			enc.U64(uint64(w.tag))
			bus.EncodeRequest(enc, w.req)
		}
	}
	for i := range e.chans {
		ch := &e.chans[i]
		enc.U32(uint32(len(ch.wbq)))
		for _, w := range ch.wbq {
			encodeWB(enc, w)
		}
		wbTags := sortedTags(ch.wbInflight)
		enc.U32(uint32(len(wbTags)))
		for _, t := range wbTags {
			enc.U64(uint64(t))
			encodeWB(enc, ch.wbInflight[t])
		}
		fwdTags := sortedTags(ch.fwd)
		enc.U32(uint32(len(fwdTags)))
		for _, t := range fwdTags {
			enc.U64(uint64(t))
			enc.U64(uint64(ch.fwd[t]))
		}
	}
	for i := range e.chans {
		p := e.chans[i].pending
		enc.Bool(p != nil)
		if p == nil {
			continue
		}
		enc.U64(uint64(p.upTag))
		bus.EncodeRequest(enc, p.req)
		enc.Bool(p.needWait)
		if e.mesi {
			enc.Int(p.sm)
		}
		enc.U32(p.lo)
		enc.U32(p.hi)
	}
}

// restoreEngine reads what saveEngine wrote, given the MSHR count from
// the level's geometry header (already checked against its capacity).
func (e *engine) restoreEngine(dec *snapshot.Decoder, nmshr int) error {
	e.useClock = dec.U64()
	for si := range e.sets {
		for wi := range e.sets[si] {
			ln := &e.sets[si][wi]
			ln.state = State(dec.U8())
			ln.sm = dec.Int()
			ln.base = dec.U32()
			ln.used = dec.U64()
			data := dec.Bytes32()
			if dec.Err() != nil {
				return dec.Err()
			}
			if len(data) != len(ln.data) {
				return fmt.Errorf("%s: line size mismatch: snapshot has %d bytes, system has %d", e.name, len(data), len(ln.data))
			}
			copy(ln.data, data)
		}
	}
	// The snapshot holds the live MSHRs; the freshly built cache has
	// none, so rebuild the slice.
	e.mshrs = e.mshrs[:0]
	for i := 0; i < nmshr; i++ {
		if e.mesi && !dec.Bool() {
			continue
		}
		m := &mshr{sm: dec.Int(), base: dec.U32()}
		if e.mesi {
			m.excl = dec.Bool()
		}
		m.set, m.way, m.issued = dec.Int(), dec.Int(), dec.Bool()
		if e.mesi {
			m.granted, m.shared, m.killed = dec.Bool(), dec.Bool(), dec.Bool()
		}
		m.tag = bus.Tag(dec.U64())
		for n := dec.U32(); n > 0 && dec.Err() == nil; n-- {
			tag := bus.Tag(dec.U64())
			m.waiters = append(m.waiters, waiter{tag: tag, req: bus.DecodeRequest(dec)})
		}
		e.mshrs = append(e.mshrs, m)
	}
	for i := range e.chans {
		ch := &e.chans[i]
		ch.wbq = nil
		for n := dec.U32(); n > 0 && dec.Err() == nil; n-- {
			ch.wbq = append(ch.wbq, decodeWB(dec))
		}
		ch.wbInflight = make(map[bus.Tag]*wbEntry)
		for n := dec.U32(); n > 0 && dec.Err() == nil; n-- {
			tag := bus.Tag(dec.U64())
			ch.wbInflight[tag] = decodeWB(dec)
		}
		ch.fwd = make(map[bus.Tag]bus.Tag)
		for n := dec.U32(); n > 0 && dec.Err() == nil; n-- {
			down := bus.Tag(dec.U64())
			ch.fwd[down] = bus.Tag(dec.U64())
		}
	}
	for i := range e.chans {
		ch := &e.chans[i]
		ch.pending = nil
		if dec.Bool() {
			p := &bypass{upTag: bus.Tag(dec.U64()), req: bus.DecodeRequest(dec), needWait: dec.Bool(), sm: i}
			if e.mesi {
				p.sm = dec.Int()
			}
			p.lo, p.hi = dec.U32(), dec.U32()
			ch.pending = p
		}
	}
	return dec.Err()
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

// SaveState implements snapshot.Saver: the geometry, the shared engine
// state (see saveEngine), the stats — and the embedded state of the
// private writeback port, which only the cache holds a reference to
// (config.System tracks the up and down ports, the wb channel is
// internal wiring).
//
// The Domain is deliberately absent: it holds pure topology (which
// cache owns which MSHR address), all dynamic coherence state lives in
// the caches themselves.
func (c *Cache) SaveState(enc *snapshot.Encoder) {
	enc.Int(c.cfg.Sets)
	enc.Int(c.cfg.Ways)
	enc.Int(len(c.mshrs))
	c.saveEngine(enc)
	for _, v := range c.stats.fields() {
		enc.U64(*v)
	}
	c.chans[0].wb.SaveState(enc)
}

// RestoreState implements snapshot.Restorer. Geometry (sets, ways,
// MSHR count, line size) must match the rebuilt cache exactly.
func (c *Cache) RestoreState(dec *snapshot.Decoder) error {
	nsets, nways, nmshr := dec.Int(), dec.Int(), dec.Int()
	if err := dec.Err(); err != nil {
		return err
	}
	if nsets != c.cfg.Sets || nways != c.cfg.Ways || nmshr > c.cfg.MSHRs {
		return fmt.Errorf("cache %s geometry mismatch: snapshot has sets=%d ways=%d mshrs=%d, system has sets=%d ways=%d mshr capacity %d",
			c.name, nsets, nways, nmshr, c.cfg.Sets, c.cfg.Ways, c.cfg.MSHRs)
	}
	if err := c.restoreEngine(dec, nmshr); err != nil {
		return err
	}
	for _, v := range c.stats.fields() {
		*v = dec.U64()
	}
	if err := c.chans[0].wb.RestoreState(dec); err != nil {
		return fmt.Errorf("cache %s writeback port: %w", c.name, err)
	}
	return dec.Finish()
}

// SaveState implements snapshot.Saver: the geometry, the shared engine
// state (see saveEngine), the partitioner (masks, schedule and UMON
// shadow state — repartition points are deterministic, so they must
// survive a restore), the stats — and the embedded state of the private
// down links, which only the L2 holds references to (the up ports are
// interconnect slave ports that config.System tracks itself).
func (l *L2) SaveState(enc *snapshot.Encoder) {
	enc.Int(l.cfg.Sets)
	enc.Int(l.cfg.Ways)
	enc.Int(len(l.chans))
	enc.Int(len(l.mshrs))
	l.saveEngine(enc)
	l.part.saveState(enc)
	for _, v := range l.stats.fields() {
		enc.U64(*v)
	}
	for i := range l.chans {
		l.chans[i].down.SaveState(enc)
	}
}

// RestoreState implements snapshot.Restorer. Geometry (sets, ways, port
// count, MSHR capacity) must match the rebuilt L2 exactly.
func (l *L2) RestoreState(dec *snapshot.Decoder) error {
	nsets, nways, nups, nmshr := dec.Int(), dec.Int(), dec.Int(), dec.Int()
	if err := dec.Err(); err != nil {
		return err
	}
	if nsets != l.cfg.Sets || nways != l.cfg.Ways || nups != len(l.chans) || nmshr > l.cfg.MSHRs {
		return fmt.Errorf("%s geometry mismatch: snapshot has sets=%d ways=%d ports=%d mshrs=%d, system has sets=%d ways=%d ports=%d mshr capacity %d",
			l.name, nsets, nways, nups, nmshr, l.cfg.Sets, l.cfg.Ways, len(l.chans), l.cfg.MSHRs)
	}
	if err := l.restoreEngine(dec, nmshr); err != nil {
		return err
	}
	if err := l.part.restoreState(dec); err != nil {
		return fmt.Errorf("%s partitioner: %w", l.name, err)
	}
	for _, v := range l.stats.fields() {
		*v = dec.U64()
	}
	for i := range l.chans {
		if err := l.chans[i].down.RestoreState(dec); err != nil {
			return fmt.Errorf("%s down port %d: %w", l.name, i, err)
		}
	}
	return dec.Finish()
}

// saveState appends the partitioner's dynamic state: masks, the
// repartition schedule position, and each UMON's shadow directory.
func (p *partitioner) saveState(enc *snapshot.Encoder) {
	enc.U8(uint8(p.kind))
	enc.U32(uint32(len(p.masks)))
	for _, m := range p.masks {
		enc.U64(m)
	}
	enc.U64(p.count)
	enc.U64(p.repartitions)
	enc.Int(len(p.umons))
	for _, u := range p.umons {
		enc.U64(u.clock)
		for _, h := range u.hits {
			enc.U64(h)
		}
		for s := range u.tags {
			for w := range u.tags[s] {
				e := &u.tags[s][w]
				enc.Bool(e.valid)
				enc.Int(e.sm)
				enc.U32(e.base)
				enc.U64(e.used)
			}
		}
	}
}

func (p *partitioner) restoreState(dec *snapshot.Decoder) error {
	kind := PartitionKind(dec.U8())
	nmasks := int(dec.U32())
	if err := dec.Err(); err != nil {
		return err
	}
	if kind != p.kind || nmasks != len(p.masks) {
		return fmt.Errorf("policy mismatch: snapshot has kind=%d masks=%d, system has kind=%d masks=%d",
			kind, nmasks, p.kind, len(p.masks))
	}
	for i := range p.masks {
		p.masks[i] = dec.U64()
	}
	p.count = dec.U64()
	p.repartitions = dec.U64()
	numon := dec.Int()
	if err := dec.Err(); err != nil {
		return err
	}
	if numon != len(p.umons) {
		return fmt.Errorf("UMON count mismatch: snapshot has %d, system has %d", numon, len(p.umons))
	}
	for _, u := range p.umons {
		u.clock = dec.U64()
		for i := range u.hits {
			u.hits[i] = dec.U64()
		}
		for s := range u.tags {
			for w := range u.tags[s] {
				e := &u.tags[s][w]
				e.valid = dec.Bool()
				e.sm = dec.Int()
				e.base = dec.U32()
				e.used = dec.U64()
			}
		}
	}
	return dec.Err()
}
