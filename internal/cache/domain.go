package cache

import (
	"fmt"

	"repro/internal/bus"
)

// snoopKind classifies an address phase for the snoop protocol.
type snoopKind uint8

const (
	snoopNone snoopKind = iota
	snoopRead           // read-type: peers downgrade E→S
	snoopExcl           // write or exclusive refill: peers invalidate
)

func classify(req bus.Request) (kind snoopKind, sm int, lo, hi uint32) {
	if req.WB {
		// Writebacks resolve deferrals; never snooped themselves.
		return snoopNone, 0, 0, 0
	}
	sm, lo, hi, ok := dataRange(req)
	if !ok {
		return snoopNone, 0, 0, 0
	}
	switch req.Op {
	case bus.OpRead:
		kind = snoopRead
	case bus.OpReadBurst:
		if req.Excl {
			kind = snoopExcl
		} else {
			kind = snoopRead
		}
	default: // OpWrite, OpWriteBurst
		kind = snoopExcl
	}
	return kind, sm, lo, hi
}

// Domain is a MESI coherence domain: the set of caches snooping one
// interconnect. It implements bus.Snooper; install it with Bus.Snoop /
// Crossbar.Snoop. See the package documentation for the protocol.
type Domain struct {
	caches []*Cache
	// owns maps an interconnect master-port index to the cache whose
	// down or wb port it is, for self-snoop skipping.
	owns map[int]*Cache
}

// NewDomain creates an empty coherence domain.
func NewDomain() *Domain { return &Domain{owns: map[int]*Cache{}} }

// Attach adds a cache to the domain. downID and wbID are the
// interconnect's master-port indices of the cache's down and writeback
// ports — the identities the interconnect reports to CanProceed and
// OnGrant, used to skip self-snooping.
func (d *Domain) Attach(c *Cache, downID, wbID int) {
	c.domain = d
	d.caches = append(d.caches, c)
	d.owns[downID] = c
	d.owns[wbID] = c
}

// Caches returns the attached caches in attach order.
func (d *Domain) Caches() []*Cache { return d.caches }

// CanProceed implements bus.Snooper: an address phase is deferred while
// any peer cache holds conflicting state for its range — a Modified
// line (which is flagged for writeback, resolving the deferral), a
// queued or in-flight writeback, or a granted-but-not-installed refill.
func (d *Domain) CanProceed(req bus.Request, master int) bool {
	kind, sm, lo, hi := classify(req)
	if kind == snoopNone {
		return true
	}
	ok := true
	for _, c := range d.caches {
		if d.owns[master] == c {
			continue
		}
		if c.snoopConflict(sm, lo, hi) {
			ok = false
		}
	}
	return ok
}

// OnGrant implements bus.Snooper: the broadcast of a granted address
// phase. Peers downgrade on reads and invalidate on writes/exclusive
// refills; the granting cache's own in-flight miss is marked granted and
// learns whether the line was shared.
func (d *Domain) OnGrant(req bus.Request, master int, tag bus.Tag) {
	kind, sm, lo, hi := classify(req)
	if kind == snoopNone {
		return
	}
	shared := false
	for _, c := range d.caches {
		if d.owns[master] == c {
			continue
		}
		if kind == snoopRead {
			if c.snoopDowngrade(sm, lo, hi) {
				shared = true
			}
		} else if c.snoopInvalidate(sm, lo, hi) {
			shared = true
		}
	}
	if own := d.owns[master]; own != nil {
		own.grantOwn(tag, shared)
	}
}

// snoopConflict reports whether this cache holds state that must resolve
// before a peer's grant, flagging dirty lines for writeback as a side
// effect.
func (c *Cache) snoopConflict(sm int, lo, hi uint32) bool {
	conflict := false
	c.visitOverlapping(sm, lo, hi, func(ln *line) {
		if ln.state != Modified {
			return
		}
		// Snoop hit dirty: write the line back (M→S); the peer's
		// grant stays deferred until the writeback lands.
		c.stats.SnoopFlushes++
		c.clean(ln)
		conflict = true
	})
	if c.wbOverlap(0, sm, lo, hi) {
		conflict = true
	}
	for _, m := range c.mshrs {
		if m.granted && c.overlaps(m.sm, m.base, sm, lo, hi) {
			conflict = true
		}
	}
	return conflict
}

// snoopDowngrade demotes overlapping Exclusive lines to Shared and
// reports whether any valid overlapping copy exists.
func (c *Cache) snoopDowngrade(sm int, lo, hi uint32) bool {
	held := false
	c.visitOverlapping(sm, lo, hi, func(ln *line) {
		if ln.state == Modified {
			c.k.Fault(fmt.Errorf("%s: MESI violation: read grant reached Modified line sm=%d base=%#x", c.name, ln.sm, ln.base))
		}
		if ln.state == Exclusive {
			ln.state = Shared
			c.stats.SnoopDowngrades++
		}
		held = true
	})
	return held
}

// snoopInvalidate drops overlapping valid lines and reports whether any
// existed. A Modified line here is a protocol-invariant violation
// (CanProceed must have deferred the grant) and faults the kernel.
func (c *Cache) snoopInvalidate(sm int, lo, hi uint32) bool {
	held := false
	c.visitOverlapping(sm, lo, hi, func(ln *line) {
		if ln.state == Modified {
			c.k.Fault(fmt.Errorf("%s: MESI violation: invalidating grant reached Modified line sm=%d base=%#x", c.name, ln.sm, ln.base))
		}
		ln.state = Invalid
		c.stats.SnoopInvalidations++
		held = true
	})
	return held
}

// BackInvalidate enforces inclusion when a shared L2 evicts the line
// [lo, hi) of memory sm: every L1 copy inside the range is invalidated
// synchronously, with Modified lines first merging their data into the
// victim buffer (a zero-cycle forced writeback — the merged victim goes
// to memory on the L2's writeback path). L1 refills of the range that
// are granted but not yet installed are killed: their in-flight data
// may predate the eviction, so the L1 discards it on arrival and
// refetches. Unissued and ungranted misses need no action — their
// requests reach the L2 after the eviction and refetch naturally, as do
// writebacks already queued or in flight (the L2 write-allocates them).
// Returns whether any dirty line was merged. victim must cover [lo, hi).
func (d *Domain) BackInvalidate(sm int, lo, hi uint32, victim []byte) bool {
	dirty := false
	for _, c := range d.caches {
		c.visitOverlapping(sm, lo, hi, func(ln *line) {
			if ln.state == Modified && ln.base >= lo && ln.base-lo+c.lineBytes <= uint32(len(victim)) {
				copy(victim[ln.base-lo:], ln.data)
				dirty = true
			}
			ln.state = Invalid
			c.stats.BackInvalidations++
		})
		for _, m := range c.mshrs {
			if m.granted && !m.killed && c.overlaps(m.sm, m.base, sm, lo, hi) {
				m.killed = true
			}
		}
	}
	return dirty
}

// CheckExclusivity verifies the MESI ownership invariant across a set
// of caches: a line valid in two caches may only be Shared — Modified
// and Exclusive holders tolerate no other valid copy. Tests and the
// fuzz harness call it between kernel steps.
func CheckExclusivity(caches []*Cache) error {
	type key struct {
		sm   int
		base uint32
	}
	holders := map[key][]State{}
	for _, c := range caches {
		c.VisitLines(func(sm int, base uint32, st State) {
			k := key{sm, base}
			holders[k] = append(holders[k], st)
		})
	}
	for k, sts := range holders {
		if len(sts) < 2 {
			continue
		}
		for _, st := range sts {
			if st != Shared {
				return fmt.Errorf("cache: MESI violation: line sm=%d base=%#x held %v by one of %d caches",
					k.sm, k.base, st, len(sts))
			}
		}
	}
	return nil
}

// grantOwn marks this cache's issued refill with the granted down-port
// tag as granted and records whether a peer held the line. Called for
// every granted request of this master; pass-through requests carry
// tags no MSHR holds, so they match nothing (matching by bare address
// could confuse a forwarded line-shaped burst with a refill).
func (c *Cache) grantOwn(tag bus.Tag, shared bool) {
	for _, m := range c.mshrs {
		if m.issued && !m.granted && m.tag == tag {
			m.granted = true
			m.shared = shared
			return
		}
	}
}
