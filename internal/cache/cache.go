package cache

import (
	"fmt"

	"repro/internal/bus"
	"repro/internal/sim"
)

// State is a line's MESI state.
type State uint8

const (
	// Invalid: the way holds no line.
	Invalid State = iota
	// Shared: clean, peers may hold copies.
	Shared
	// Exclusive: clean, no peer holds a copy.
	Exclusive
	// Modified: dirty, no peer holds a copy; memory is stale.
	Modified
)

// String returns the state's MESI letter.
func (s State) String() string {
	switch s {
	case Shared:
		return "S"
	case Exclusive:
		return "E"
	case Modified:
		return "M"
	default:
		return "I"
	}
}

// Config parameterizes one cache.
type Config struct {
	// Name labels the module.
	Name string
	// Sets and Ways are the geometry (defaults 64 sets × 2 ways).
	Sets, Ways int
	// LineBytes is the line size in bytes, a multiple of 4 (default 32).
	LineBytes uint32
	// MSHRs is the number of miss-status-holding registers — the maximum
	// number of outstanding line misses (default 4).
	MSHRs int
	// Cacheable reports whether scalar accesses to module sm may be
	// cached. Nil means every module is cacheable. Non-cacheable traffic
	// passes through untouched (and still participates in snooping at
	// the interconnect).
	Cacheable func(sm int) bool
}

// Stats counts cache activity. All counters are event counts (never
// per-cycle), so they are identical across every kernel scheduling mode
// by construction.
type Stats struct {
	Hits, Misses uint64
	// Upgrades counts write hits on Shared lines — coherence misses that
	// refetch the line exclusively. They are also counted in Misses.
	Upgrades uint64
	// Refills counts installed lines; Writebacks counts victim evictions
	// of Modified lines.
	Refills, Writebacks uint64
	// SnoopFlushes counts dirty lines written back on peer demand (snoop
	// hit M, plus host-requested FlushAll); SnoopInvalidations and
	// SnoopDowngrades count lines dropped resp. demoted E→S by the snoop
	// broadcast.
	SnoopFlushes, SnoopInvalidations, SnoopDowngrades uint64
	// Bypassed counts requests forwarded downstream uncached.
	Bypassed uint64
	// Errors counts refills and forwarded requests completing with an
	// in-band error (propagated to the master).
	Errors uint64
	// BackInvalidations counts lines dropped because an inclusive L2
	// evicted their parent; KilledRefills counts granted refills
	// discarded and refetched for the same reason.
	BackInvalidations, KilledRefills uint64
}

// HitRate returns hits over cacheable accesses.
func (s Stats) HitRate() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// Cache is the L1 module. See the package documentation for the
// protocol. Its one channel's up port faces the master; down carries
// refills and pass-through requests; wb is the dedicated writeback
// channel. Writebacks must ride their own interconnect port: a writeback
// queued behind a snoop-deferred refill in one FIFO would deadlock the
// protocol (two caches each deferring the other's refill while holding
// the resolving writeback captive behind their own).
type Cache struct {
	engine
	cfg Config

	domain *Domain

	stats Stats
}

// New creates a cache between the given up (master-facing, slave side)
// and interconnect-facing master ports: down carries refills and
// pass-through requests, wb is the dedicated writeback channel (see the
// Cache docs for why it must be separate). The down port should
// be deep enough for the MSHR count plus pass-through traffic and
// deliver out of order (the cache routes completions by tag).
func New(k *sim.Kernel, cfg Config, up, down, wb *bus.Port) (*Cache, error) {
	if cfg.Name == "" {
		cfg.Name = "l1"
	}
	if cfg.Sets <= 0 {
		cfg.Sets = 64
	}
	if cfg.Ways <= 0 {
		cfg.Ways = 2
	}
	if cfg.LineBytes == 0 {
		cfg.LineBytes = 32
	}
	if cfg.LineBytes%4 != 0 {
		return nil, fmt.Errorf("cache: line size %d not a multiple of 4", cfg.LineBytes)
	}
	if cfg.MSHRs <= 0 {
		cfg.MSHRs = 4
	}
	c := &Cache{cfg: cfg}
	c.engine = newEngine(k, cfg.Name, cfg.Sets, cfg.Ways, cfg.LineBytes,
		[]channel{newChannel(up, down, wb)}, cfg.MSHRs,
		counters{&c.stats.Refills, &c.stats.Writebacks, &c.stats.Bypassed, &c.stats.Errors})
	c.mesi = true
	k.Add(c)
	return c, nil
}

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats { return c.stats }

func (c *Cache) cacheable(sm int) bool {
	return sm >= 0 && (c.cfg.Cacheable == nil || c.cfg.Cacheable(sm))
}

// Tick implements sim.Module.
func (c *Cache) Tick(cycle uint64) {
	c.drainCompletions()
	c.processHead()
	c.issue(0)
}

// drainCompletions consumes every completion deliverable this cycle:
// writeback acknowledgements, forwarded-request responses and line
// refills (install + waiter service).
func (c *Cache) drainCompletions() {
	for tag, resp := range c.chans[0].wb.Completions() {
		if !c.ackWB(0, tag, resp) {
			c.k.Fault(fmt.Errorf("%s: writeback completion for unknown tag %d", c.name, tag))
		}
	}
	for tag, resp := range c.chans[0].down.Completions() {
		if m := c.complete(0, tag, resp); m != nil {
			c.install(m, resp)
		}
	}
}

// install writes a completed refill into its target way and serves the
// MSHR's waiters in arrival order. A killed MSHR (its line was
// back-invalidated by an inclusive L2 between grant and install)
// discards the stale data and resets to unissued: the refill reissues
// from scratch — fresh address phase, fresh snoop — with its waiter
// queue intact.
func (c *Cache) install(m *mshr, resp bus.Response) {
	if m.killed {
		m.killed, m.issued, m.granted, m.shared = false, false, false, false
		c.stats.KilledRefills++
		return
	}
	ln := c.fill(m, resp)
	if ln == nil {
		return
	}
	// An exclusive refill installs E (peers were invalidated at the
	// grant; the missing write dirties the line to M below), a clean one
	// S when a peer held the line at the grant and E otherwise.
	ln.state = Exclusive
	if m.shared && !m.excl {
		ln.state = Shared
	}
	up := c.chans[0].up
	for _, w := range m.waiters {
		off := w.req.VPtr - m.base
		if w.req.Op == bus.OpWrite {
			writeElem(ln.data[off:], w.req.DType, w.req.Data)
			ln.state = Modified
			up.Complete(w.tag, bus.Response{})
		} else {
			up.Complete(w.tag, bus.Response{Data: readElem(ln.data[off:], w.req.DType)})
		}
	}
	c.removeMSHR(m)
}

// cacheableScalar reports whether req is a scalar access the cache may
// serve from a line: OpRead/OpWrite, cacheable module, and the element
// contained in one line.
func (c *Cache) cacheableScalar(req bus.Request) bool {
	if req.Op != bus.OpRead && req.Op != bus.OpWrite {
		return false
	}
	if !c.cacheable(req.SM) {
		return false
	}
	off := req.VPtr % c.lineBytes
	return off+req.DType.Size() <= c.lineBytes
}

// processHead examines the up-port queue head and pops at most one
// request: a hit is served immediately, a miss allocates or joins an
// MSHR, anything non-cacheable becomes a pending bypass. The head stays
// queued when the cache cannot act on it yet (MSHRs exhausted, an
// incompatible in-flight miss, a bypass overlapping an in-flight miss,
// or an unforwarded bypass occupying the single bypass slot).
func (c *Cache) processHead() {
	if c.chans[0].pending != nil {
		return
	}
	req, ok := c.chans[0].up.Peek()
	if !ok {
		return
	}
	if c.cacheableScalar(req) {
		c.processScalar(req)
		return
	}
	if p := c.bypass(0, req.SM, c.cacheable(req.SM), req); p != nil && p.needWait {
		c.flushRange(p.sm, p.lo, p.hi, p.drops())
	}
}

func (c *Cache) processScalar(req bus.Request) {
	base := c.lineBase(req.VPtr)
	isWrite := req.Op == bus.OpWrite

	// An in-flight miss on the line orders every later access to it:
	// coalesce when compatible, otherwise wait for the install.
	if m := c.findMSHR(req.SM, base); m != nil {
		if isWrite && !m.excl {
			return
		}
		c.join(0, m, req)
		c.stats.Misses++
		return
	}

	if set, way, ok := c.lookup(req.SM, base); ok {
		ln := &c.sets[set][way]
		if !isWrite || ln.state == Modified || ln.state == Exclusive {
			up := c.chans[0].up
			tx, _ := up.Pop()
			c.stats.Hits++
			c.touch(ln)
			off := req.VPtr - base
			if !isWrite {
				up.Complete(tx.Tag, bus.Response{Data: readElem(ln.data[off:], req.DType)})
				return
			}
			writeElem(ln.data[off:], req.DType, req.Data)
			ln.state = Modified
			up.Complete(tx.Tag, bus.Response{})
			return
		}
		// Write hit on Shared: an upgrade — refetch the line exclusively
		// into the same way. The local copy stays S until the install.
		if c.allocMSHR(req, base, set, way) {
			c.stats.Upgrades++
		}
		return
	}

	set := c.setIndex(req.SM, base)
	way, ok := c.victimWay(set, ^uint64(0))
	if !ok {
		return // every way's line has an in-flight miss installing into it
	}
	c.allocMSHR(req, base, set, way)
}

// allocMSHR pops the head request into a fresh MSHR for (sm, base)
// installing into (set, way), evicting a dirty victim to the writeback
// queue. No-op (head stays queued) when every MSHR is in use.
func (c *Cache) allocMSHR(req bus.Request, base uint32, set, way int) bool {
	if len(c.mshrs) >= c.cfg.MSHRs {
		return false
	}
	ln := &c.sets[set][way]
	if ln.state == Modified {
		c.evict(ln)
	} else if ln.state != Invalid && !(ln.sm == req.SM && ln.base == base) {
		ln.state = Invalid
	}
	c.stats.Misses++
	c.addMSHR(0, req.SM, base, set, way, req)
	return true
}

// evict moves a Modified line onto the writeback queue and invalidates
// the way. The queued range keeps deferring peer grants (via the Domain)
// until the writeback has landed in memory.
func (c *Cache) evict(ln *line) {
	c.queueWB(ln)
	ln.state = Invalid
}

// dataRange returns the byte range [lo, hi) in module sm that a data
// operation touches. ok is false for operations without one (alloc,
// free, reserve, release).
func dataRange(req bus.Request) (sm int, lo, hi uint32, ok bool) {
	es := req.DType.Size()
	switch req.Op {
	case bus.OpRead, bus.OpWrite:
		return req.SM, req.VPtr, req.VPtr + es, true
	case bus.OpReadBurst:
		return req.SM, req.VPtr, req.VPtr + req.Dim*es, true
	case bus.OpWriteBurst:
		return req.SM, req.VPtr, req.VPtr + uint32(len(req.Burst))*es, true
	default:
		return 0, 0, 0, false
	}
}

// flushRange writes back every dirty line overlapping [lo, hi) in module
// sm (M→S) and, when invalidate is set, drops every overlapping line.
func (c *Cache) flushRange(sm int, lo, hi uint32, invalidate bool) {
	c.visitOverlapping(sm, lo, hi, func(ln *line) {
		switch {
		case invalidate && ln.state == Modified:
			c.evict(ln)
		case invalidate:
			ln.state = Invalid
		case ln.state == Modified:
			c.clean(ln)
		}
	})
}

// FlushAll queues a writeback for every Modified line (M→S), as the
// snoop phase would. Call between kernel steps, then run until Synced to
// guarantee memory holds every committed write — the experiment
// harnesses verify final memory images this way.
func (c *Cache) FlushAll() { c.stats.SnoopFlushes += c.flushAll() }

// Element access within a line uses the shared bus.DataType codec, so
// the cache returns bit-for-bit what the byte-backed memories it fronts
// would.
func readElem(b []byte, dt bus.DataType) uint32       { return dt.ReadElem(b) }
func writeElem(b []byte, dt bus.DataType, val uint32) { dt.WriteElem(b, val) }
