package cache

import (
	"encoding/binary"
	"fmt"
	"slices"

	"repro/internal/bus"
	"repro/internal/sim"
)

// This file is the machinery the L1 (Cache) and the shared L2 have in
// common: the line store with its LRU clock, and the miss, writeback and
// bypass engine around it. The levels differ here only in data — the way
// mask a victim is chosen under, the number of memory channels, and
// whether MSHRs carry the L1's coherence flags — so the per-access path
// has no interface and no stored function value.

type line struct {
	state State
	sm    int
	base  uint32
	data  []byte
	used  uint64 // LRU stamp
}

// tagArray is the set-associative line store. A line is (sm,
// line-aligned address); its set mixes in the module index so equal
// addresses in different memories spread over the sets.
type tagArray struct {
	sets      [][]line
	useClock  uint64
	lineBytes uint32
}

// newTagArray carves the sets from one slice of lines and the lines'
// data from one slab, so an array is three allocations whatever its
// geometry.
func newTagArray(sets, ways int, lineBytes uint32) tagArray {
	t := tagArray{sets: make([][]line, sets), lineBytes: lineBytes}
	lines := make([]line, sets*ways)
	slab := make([]byte, len(lines)*int(lineBytes))
	for i := range lines {
		lo, hi := i*int(lineBytes), (i+1)*int(lineBytes)
		lines[i].data = slab[lo:hi:hi]
	}
	for i := range t.sets {
		t.sets[i] = lines[i*ways : (i+1)*ways : (i+1)*ways]
	}
	return t
}

func (t *tagArray) lineBase(addr uint32) uint32 { return addr - addr%t.lineBytes }

func (t *tagArray) setIndex(sm int, base uint32) int {
	return int((base/t.lineBytes + uint32(sm)) % uint32(len(t.sets)))
}

func (t *tagArray) touch(ln *line) {
	t.useClock++
	ln.used = t.useClock
}

// lookup returns the way holding (sm, base), valid or not found.
func (t *tagArray) lookup(sm int, base uint32) (set int, way int, ok bool) {
	set = t.setIndex(sm, base)
	for w := range t.sets[set] {
		ln := &t.sets[set][w]
		if ln.state != Invalid && ln.sm == sm && ln.base == base {
			return set, w, true
		}
	}
	return set, 0, false
}

// overlaps reports whether the line (lineSM, base) intersects [lo, hi)
// in module sm.
func (t *tagArray) overlaps(lineSM int, base uint32, sm int, lo, hi uint32) bool {
	return lineSM == sm && base < hi && lo < base+t.lineBytes
}

// visitOverlapping calls f for every valid line overlapping [lo, hi) in
// module sm. Ranges within one line — the scalar, refill and
// whole-line-writeback cases that dominate snoop traffic — resolve with
// a single set lookup; only multi-line ranges (line-crossing bursts,
// the unbounded OpFree flush) walk the full geometry.
func (t *tagArray) visitOverlapping(sm int, lo, hi uint32, f func(ln *line)) {
	if lo < hi && (hi-1)/t.lineBytes == lo/t.lineBytes {
		if set, way, ok := t.lookup(sm, t.lineBase(lo)); ok {
			f(&t.sets[set][way])
		}
		return
	}
	t.visitValid(func(ln *line) {
		if t.overlaps(ln.sm, ln.base, sm, lo, hi) {
			f(ln)
		}
	})
}

// visitValid calls f for every valid line in set and way order.
func (t *tagArray) visitValid(f func(ln *line)) {
	for s := range t.sets {
		for w := range t.sets[s] {
			if ln := &t.sets[s][w]; ln.state != Invalid {
				f(ln)
			}
		}
	}
}

type waiter struct {
	tag bus.Tag
	req bus.Request
}

// mshr is one outstanding line miss, installing into (set, way).
type mshr struct {
	sm       int
	base     uint32
	excl     bool
	set, way int
	// issued: the refill request was issued into the down port. The
	// remaining flags are the L1's (the L2 leaves them false): granted —
	// the interconnect granted its address phase (set by the Domain at
	// OnGrant), and from then until install this MSHR defers conflicting
	// peer grants; shared — a peer held a valid copy at grant time, so a
	// clean install is S rather than E; killed — an inclusive L2 evicted
	// the line after the grant, so the arriving refill data is stale and
	// must be discarded and refetched (see Cache.install).
	issued, granted, shared, killed bool
	tag                             bus.Tag
	// waiters has room for as many waiters as the up port can have in
	// service, so joining never grows it.
	waiters []waiter
	// line receives the refill's words: it travels as the read burst's
	// destination buffer (see the bus package's read-burst rule).
	line []uint32
}

// wbEntry is one line writeback pending issue or in flight. Entries are
// reused through their channel's free list, buffers and all.
type wbEntry struct {
	sm    int
	base  uint32
	data  []byte   // the line as queued
	words []uint32 // data as the write burst's payload, filled at issue
}

// bypass is a popped request awaiting downstream forwarding. The wait
// range [lo, hi) in module sm (needWait) holds the forward back until no
// writeback overlapping it is queued or in flight.
type bypass struct {
	upTag    bus.Tag
	req      bus.Request
	needWait bool
	sm       int
	lo, hi   uint32
}

// drops reports whether the flush ahead of the forward drops the
// overlapping lines, not just cleans them: the request writes or frees.
func (p *bypass) drops() bool { return p.req.Op != bus.OpRead && p.req.Op != bus.OpReadBurst }

// channel is one master-facing port and the memory path behind it. The
// L1 has one, whose writebacks ride a dedicated wb port; the L2 has one
// per memory, whose writebacks share the in-order down link (wb ==
// down).
type channel struct {
	up, down, wb *bus.Port

	wbq        []*wbEntry           // writebacks pending issue, FIFO
	wbInflight map[bus.Tag]*wbEntry // issued, not yet completed
	wbFree     []*wbEntry           // acknowledged entries, for queueWB to reuse
	fwd        map[bus.Tag]bus.Tag  // forwarded bypass: down tag → up tag
	pending    *bypass              // popped bypass not yet forwarded
}

func newChannel(up, down, wb *bus.Port) channel {
	return channel{up: up, down: down, wb: wb,
		wbInflight: make(map[bus.Tag]*wbEntry), fwd: make(map[bus.Tag]bus.Tag)}
}

// counters points the engine at the level's own Stats fields it counts
// into.
type counters struct{ refills, writebacks, bypassed, errors *uint64 }

// engine is the line store plus the MSHRs and channels both levels run.
type engine struct {
	tagArray
	name string
	k    *sim.Kernel
	// mshrs are the live MSHRs in creation order, the order refills
	// issue in; free holds the rest of the pool newEngine built.
	mshrs, free []*mshr
	chans       []channel
	// mesi marks the L1: a write miss refills exclusively (Request.Excl),
	// and its MSHRs and bypass carry the coherence flags and module in
	// the snapshot layout.
	mesi bool
	n    counters
}

// newEngine builds the engine with a pool of nmshr MSHRs. A waiter is a
// request popped from an up port and still in service, so no MSHR ever
// has more waiters than the deepest up port has credits.
func newEngine(k *sim.Kernel, name string, sets, ways int, lineBytes uint32, chans []channel, nmshr int, n counters) engine {
	depth := 0
	for _, ch := range chans {
		depth = max(depth, ch.up.Depth())
	}
	words := int(lineBytes / 4)
	pool := make([]mshr, nmshr)
	free := make([]*mshr, nmshr)
	waiters := make([]waiter, nmshr*depth)
	lines := make([]uint32, nmshr*words)
	for i := range pool {
		pool[i].waiters = waiters[i*depth : i*depth : (i+1)*depth]
		pool[i].line = lines[i*words : (i+1)*words : (i+1)*words]
		free[i] = &pool[i]
	}
	return engine{tagArray: newTagArray(sets, ways, lineBytes), name: name, k: k,
		mshrs: make([]*mshr, 0, nmshr), free: free, chans: chans, n: n}
}

// chanOf returns the channel serving module sm: the L1's only one, or
// the L2's link to memory sm.
func (e *engine) chanOf(sm int) int {
	if len(e.chans) == 1 {
		return 0
	}
	return sm
}

func (e *engine) findMSHR(sm int, base uint32) *mshr {
	for _, m := range e.mshrs {
		if m.sm == sm && m.base == base {
			return m
		}
	}
	return nil
}

// mshrByTag returns the issued MSHR of channel i whose refill carries
// the down-port tag.
func (e *engine) mshrByTag(i int, tag bus.Tag) *mshr {
	for _, m := range e.mshrs {
		if m.issued && m.tag == tag && e.chanOf(m.sm) == i {
			return m
		}
	}
	return nil
}

// removeMSHR retires m to the pool.
func (e *engine) removeMSHR(m *mshr) {
	if i := slices.Index(e.mshrs, m); i >= 0 {
		e.mshrs = slices.Delete(e.mshrs, i, i+1)
		e.free = append(e.free, m)
	}
}

// newMSHR takes a cleared MSHR from the pool and appends it to the live
// list. The caller has checked capacity.
func (e *engine) newMSHR() *mshr {
	m := e.free[len(e.free)-1]
	e.free = e.free[:len(e.free)-1]
	*m = mshr{waiters: m.waiters[:0], line: m.line}
	e.mshrs = append(e.mshrs, m)
	return m
}

// addMSHR pops up-port i's head into a new MSHR for (sm, base)
// installing into (set, way). The caller has checked capacity and
// emptied the way.
func (e *engine) addMSHR(i, sm int, base uint32, set, way int, req bus.Request) {
	tx, _ := e.chans[i].up.Pop()
	m := e.newMSHR()
	m.sm, m.base, m.excl = sm, base, e.mesi && req.Op == bus.OpWrite
	m.set, m.way = set, way
	m.waiters = append(m.waiters, waiter{tag: tx.Tag, req: req})
}

// join pops up-port i's head onto the in-flight miss m of its line.
func (e *engine) join(i int, m *mshr, req bus.Request) {
	tx, _ := e.chans[i].up.Pop()
	m.waiters = append(m.waiters, waiter{tag: tx.Tag, req: req})
}

func (e *engine) wayReserved(set, way int) bool {
	for _, m := range e.mshrs {
		if m.set == set && m.way == way {
			return true
		}
	}
	return false
}

// victimWay picks the way a refill will install into, restricted to the
// ways in mask (the L1 passes every way): an invalid way if one exists,
// otherwise the least-recently-used way that is not already the target
// of an in-flight MSHR.
func (e *engine) victimWay(set int, mask uint64) (int, bool) {
	best, bestUsed, ok := 0, ^uint64(0), false
	for w := range e.sets[set] {
		if w < 64 && mask&(1<<uint(w)) == 0 || e.wayReserved(set, w) {
			continue
		}
		ln := &e.sets[set][w]
		if ln.state == Invalid {
			return w, true
		}
		if ln.used < bestUsed {
			best, bestUsed, ok = w, ln.used, true
		}
	}
	return best, ok
}

// fill writes MSHR m's completed refill into its target way and returns
// the line for the level to set its state and serve the waiters. A
// refill that failed answers every waiter with its error, frees m and
// returns nil.
func (e *engine) fill(m *mshr, resp bus.Response) *line {
	if resp.Err != bus.OK {
		up := e.chans[e.chanOf(m.sm)].up
		for _, w := range m.waiters {
			*e.n.errors++
			up.Complete(w.tag, bus.Response{Err: resp.Err})
		}
		e.removeMSHR(m)
		return nil
	}
	ln := &e.sets[m.set][m.way]
	ln.sm, ln.base = m.sm, m.base
	for i, v := range resp.Burst {
		binary.LittleEndian.PutUint32(ln.data[i*4:], v)
	}
	*e.n.refills++
	e.touch(ln)
	return ln
}

// queueWB queues a copy of ln for writeback on its module's channel.
func (e *engine) queueWB(ln *line) {
	*e.n.writebacks++
	ch := &e.chans[e.chanOf(ln.sm)]
	w := ch.newWB(e.lineBytes)
	w.sm, w.base = ln.sm, ln.base
	copy(w.data, ln.data)
	ch.wbq = append(ch.wbq, w)
}

// newWB returns a writeback entry with line buffers of lineBytes: an
// acknowledged one from the free list, or a new one while the list is
// empty.
func (ch *channel) newWB(lineBytes uint32) *wbEntry {
	if n := len(ch.wbFree); n > 0 {
		w := ch.wbFree[n-1]
		ch.wbFree = ch.wbFree[:n-1]
		return w
	}
	return &wbEntry{data: make([]byte, lineBytes), words: make([]uint32, lineBytes/4)}
}

// clean writes a Modified line back and keeps its clean copy (M→S).
func (e *engine) clean(ln *line) {
	e.queueWB(ln)
	ln.state = Shared
}

// flushAll cleans every Modified line and returns how many there were.
func (e *engine) flushAll() (n uint64) {
	e.visitValid(func(ln *line) {
		if ln.state == Modified {
			e.clean(ln)
			n++
		}
	})
	return n
}

// wbOverlap reports whether a writeback queued or in flight on channel i
// intersects [lo, hi) in module sm. Refills and forwards must not issue
// while one does: on the L1's dedicated writeback port only completion —
// not FIFO position — orders a writeback ahead of a dependent read; on
// the L2's in-order link the wait is needed for queued entries and
// conservative for in-flight ones (it costs at most their memory
// latency).
func (e *engine) wbOverlap(i, sm int, lo, hi uint32) bool {
	ch := &e.chans[i]
	for _, w := range ch.wbq {
		if e.overlaps(w.sm, w.base, sm, lo, hi) {
			return true
		}
	}
	for _, w := range ch.wbInflight {
		if e.overlaps(w.sm, w.base, sm, lo, hi) {
			return true
		}
	}
	return false
}

// ackWB retires the in-flight writeback of channel i with the given tag
// and reports whether there was one.
func (e *engine) ackWB(i int, tag bus.Tag, resp bus.Response) bool {
	ch := &e.chans[i]
	w, ok := ch.wbInflight[tag]
	if !ok {
		return false
	}
	delete(ch.wbInflight, tag)
	ch.wbFree = append(ch.wbFree, w)
	if resp.Err != bus.OK {
		// A failed writeback silently loses committed data — a
		// configuration error (non-flat cacheable memory), not a
		// modelled condition the master could handle.
		e.k.Fault(fmt.Errorf("%s: writeback to memory %d failed: %v", e.name, w.sm, resp.Err))
	}
	return true
}

// complete routes one completion of channel i's down port. Writeback
// acknowledgements (when writebacks share the port) and forwarded-bypass
// responses are retired here; a refill returns its MSHR for the level to
// install.
func (e *engine) complete(i int, tag bus.Tag, resp bus.Response) *mshr {
	ch := &e.chans[i]
	if ch.wb == ch.down && e.ackWB(i, tag, resp) {
		return nil
	}
	if upTag, ok := ch.fwd[tag]; ok {
		delete(ch.fwd, tag)
		if resp.Err != bus.OK {
			*e.n.errors++
		}
		ch.up.Complete(upTag, resp)
		return nil
	}
	if m := e.mshrByTag(i, tag); m != nil {
		return m
	}
	e.k.Fault(fmt.Errorf("%s: completion on %s for unknown tag %d", e.name, ch.down.Name(), tag))
	return nil
}

// bypass pops up-port i's head, a request the level does not cache, into
// the channel's bypass slot, and returns it (nil while it must wait). A
// data operation on cacheable module sm waits for every overlapping
// in-flight miss to install first — forwarding now could reorder it
// around the refill — and an OpFree for every miss in the module: its
// extent is unknown, and an invalidation sweep cannot cover a refill
// that has not installed yet. A returned bypass with needWait set
// covers the range the caller must flush — write back dirty lines, and
// drop every line when the request writes or frees; FIFO issue order
// then puts those writebacks ahead of the forward.
func (e *engine) bypass(i, sm int, cacheable bool, req bus.Request) *bypass {
	_, lo, hi, data := dataRange(req)
	free := req.Op == bus.OpFree
	if free {
		lo, hi = 0, ^uint32(0)
	}
	if cacheable {
		for _, m := range e.mshrs {
			if data && e.overlaps(m.sm, m.base, sm, lo, hi) || free && m.sm == sm {
				return nil
			}
		}
	}
	ch := &e.chans[i]
	tx, ok := ch.up.Pop()
	if !ok {
		return nil
	}
	p := &bypass{upTag: tx.Tag, req: req}
	if cacheable && (data || free) {
		p.needWait, p.sm, p.lo, p.hi = true, sm, lo, hi
	}
	*e.n.bypassed++
	ch.pending = p
	return p
}

// issue issues toward channel i: at most one writeback and one
// refill-or-bypass per cycle, credits permitting. Refills issue in MSHR
// creation order, each held back while a writeback overlapping its line
// is outstanding; the pending bypass goes last, held back the same way.
func (e *engine) issue(i int) {
	ch := &e.chans[i]
	if len(ch.wbq) > 0 && ch.wb.CanIssue() {
		w := ch.wbq[0]
		ch.wbq = slices.Delete(ch.wbq, 0, 1)
		// The payload is the entry's own word buffer: every slave copies
		// a write burst before completing it, and the entry is reused
		// only after ackWB.
		for j := range w.words {
			w.words[j] = binary.LittleEndian.Uint32(w.data[j*4:])
		}
		tag := ch.wb.Issue(bus.Request{
			Op: bus.OpWriteBurst, SM: w.sm, VPtr: w.base,
			Dim: uint32(len(w.words)), DType: bus.U32, Burst: w.words, WB: true,
		})
		ch.wbInflight[tag] = w
	}
	if !ch.down.CanIssue() {
		return
	}
	for _, m := range e.mshrs {
		if m.issued || e.chanOf(m.sm) != i || e.wbOverlap(i, m.sm, m.base, m.base+e.lineBytes) {
			continue
		}
		m.tag = ch.down.Issue(bus.Request{
			Op: bus.OpReadBurst, SM: m.sm, VPtr: m.base,
			Dim: e.lineBytes / 4, DType: bus.U32, Burst: m.line[:0], Excl: m.excl,
		})
		m.issued = true
		return
	}
	if p := ch.pending; p != nil {
		if p.needWait && e.wbOverlap(i, p.sm, p.lo, p.hi) {
			return
		}
		ch.fwd[ch.down.Issue(p.req)] = p.upTag
		ch.pending = nil
	}
}

// Name implements sim.Module.
func (e *engine) Name() string { return e.name }

// LineBytes returns the configured line size.
func (e *engine) LineBytes() uint32 { return e.lineBytes }

// NextWake implements sim.Sleeper. Every condition the cache acts on is
// either already visible (pending requests, deliverable completions,
// queued work — wake now) or arrives via a port signal commit, which
// wakes every sleeper.
func (e *engine) NextWake(now uint64) uint64 {
	for i := range e.chans {
		ch := &e.chans[i]
		if ch.down.HasCompletion() || ch.wb != ch.down && ch.wb.HasCompletion() || ch.up.Pending() ||
			len(ch.wbq) > 0 || ch.pending != nil {
			return now
		}
	}
	for _, m := range e.mshrs {
		if !m.issued {
			return now
		}
	}
	return sim.WakeNever
}

// Skip implements sim.Sleeper. The cache keeps no per-cycle counters, so
// skipped idle cycles need no accounting.
func (e *engine) Skip(n uint64) {}

// Synced reports whether no dirty state is outstanding: no Modified
// line, no queued and no in-flight writeback.
func (e *engine) Synced() bool {
	for i := range e.chans {
		if len(e.chans[i].wbq) > 0 || len(e.chans[i].wbInflight) > 0 {
			return false
		}
	}
	synced := true
	e.visitValid(func(ln *line) {
		if ln.state == Modified {
			synced = false
		}
	})
	return synced
}

// Idle reports whether the cache has no work at all: synced, no MSHR, no
// bypass pending or in flight and nothing queued on an up port.
func (e *engine) Idle() bool {
	if !e.Synced() || len(e.mshrs) != 0 {
		return false
	}
	for i := range e.chans {
		ch := &e.chans[i]
		if ch.pending != nil || len(ch.fwd) != 0 || ch.up.Pending() {
			return false
		}
	}
	return true
}

// VisitLines calls f for every valid line (tests and invariant
// checkers).
func (e *engine) VisitLines(f func(sm int, base uint32, st State)) {
	e.visitValid(func(ln *line) { f(ln.sm, ln.base, ln.state) })
}
