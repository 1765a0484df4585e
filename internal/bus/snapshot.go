package bus

import (
	"fmt"
	"sort"

	"repro/internal/snapshot"
)

// This file makes the transaction layer snapshottable: ports (the only
// owners of sim.Signals in the tree), both interconnects, and the
// arbiters. Requests and responses get exported codecs because
// every FSM upstream (memories, caches, DMA, ISS bridge) parks them in
// its own state.

// EncodeRequest appends r to enc.
func EncodeRequest(enc *snapshot.Encoder, r Request) {
	enc.U8(uint8(r.Op))
	enc.Int(r.SM)
	enc.U32(r.VPtr)
	enc.U32(r.Data)
	enc.U32(r.Dim)
	enc.U8(uint8(r.DType))
	enc.U32s(r.Burst)
	enc.Int(r.Master)
	enc.Bool(r.Excl)
	enc.Bool(r.WB)
}

// DecodeRequest reads a Request written by EncodeRequest.
func DecodeRequest(dec *snapshot.Decoder) Request {
	var r Request
	r.Op = Op(dec.U8())
	r.SM = dec.Int()
	r.VPtr = dec.U32()
	r.Data = dec.U32()
	r.Dim = dec.U32()
	r.DType = DataType(dec.U8())
	r.Burst = dec.U32s()
	r.Master = dec.Int()
	r.Excl = dec.Bool()
	r.WB = dec.Bool()
	return r
}

// EncodeResponse appends r to enc.
func EncodeResponse(enc *snapshot.Encoder, r Response) {
	enc.U8(uint8(r.Err))
	enc.U32(r.Data)
	enc.U32(r.VPtr)
	enc.U32s(r.Burst)
}

// DecodeResponse reads a Response written by EncodeResponse.
func DecodeResponse(dec *snapshot.Decoder) Response {
	var r Response
	r.Err = ErrCode(dec.U8())
	r.Data = dec.U32()
	r.VPtr = dec.U32()
	r.Burst = dec.U32s()
	return r
}

func encodeU64s(enc *snapshot.Encoder, v []uint64) {
	enc.U32(uint32(len(v)))
	for _, x := range v {
		enc.U64(x)
	}
}

// decodeU64s grows the slice as it reads, so a corrupt length cannot
// allocate more than the payload holds.
func decodeU64s(dec *snapshot.Decoder) []uint64 {
	var out []uint64
	for n := dec.U32(); n > 0 && dec.Err() == nil; n-- {
		out = append(out, dec.U64())
	}
	if dec.Err() != nil {
		return nil
	}
	return out
}

func (s *Stats) save(enc *snapshot.Encoder) {
	enc.U64(s.Transactions)
	enc.U64(s.Words)
	enc.U64(s.BusyCycles)
	for _, v := range s.PerOp {
		enc.U64(v)
	}
	encodeU64s(enc, s.PerMaster)
	encodeU64s(enc, s.PerSlave)
	enc.U64(s.NoSlave)
	encodeU64s(enc, s.RespGrants)
}

func (s *Stats) restore(dec *snapshot.Decoder) {
	s.Transactions = dec.U64()
	s.Words = dec.U64()
	s.BusyCycles = dec.U64()
	for i := range s.PerOp {
		s.PerOp[i] = dec.U64()
	}
	s.PerMaster = decodeU64s(dec)
	s.PerSlave = decodeU64s(dec)
	s.NoSlave = dec.U64()
	s.RespGrants = decodeU64s(dec)
}

// Arbiter state markers. config.Build only ever wires these two
// policies; a custom arbiter round-trips as "opaque" and restore
// verifies the rebuilt system uses the same kind.
const (
	arbOpaque = uint8(iota)
	arbRoundRobin
	arbFixedPriority
)

func saveArbiter(enc *snapshot.Encoder, a Arbiter) {
	switch a := a.(type) {
	case *RoundRobin:
		enc.U8(arbRoundRobin)
		enc.Int(a.last)
		enc.Bool(a.init)
	case FixedPriority, *FixedPriority:
		enc.U8(arbFixedPriority)
	default:
		enc.U8(arbOpaque)
	}
}

func restoreArbiter(dec *snapshot.Decoder, a Arbiter) error {
	kind := dec.U8()
	switch kind {
	case arbRoundRobin:
		rr, ok := a.(*RoundRobin)
		if !ok {
			return fmt.Errorf("arbiter mismatch: snapshot has round-robin, system has %s", a.Name())
		}
		rr.last = dec.Int()
		rr.init = dec.Bool()
	case arbFixedPriority:
		switch a.(type) {
		case FixedPriority, *FixedPriority:
		default:
			return fmt.Errorf("arbiter mismatch: snapshot has fixed-priority, system has %s", a.Name())
		}
	case arbOpaque:
		switch a.(type) {
		case *RoundRobin, FixedPriority, *FixedPriority:
			return fmt.Errorf("arbiter mismatch: snapshot has an opaque arbiter, system has %s", a.Name())
		}
	default:
		return fmt.Errorf("unknown arbiter marker %d", kind)
	}
	return dec.Err()
}

func sortedTags[V any](m map[Tag]V) []Tag {
	tags := make([]Tag, 0, len(m))
	for t := range m {
		tags = append(tags, t)
	}
	sort.Slice(tags, func(i, j int) bool { return tags[i] < tags[j] })
	return tags
}

// SaveState implements snapshot.Saver: the port's credit counters, the
// live entries of both rings, open/reorder tracking, and the committed
// values of its two kernel signals. Only live ring slots are saved, so
// the snapshot does not leak stale host memory.
func (p *Port) SaveState(enc *snapshot.Encoder) {
	enc.String(p.name)
	enc.Int(p.depth)
	enc.Bool(p.ooo)
	enc.U64(p.issued)
	enc.U64(p.popped)
	enc.U64(p.completed)
	enc.U64(p.drained)
	enc.U64(p.delivered)
	enc.U64(p.reqSeq.Get())
	enc.U64(p.ackSeq.Get())
	// Live request ring entries, oldest first.
	for i := p.popped; i < p.issued; i++ {
		t := p.reqBuf[int(i%uint64(p.depth))]
		enc.U64(uint64(t.Tag))
		EncodeRequest(enc, t.Req)
	}
	// Live completion ring entries, oldest first.
	for i := p.drained; i < p.completed; i++ {
		c := p.cmplBuf[int(i%uint64(p.depth))]
		enc.U64(uint64(c.Tag))
		EncodeResponse(enc, c.Resp)
	}
	openTags := sortedTags(p.open)
	enc.U32(uint32(len(openTags)))
	for _, t := range openTags {
		enc.U64(uint64(t))
	}
	reTags := sortedTags(p.reorder)
	enc.U32(uint32(len(reTags)))
	for _, t := range reTags {
		enc.U64(uint64(t))
		EncodeResponse(enc, p.reorder[t])
	}
	enc.U32(uint32(len(p.oooQ)))
	for _, c := range p.oooQ {
		enc.U64(uint64(c.Tag))
		EncodeResponse(enc, c.Resp)
	}
}

// RestoreState implements snapshot.Restorer. The port must have been
// rebuilt with the same name, depth, and delivery mode; geometry skew
// is an error, never silently absorbed.
func (p *Port) RestoreState(dec *snapshot.Decoder) error {
	name := dec.String()
	depth := dec.Int()
	ooo := dec.Bool()
	if err := dec.Err(); err != nil {
		return err
	}
	if name != p.name || depth != p.depth || ooo != p.ooo {
		return fmt.Errorf("port geometry mismatch: snapshot has %s/depth=%d/ooo=%v, system has %s/depth=%d/ooo=%v",
			name, depth, ooo, p.name, p.depth, p.ooo)
	}
	p.issued = dec.U64()
	p.popped = dec.U64()
	p.completed = dec.U64()
	p.drained = dec.U64()
	p.delivered = dec.U64()
	reqSeq := dec.U64()
	ackSeq := dec.U64()
	if dec.Err() == nil {
		if p.issued < p.popped || p.issued-p.popped > uint64(p.depth) {
			return dec.Fail(fmt.Errorf("port %s: inconsistent request ring (issued=%d popped=%d depth=%d)", p.name, p.issued, p.popped, p.depth))
		}
		if p.completed < p.drained || p.completed-p.drained > uint64(p.depth) {
			return dec.Fail(fmt.Errorf("port %s: inconsistent completion ring (completed=%d drained=%d depth=%d)", p.name, p.completed, p.drained, p.depth))
		}
	}
	for i := range p.reqBuf {
		p.reqBuf[i] = Txn{}
	}
	for i := p.popped; i < p.issued && dec.Err() == nil; i++ {
		tag := Tag(dec.U64())
		p.reqBuf[int(i%uint64(p.depth))] = Txn{Tag: tag, Req: DecodeRequest(dec)}
	}
	for i := range p.cmplBuf {
		p.cmplBuf[i] = Completion{}
	}
	for i := p.drained; i < p.completed && dec.Err() == nil; i++ {
		tag := Tag(dec.U64())
		p.cmplBuf[int(i%uint64(p.depth))] = Completion{Tag: tag, Resp: DecodeResponse(dec)}
	}
	p.open = make(map[Tag]struct{})
	for n := dec.U32(); n > 0 && dec.Err() == nil; n-- {
		p.open[Tag(dec.U64())] = struct{}{}
	}
	p.reorder = make(map[Tag]Response)
	for n := dec.U32(); n > 0 && dec.Err() == nil; n-- {
		tag := Tag(dec.U64())
		p.reorder[tag] = DecodeResponse(dec)
	}
	p.oooQ = nil
	for n := dec.U32(); n > 0 && dec.Err() == nil; n-- {
		tag := Tag(dec.U64())
		p.oooQ = append(p.oooQ, Completion{Tag: tag, Resp: DecodeResponse(dec)})
	}
	if err := dec.Err(); err != nil {
		return err
	}
	p.reqSeq.Restore(reqSeq)
	p.ackSeq.Restore(ackSeq)
	return nil
}

func encodePendSrc(enc *snapshot.Encoder, s pendSrc) {
	enc.Int(s.master)
	enc.U64(uint64(s.tag))
}

func decodePendSrc(dec *snapshot.Decoder) pendSrc {
	return pendSrc{master: dec.Int(), tag: Tag(dec.U64())}
}

func savePendMap(enc *snapshot.Encoder, m map[Tag]pendSrc) {
	tags := sortedTags(m)
	enc.U32(uint32(len(tags)))
	for _, t := range tags {
		enc.U64(uint64(t))
		encodePendSrc(enc, m[t])
	}
}

func restorePendMap(dec *snapshot.Decoder) map[Tag]pendSrc {
	m := make(map[Tag]pendSrc)
	for n := dec.U32(); n > 0 && dec.Err() == nil; n-- {
		tag := Tag(dec.U64())
		m[tag] = decodePendSrc(dec)
	}
	return m
}

// SaveState implements snapshot.Saver: the channel state (including an
// occupied hold), the per-slave pending maps, the arbiters, and the
// stats. Topology (masters, slaves, word cycles, snoop hook) is rebuilt
// from config.
func (b *Bus) SaveState(enc *snapshot.Encoder) {
	enc.Int(len(b.masters))
	enc.Int(len(b.slaves))
	enc.U8(uint8(b.state))
	enc.U32(b.counter)
	EncodeRequest(enc, b.req)
	encodePendSrc(enc, b.reqFrom)
	enc.Int(b.held + 1) // 0: free
	for _, m := range b.pend {
		savePendMap(enc, m)
	}
	saveArbiter(enc, b.arb)
	saveArbiter(enc, b.respArb())
	b.stats.save(enc)
}

// RestoreState implements snapshot.Restorer.
func (b *Bus) RestoreState(dec *snapshot.Decoder) error {
	nm, ns := dec.Int(), dec.Int()
	if err := dec.Err(); err != nil {
		return err
	}
	if nm != len(b.masters) || ns != len(b.slaves) {
		return fmt.Errorf("bus topology mismatch: snapshot has %dx%d, system has %dx%d",
			nm, ns, len(b.masters), len(b.slaves))
	}
	b.state = chanState(dec.U8())
	b.counter = dec.U32()
	b.req = DecodeRequest(dec)
	b.reqFrom = decodePendSrc(dec)
	b.held = dec.Int() - 1
	if dec.Err() == nil && (b.held < -1 || b.held >= ns) {
		return dec.Fail(fmt.Errorf("bus held for slave %d of %d", b.held, ns))
	}
	b.outstanding = 0
	for i := range b.pend {
		b.pend[i] = restorePendMap(dec)
		b.outstanding += len(b.pend[i])
	}
	if err := restoreArbiter(dec, b.arb); err != nil {
		return err
	}
	if err := restoreArbiter(dec, b.respArb()); err != nil {
		return err
	}
	b.stats.restore(dec)
	return dec.Finish()
}

// SaveState implements snapshot.Saver for the crossbar: every lane's
// request and response engines and pending map, the per-lane arbiters,
// the stats.
func (x *Crossbar) SaveState(enc *snapshot.Encoder) {
	enc.Int(len(x.masters))
	enc.Int(len(x.slaves))
	for i := range x.lanes {
		l := &x.lanes[i]
		enc.U8(uint8(l.rqState))
		enc.U32(l.rqCounter)
		EncodeRequest(enc, l.rqCur)
		encodePendSrc(enc, l.rqFrom)
		enc.U8(uint8(l.rsState))
		enc.U32(l.rsCounter)
		savePendMap(enc, l.pend)
	}
	for _, a := range x.arbs {
		saveArbiter(enc, a)
	}
	x.stats.save(enc)
}

// RestoreState implements snapshot.Restorer.
func (x *Crossbar) RestoreState(dec *snapshot.Decoder) error {
	nm, ns := dec.Int(), dec.Int()
	if err := dec.Err(); err != nil {
		return err
	}
	if nm != len(x.masters) || ns != len(x.slaves) {
		return fmt.Errorf("crossbar topology mismatch: snapshot has %dx%d, system has %dx%d",
			nm, ns, len(x.masters), len(x.slaves))
	}
	for i := range x.lanes {
		l := &x.lanes[i]
		l.rqState = chanState(dec.U8())
		l.rqCounter = dec.U32()
		l.rqCur = DecodeRequest(dec)
		l.rqFrom = decodePendSrc(dec)
		l.rsState = chanState(dec.U8())
		l.rsCounter = dec.U32()
		l.pend = restorePendMap(dec)
	}
	for _, a := range x.arbs {
		if err := restoreArbiter(dec, a); err != nil {
			return err
		}
	}
	x.stats.restore(dec)
	return dec.Finish()
}
