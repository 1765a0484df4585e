package bus

import (
	"encoding/binary"
	"slices"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/snapshot"
)

// fabricRig is a split interconnect between two masters and two slave
// ports with no slave model behind them, so a forwarded request stays
// pending. Four cycles a word keep a request on its channel for a
// while.
type fabricRig struct {
	k     *sim.Kernel
	ports []*Port // m0, m1, s0, s1
	inter snapshot.Stateful
	f     *fabric
}

// newFabricRig builds the rig around the interconnect newInter wires.
func newFabricRig(newInter func(k *sim.Kernel, masters, slaves []*Port) (snapshot.Stateful, *fabric)) fabricRig {
	k := sim.New()
	var ports []*Port
	for _, name := range []string{"m0", "m1", "s0", "s1"} {
		ports = append(ports, NewPort(k, name, PortConfig{Depth: 2}))
	}
	inter, f := newInter(k, ports[:2], ports[2:])
	f.Split, f.WordCycles = true, 4
	return fabricRig{k, ports, inter, f}
}

// busy runs the rig until master 0's first read waits in slave 0's queue
// while its second moves its words on ch.
func (r fabricRig) busy(t *testing.T, ch func() *channel) {
	t.Helper()
	r.ports[0].Issue(Request{Op: OpRead, SM: 0, VPtr: 1})
	r.ports[0].Issue(Request{Op: OpRead, SM: 0, VPtr: 2})
	for range 16 {
		if len(r.f.pend[0]) == 1 && ch().state == chReqXfer {
			return
		}
		if err := r.k.Run(1); err != nil {
			t.Fatal(err)
		}
	}
	t.Fatal("interconnect never held a pending and an in-flight request")
}

// save snapshots the rig's ports and interconnect.
func (r fabricRig) save(t *testing.T) []byte {
	t.Helper()
	w := snapshot.NewWriter()
	for _, p := range r.ports {
		w.Save("port."+p.Name(), p)
	}
	w.Save("inter", r.inter)
	data, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// load restores data into the rig and, as a system restore does once
// every section has loaded, checks the ports and the interconnect.
func (r fabricRig) load(t *testing.T, data []byte) error {
	t.Helper()
	f, err := snapshot.Read(data)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Load("inter", r.inter); err != nil {
		return err
	}
	for _, p := range r.ports {
		if err := f.Load("port."+p.Name(), p); err != nil {
			t.Fatal(err)
		}
		if err := p.Check(); err != nil {
			t.Fatal(err)
		}
	}
	return r.inter.(interface{ Check() error }).Check()
}

type craftCase struct {
	name  string
	craft func(r fabricRig)
	err   string
}

// checkCrafted crafts each case into a busy rig's state, snapshots it
// and expects the load into a fresh rig, or the check after it, to fail
// with the case's error.
// The uncrafted snapshot must load.
func checkCrafted(t *testing.T, build func() fabricRig, ch func(fabricRig) *channel, cases []craftCase) {
	t.Helper()
	for _, tc := range append([]craftCase{{"as run", func(fabricRig) {}, ""}}, cases...) {
		r := build()
		r.busy(t, func() *channel { return ch(r) })
		tc.craft(r)
		err := build().load(t, r.save(t))
		if tc.err == "" && err != nil || tc.err != "" && (err == nil || !strings.Contains(err.Error(), tc.err)) {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.err)
		}
	}
}

// originCases corrupt the pending request — its origin, or its slave-port
// tag — and the origin of the one on the request channel.
func originCases(ch func(fabricRig) *channel) []craftCase {
	pendTo := func(src pendSrc) func(r fabricRig) {
		return func(r fabricRig) {
			for tag := range r.f.pend[0] {
				r.f.pend[0][tag] = src
			}
		}
	}
	return []craftCase{
		{"pending from master 7", pendTo(pendSrc{master: 7, tag: 1}), "master 7 of 2"},
		{"pending from master -1", pendTo(pendSrc{master: -1, tag: 1}), "master -1 of 2"},
		{"pending under a stray tag", pendTo(pendSrc{master: 0, tag: 99}), "has not handed out"},
		{"pending under another master's tag", pendTo(pendSrc{master: 1, tag: 1}), "has not handed out"},
		{"pending under a slave tag its port does not hold", func(r fabricRig) {
			for tag, src := range r.f.pend[0] {
				delete(r.f.pend[0], tag)
				r.f.pend[0][99] = src
			}
		}, "which its port does not hold"},
		{"pending entry lost", func(r fabricRig) { clear(r.f.pend[0]) }, "0 requests pending at slave 0, whose port holds 1"},
		{"pending twice from one request", func(r fabricRig) {
			for _, src := range r.f.pend[0] {
				r.f.pend[1][Tag(1)] = src
			}
		}, "2 requests pending from master 0 under tag 1"},
		{"in flight from master 9", func(r fabricRig) { ch(r).from.master = 9 }, "master 9 of 2"},
		{"in flight from a pending request", func(r fabricRig) {
			for _, src := range r.f.pend[0] {
				ch(r).from = src
			}
		}, "which is also pending"},
		{"in flight under a stray tag", func(r fabricRig) { ch(r).from.tag = 99 }, "has not handed out"},
		{"in flight to a full port", func(r fabricRig) {
			// Master 1's request takes slave 0's last credit behind the
			// interconnect's back; the in-flight read keeps moving words.
			r.ports[1].Issue(Request{Op: OpRead, SM: 0})
			_ = r.k.Run(1)
			tx, _ := r.ports[1].Pop()
			r.f.pend[0][r.ports[2].Issue(tx.Req)] = pendSrc{master: 1, tag: tx.Tag}
			_ = r.k.Run(1)
		}, "port is full"},
	}
}

// TestBusSnapshotRejectsImpossibleState crafts bus sections the bus can
// never hold between cycles — a channel state it does not have, or a
// pending or in-flight request whose master or master-port tag is not
// one in service — and expects the load or the bus's Check to fail
// rather than the next response to panic. Genuine mid-transfer states are restored by the
// experiments' pinned snapshots.
func TestBusSnapshotRejectsImpossibleState(t *testing.T) {
	build := func() fabricRig {
		return newFabricRig(func(k *sim.Kernel, masters, slaves []*Port) (snapshot.Stateful, *fabric) {
			b := NewBus(k, "bus", masters, slaves, NewRoundRobin())
			return b, &b.fabric
		})
	}
	ch := func(r fabricRig) *channel { return &r.inter.(*Bus).ch }
	checkCrafted(t, build, ch, append(originCases(ch),
		craftCase{"counters for no master", func(r fabricRig) { r.f.stats.PerMaster = nil }, "counters for 0 masters"},
		craftCase{"channel state 3", func(r fabricRig) { ch(r).state = 3 }, "not one of this channel's states"},
		craftCase{"channel state 255", func(r fabricRig) { ch(r).state = 255 }, "not one of this channel's states"},
	))
}

// TestCrossbarSnapshotRejectsImpossibleState is the crossbar's
// TestBusSnapshotRejectsImpossibleState; a lane's request channel
// carries no response words and its response channel no request.
func TestCrossbarSnapshotRejectsImpossibleState(t *testing.T) {
	build := func() fabricRig {
		return newFabricRig(func(k *sim.Kernel, masters, slaves []*Port) (snapshot.Stateful, *fabric) {
			x := NewCrossbar(k, "xbar", masters, slaves, func() Arbiter { return NewRoundRobin() })
			return x, &x.fabric
		})
	}
	lane := func(r fabricRig) *xbarLane { return &r.inter.(*Crossbar).lanes[0] }
	ch := func(r fabricRig) *channel { return &lane(r).rq }
	checkCrafted(t, build, ch, append(originCases(ch),
		craftCase{"request channel moving a response", func(r fabricRig) { lane(r).rq.state = chRespXfer }, "not one of this channel's states"},
		craftCase{"response channel moving a request", func(r fabricRig) { lane(r).rs.state = chReqXfer }, "not one of this channel's states"},
		craftCase{"response channel state 3", func(r fabricRig) { lane(r).rs.state = 3 }, "not one of this channel's states"},
		craftCase{"one request in flight on two lanes", func(r fabricRig) {
			r.inter.(*Crossbar).lanes[1].rq = lane(r).rq
		}, "in flight on two lanes"},
	))
}

// TestPortSnapshotRejectsInconsistentState crafts port states no run can
// leave behind — counters out of their issue → pop → complete → drain →
// deliver order or out of step with the signals that carry them, open
// or undelivered completions of the wrong number, a queued request
// under a tag out of issue order or with an op that does not exist —
// and expects the load (the op, the undelivered count) or the loaded
// port's Check (the rest) to fail: each would mislead the modules on
// both ends of the port.
func TestPortSnapshotRejectsInconsistentState(t *testing.T) {
	// build returns a depth-4 port with three requests issued, two
	// popped, one completed and drained but not delivered.
	build := func() *Port {
		k := sim.New()
		p := NewPort(k, "p", PortConfig{Depth: 4, OutOfOrder: true})
		for i := range 3 {
			p.Issue(Request{Op: OpRead, VPtr: uint32(i)})
		}
		if err := k.Run(1); err != nil {
			t.Fatal(err)
		}
		tx, _ := p.Pop()
		p.Pop()
		p.Complete(tx.Tag, Response{})
		if err := k.Run(1); err != nil {
			t.Fatal(err)
		}
		p.HasCompletion() // drains the completion ring
		return p
	}
	// dropUndelivered rewrites the section's last field, the
	// out-of-order port's undelivered completions — a count and the
	// 21-byte completion of tag 1 — as an empty list.
	dropUndelivered := func(payload []byte) []byte {
		return append(payload[:len(payload)-4-21:len(payload)-4-21], 0, 0, 0, 0)
	}
	// openList rewrites the open table, which ends 4+21 bytes (the
	// undelivered list) and 4 bytes (the empty reorder list) before the
	// payload does and holds tag 2, as a list of tags.
	openList := func(tags ...Tag) func(payload []byte) []byte {
		return func(payload []byte) []byte {
			tail := len(payload) - 4 - 21 - 4
			return slices.Concat(payload[:tail-4-8], tagList(tags), payload[tail:])
		}
	}
	for _, tc := range []struct {
		name   string
		craft  func(p *Port)
		errStr string
		patch  func(payload []byte) []byte
	}{
		{"as run", func(*Port) {}, "", nil},
		{"issued ahead of its signal", func(p *Port) { p.issued = 4 }, "inconsistent counters", nil},
		{"signal ahead of issued", func(p *Port) { p.reqSeq.Restore(4) }, "inconsistent counters", nil},
		{"completed before popped", func(p *Port) { p.popped = 0 }, "inconsistent counters", nil},
		{"completed with no signal", func(p *Port) { p.ackSeq.Restore(0) }, "inconsistent counters", nil},
		{"delivered before drained", func(p *Port) { p.delivered = 2 }, "inconsistent counters", nil},
		{"more outstanding than credits", func(p *Port) {
			p.issued, p.popped = 5, 4
			p.reqSeq.Restore(5)
		}, "inconsistent counters", nil},
		{"open table lost", func(*Port) {}, "0 open and 1 undelivered", openList()},
		{"open tag 0", func(*Port) {}, "open tag 0", openList(0)},
		{"open tag twice", func(*Port) {}, "open tag 2 listed twice", openList(2, 2)},
		{"more open than depth", func(*Port) {}, "5 open transactions, depth 4", openList(2, 3, 4, 5, 6)},
		{"undelivered completion lost", func(*Port) {}, "1 open and 0 undelivered", dropUndelivered},
		{"queued under a stray tag", func(p *Port) { p.reqBuf[2].Tag = 9 }, "request 3 queued under tag 9", nil},
		{"queued with no such op", func(p *Port) { p.reqBuf[2].Req.Op = Op(NumOps) }, "is not an operation", nil},
	} {
		p := build()
		tc.craft(p)
		w := snapshot.NewWriter()
		w.Save("port", p)
		data, err := w.Finish()
		if err != nil {
			t.Fatal(err)
		}
		if tc.patch != nil {
			// The file is the 12-byte header, the 4-byte name length,
			// "port", the payload length, the payload and its CRC.
			payload := tc.patch(data[12+4+4+4 : len(data)-4])
			w = snapshot.NewWriter()
			w.Add("port", payload)
			if data, err = w.Finish(); err != nil {
				t.Fatal(err)
			}
		}
		f, err := snapshot.Read(data)
		if err != nil {
			t.Fatal(err)
		}
		loaded := build()
		err = f.Load("port", loaded)
		if err == nil {
			err = loaded.Check()
		}
		if tc.errStr == "" && err != nil || tc.errStr != "" && (err == nil || !strings.Contains(err.Error(), tc.errStr)) {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.errStr)
		}
	}
}

// tagList encodes tags as the port walk writes its open table: a count,
// then each tag.
func tagList(tags []Tag) []byte {
	b := binary.LittleEndian.AppendUint32(nil, uint32(len(tags)))
	for _, tag := range tags {
		b = binary.LittleEndian.AppendUint64(b, uint64(tag))
	}
	return b
}

// TestPortSnapshotRejectsBadReorder loads parkBehindOpen's in-order
// port (tags 3 and 4 parked in reorder, delivered 1, issued 5) with its
// reorder list rewritten, and expects the walk to refuse every list
// whose tags could not each own slot tag%depth: a zero tag reads as a
// free slot, and a duplicate or a tag outside (delivered, issued] would
// overwrite a parked completion.
func TestPortSnapshotRejectsBadReorder(t *testing.T) {
	k := sim.New()
	p := NewPort(k, "p", PortConfig{Depth: 4})
	parkBehindOpen(t, k, p)
	w := snapshot.NewWriter()
	w.Save("port", p)
	data, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	// The file is the 12-byte header, the 4-byte name length, "port",
	// the payload length, the payload and its CRC. The payload ends in
	// the reorder list (a count and two 21-byte completions) and the
	// empty undelivered list.
	payload := data[12+4+4+4 : len(data)-4]
	tail := len(payload) - 4
	head := payload[:tail-4-2*21]
	for _, tc := range []struct {
		name string
		tags []Tag
		err  string
	}{
		{"as run", []Tag{3, 4}, ""},
		{"tag 0", []Tag{0, 4}, "reordered completion under tag 0"},
		{"tag twice", []Tag{3, 3}, "reordered tag 3 listed twice"},
		{"more than depth", []Tag{2, 3, 4, 5, 6}, "5 reordered completions, depth 4"},
		{"delivered tag", []Tag{1, 3}, "reordered tag 1 outside the undelivered tags (1, 5]"},
		{"unissued tag", []Tag{3, 6}, "reordered tag 6 outside the undelivered tags (1, 5]"},
	} {
		list := binary.LittleEndian.AppendUint32(nil, uint32(len(tc.tags)))
		for _, tag := range tc.tags {
			list = binary.LittleEndian.AppendUint64(list, uint64(tag))
			list = append(list, 0)                                          // Err
			list = binary.LittleEndian.AppendUint32(list, uint32(tag)*0x11) // Data
			list = binary.LittleEndian.AppendUint32(list, 0)                // VPtr
			list = binary.LittleEndian.AppendUint32(list, 0)                // Burst
		}
		w := snapshot.NewWriter()
		w.Add("port", slices.Concat(head, list, payload[tail:]))
		data, err := w.Finish()
		if err != nil {
			t.Fatal(err)
		}
		f, err := snapshot.Read(data)
		if err != nil {
			t.Fatal(err)
		}
		q := NewPort(sim.New(), "p", PortConfig{Depth: 4})
		err = f.Load("port", q)
		if err == nil {
			err = q.Check()
		}
		if tc.err == "" && err != nil || tc.err != "" && (err == nil || !strings.Contains(err.Error(), tc.err)) {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.err)
		}
	}
}
