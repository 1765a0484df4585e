package bus

import (
	"encoding/hex"
	"fmt"
	"maps"
	"math/rand/v2"
	"testing"

	"repro/internal/sim"
	"repro/internal/snapshot"
)

// TestPortPeekNeverStale is the regression test for the PeekRequest
// footgun the port API folds away: the old Pending/PeekRequest pair let
// a caller read the previous request's payload after the pop. Peek
// couples validity and payload in one call, so an empty queue yields
// ok=false — never a stale request — and a non-empty queue yields the
// actual head, never the previously popped entry.
func TestPortPeekNeverStale(t *testing.T) {
	k := sim.New()
	p := NewPort(k, "p", PortConfig{Depth: 2})
	p.Issue(Request{Op: OpRead, VPtr: 0x111})
	p.Issue(Request{Op: OpWrite, VPtr: 0x222})
	if err := k.Step(); err != nil {
		t.Fatal(err)
	}
	if req, ok := p.Peek(); !ok || req.VPtr != 0x111 {
		t.Fatalf("Peek = %v/%v, want head 0x111", req, ok)
	}
	tx, ok := p.Pop()
	if !ok || tx.Req.VPtr != 0x111 {
		t.Fatalf("Pop = %v/%v, want 0x111", tx, ok)
	}
	// The head is now the second request — not the popped one.
	if req, ok := p.Peek(); !ok || req.VPtr != 0x222 {
		t.Fatalf("Peek after pop = %v/%v, want 0x222 (stale head?)", req, ok)
	}
	if _, ok := p.Pop(); !ok {
		t.Fatal("second Pop failed")
	}
	// Queue drained: Peek must report empty, with a zero request — the
	// old API would have kept returning the last payload here.
	if req, ok := p.Peek(); ok || req.VPtr != 0 || req.Op != OpRead {
		t.Fatalf("Peek on empty queue = %v/%v, want zero/false", req, ok)
	}
	if p.Pending() {
		t.Error("Pending true on empty queue")
	}
}

// TestPortCredits pins the credit-based flow control: Issue consumes a
// credit immediately (same cycle), completion alone does not return it —
// only delivery to the master does.
func TestPortCredits(t *testing.T) {
	k := sim.New()
	p := NewPort(k, "p", PortConfig{Depth: 2})
	if !p.CanIssue() || p.Outstanding() != 0 {
		t.Fatal("fresh port must have all credits")
	}
	t1 := p.Issue(Request{Op: OpRead, VPtr: 1})
	t2 := p.Issue(Request{Op: OpRead, VPtr: 2})
	if t2 != t1+1 {
		t.Fatalf("tags not sequential: %d then %d", t1, t2)
	}
	if p.CanIssue() {
		t.Fatal("CanIssue true with all credits consumed")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Issue beyond depth did not panic")
			}
		}()
		p.Issue(Request{Op: OpRead, VPtr: 3})
	}()
	if err := k.Step(); err != nil {
		t.Fatal(err)
	}
	// Serve and complete both; until the master drains them the credits
	// stay consumed.
	for i := 0; i < 2; i++ {
		tx, ok := p.Pop()
		if !ok {
			t.Fatal("Pop failed")
		}
		p.Complete(tx.Tag, Response{Data: tx.Req.VPtr})
	}
	if err := k.Step(); err != nil {
		t.Fatal(err)
	}
	if p.CanIssue() {
		t.Fatal("credits returned before delivery")
	}
	if _, ok := p.TakeCompletion(); !ok {
		t.Fatal("no completion after commit")
	}
	if !p.CanIssue() {
		t.Fatal("credit not returned on delivery")
	}
	if p.Outstanding() != 1 {
		t.Fatalf("Outstanding = %d, want 1", p.Outstanding())
	}
}

// TestPortVisibilityClock pins the registered timing: requests issued in
// cycle c are invisible to the slave side until c+1; completions
// published in cycle c are invisible to the master until c+1. Both
// members of a same-cycle issue pair become visible together.
func TestPortVisibilityClock(t *testing.T) {
	k := sim.New()
	p := NewPort(k, "p", PortConfig{Depth: 4})
	p.Issue(Request{Op: OpRead, VPtr: 1})
	p.Issue(Request{Op: OpRead, VPtr: 2})
	if p.Pending() {
		t.Fatal("requests visible in the issue cycle")
	}
	if err := k.Step(); err != nil {
		t.Fatal(err)
	}
	if p.QueueLen() != 2 {
		t.Fatalf("QueueLen = %d, want 2 (pair must commit together)", p.QueueLen())
	}
	tx, _ := p.Pop()
	p.Complete(tx.Tag, Response{Data: 10})
	if p.HasCompletion() {
		t.Fatal("completion visible in the completing cycle")
	}
	if err := k.Step(); err != nil {
		t.Fatal(err)
	}
	if !p.HasCompletion() {
		t.Fatal("completion not visible after commit")
	}
}

// TestPortInOrderDelivery: completions published out of issue order are
// buffered and delivered in issue order, each under its own tag.
func TestPortInOrderDelivery(t *testing.T) {
	k := sim.New()
	p := NewPort(k, "p", PortConfig{Depth: 3})
	ta := p.Issue(Request{Op: OpRead, VPtr: 0xA})
	tb := p.Issue(Request{Op: OpRead, VPtr: 0xB})
	tc := p.Issue(Request{Op: OpRead, VPtr: 0xC})
	if err := k.Step(); err != nil {
		t.Fatal(err)
	}
	var txs []Txn
	for {
		tx, ok := p.Pop()
		if !ok {
			break
		}
		txs = append(txs, tx)
	}
	// Complete in reverse order: C, B, A.
	for i := len(txs) - 1; i >= 0; i-- {
		p.Complete(txs[i].Tag, Response{Data: txs[i].Req.VPtr})
	}
	if err := k.Step(); err != nil {
		t.Fatal(err)
	}
	var got []Completion
	for tag, resp := range p.Completions() {
		got = append(got, Completion{Tag: tag, Resp: resp})
	}
	if len(got) != 3 {
		t.Fatalf("delivered %d completions, want 3", len(got))
	}
	wantTags := []Tag{ta, tb, tc}
	wantData := []uint32{0xA, 0xB, 0xC}
	for i, c := range got {
		if c.Tag != wantTags[i] || c.Resp.Data != wantData[i] {
			t.Errorf("delivery %d = tag %d data %#x, want tag %d data %#x",
				i, c.Tag, c.Resp.Data, wantTags[i], wantData[i])
		}
	}
}

// TestPortOutOfOrderDelivery: in OOO mode completions surface in
// completion order, and an early completion is deliverable while an
// older transaction is still in flight.
func TestPortOutOfOrderDelivery(t *testing.T) {
	k := sim.New()
	p := NewPort(k, "p", PortConfig{Depth: 2, OutOfOrder: true})
	ta := p.Issue(Request{Op: OpRead, VPtr: 0xA})
	tb := p.Issue(Request{Op: OpRead, VPtr: 0xB})
	if err := k.Step(); err != nil {
		t.Fatal(err)
	}
	txA, _ := p.Pop()
	txB, _ := p.Pop()
	// Only B completes; A stays in flight.
	p.Complete(txB.Tag, Response{Data: 0xB})
	if err := k.Step(); err != nil {
		t.Fatal(err)
	}
	c, ok := p.TakeCompletion()
	if !ok || c.Tag != tb {
		t.Fatalf("OOO delivery = %+v/%v, want tag %d first", c, ok, tb)
	}
	if _, ok := p.TakeCompletion(); ok {
		t.Fatal("delivered a completion for an in-flight transaction")
	}
	p.Complete(txA.Tag, Response{Data: 0xA})
	if err := k.Step(); err != nil {
		t.Fatal(err)
	}
	if c, ok := p.TakeCompletion(); !ok || c.Tag != ta {
		t.Fatalf("second OOO delivery = %+v/%v, want tag %d", c, ok, ta)
	}
}

// TestPortInOrderBlocksEarlyCompletion is the in-order counterpart: the
// early completion must wait for the older one.
func TestPortInOrderBlocksEarlyCompletion(t *testing.T) {
	k := sim.New()
	p := NewPort(k, "p", PortConfig{Depth: 2})
	p.Issue(Request{Op: OpRead, VPtr: 0xA})
	p.Issue(Request{Op: OpRead, VPtr: 0xB})
	if err := k.Step(); err != nil {
		t.Fatal(err)
	}
	txA, _ := p.Pop()
	txB, _ := p.Pop()
	p.Complete(txB.Tag, Response{Data: 0xB})
	if err := k.Step(); err != nil {
		t.Fatal(err)
	}
	if p.HasCompletion() {
		t.Fatal("in-order port delivered the younger completion first")
	}
	p.Complete(txA.Tag, Response{Data: 0xA})
	if err := k.Step(); err != nil {
		t.Fatal(err)
	}
	c1, ok1 := p.TakeCompletion()
	c2, ok2 := p.TakeCompletion()
	if !ok1 || !ok2 || c1.Resp.Data != 0xA || c2.Resp.Data != 0xB {
		t.Fatalf("in-order release = %+v/%v then %+v/%v", c1, ok1, c2, ok2)
	}
}

// TestPortCompleteUnknownTagPanics: completing a tag that was never
// popped (or twice) is a protocol violation.
func TestPortCompleteUnknownTagPanics(t *testing.T) {
	k := sim.New()
	p := NewPort(k, "p", PortConfig{Depth: 1})
	p.Issue(Request{Op: OpRead})
	if err := k.Step(); err != nil {
		t.Fatal(err)
	}
	tx, _ := p.Pop()
	p.Complete(tx.Tag, Response{})
	defer func() {
		if recover() == nil {
			t.Error("double Complete did not panic")
		}
	}()
	p.Complete(tx.Tag, Response{})
}

// TestPortRingReuse drives many transactions through a shallow port to
// exercise ring-slot reuse across wrap-arounds.
func TestPortRingReuse(t *testing.T) {
	k := sim.New()
	p := NewPort(k, "p", PortConfig{Depth: 3})
	const total = 50
	issued, delivered := 0, 0
	next := uint32(0)
	for cycle := 0; delivered < total && cycle < 10*total; cycle++ {
		for p.CanIssue() && issued < total {
			p.Issue(Request{Op: OpRead, VPtr: next})
			next++
			issued++
		}
		for {
			tx, ok := p.Pop()
			if !ok {
				break
			}
			p.Complete(tx.Tag, Response{Data: tx.Req.VPtr + 1})
		}
		if err := k.Step(); err != nil {
			t.Fatal(err)
		}
		for _, resp := range p.Completions() {
			if resp.Data != uint32(delivered)+1 {
				t.Fatalf("delivery %d carries data %d", delivered, resp.Data)
			}
			delivered++
		}
	}
	if delivered != total {
		t.Fatalf("delivered %d/%d", delivered, total)
	}
}

// oooModel is the delivery contract of an out-of-order port: a FIFO of
// completions in the order Complete published them, of which the ones
// published before the last kernel step are visible.
type oooModel struct {
	fifo    []Completion
	visible int
}

// take checks one TakeCompletion result against the model and consumes
// the model's head.
func (m *oooModel) take(t *testing.T, what string, c Completion, ok bool) {
	t.Helper()
	if want := m.visible > 0; ok != want {
		t.Fatalf("%s: TakeCompletion ok = %v with %d visible completions", what, ok, m.visible)
	}
	if !ok {
		return
	}
	if c.Tag != m.fifo[0].Tag || c.Resp.Data != m.fifo[0].Resp.Data {
		t.Fatalf("%s: delivered tag %d data %#x, want tag %d data %#x", what, c.Tag, c.Resp.Data, m.fifo[0].Tag, m.fifo[0].Resp.Data)
	}
	m.fifo = m.fifo[1:]
	m.visible--
}

// TestOutOfOrderDelivery drives out-of-order ports of depth 1–8 through
// seeded random interleavings of Issue, Pop, Complete, TakeCompletion
// and kernel steps, and checks every delivered (tag, response) against
// a model FIFO in completion order: a completion is deliverable from
// the cycle after Complete, exactly once, and its credit comes back on
// delivery. The scripted case is the depth-4 live set {1, 5, 6, 7},
// where tags 1 and 5 share ring slot 1 but credits came back in
// completion order.
func TestOutOfOrderDelivery(t *testing.T) {
	t.Run("live set 1 5 6 7", func(t *testing.T) {
		k := sim.New()
		p := NewPort(k, "p", PortConfig{Depth: 4, OutOfOrder: true})
		var m oooModel
		step := func() {
			if err := k.Step(); err != nil {
				t.Fatal(err)
			}
			m.visible = len(m.fifo)
		}
		complete := func(tag Tag) {
			r := Response{Data: uint32(tag) * 0x101}
			p.Complete(tag, r)
			m.fifo = append(m.fifo, Completion{Tag: tag, Resp: r})
		}
		for range 4 {
			p.Issue(Request{Op: OpRead})
		}
		step()
		for range 4 {
			p.Pop()
		}
		complete(2)
		complete(3)
		complete(4)
		step()
		for range 3 {
			c, ok := p.TakeCompletion()
			m.take(t, "first round", c, ok)
		}
		for want := Tag(5); want <= 7; want++ {
			if tag := p.Issue(Request{Op: OpRead}); tag != want {
				t.Fatalf("issued tag %d, want %d", tag, want)
			}
		}
		if p.CanIssue() {
			t.Fatal("credit free with live set {1, 5, 6, 7} at depth 4")
		}
		step()
		for range 3 {
			p.Pop()
		}
		complete(5)
		complete(7)
		step()
		complete(1)
		c, ok := p.TakeCompletion()
		m.take(t, "before 1 is visible", c, ok)
		step()
		complete(6)
		for range 2 {
			c, ok := p.TakeCompletion()
			m.take(t, "after 1 is visible", c, ok)
		}
		c, ok = p.TakeCompletion()
		m.take(t, "6 not yet visible", c, ok)
		step()
		c, ok = p.TakeCompletion()
		m.take(t, "last", c, ok)
		if !p.Idle() || len(m.fifo) != 0 {
			t.Fatalf("port holds %d, model %d after the last delivery", p.Outstanding(), len(m.fifo))
		}
	})
	for seed := uint64(0); seed < 64; seed++ {
		rng := rand.New(rand.NewPCG(seed, 7))
		depth := 1 + rng.IntN(8)
		k := sim.New()
		p := NewPort(k, "p", PortConfig{Depth: depth, OutOfOrder: true})
		var m oooModel
		var open []Tag
		issued, delivered := 0, 0
		for op := 0; op < 2000; op++ {
			what := fmt.Sprintf("seed %d depth %d op %d", seed, depth, op)
			switch rng.IntN(5) {
			case 0:
				if can := issued-delivered < depth; p.CanIssue() != can {
					t.Fatalf("%s: CanIssue = %v with %d outstanding", what, !can, issued-delivered)
				}
				if p.CanIssue() {
					p.Issue(Request{Op: OpRead, VPtr: uint32(op)})
					issued++
				}
			case 1:
				if tx, ok := p.Pop(); ok {
					open = append(open, tx.Tag)
				}
			case 2:
				if len(open) > 0 {
					i := rng.IntN(len(open))
					tag := open[i]
					open = append(open[:i], open[i+1:]...)
					r := Response{Data: rng.Uint32()}
					p.Complete(tag, r)
					m.fifo = append(m.fifo, Completion{Tag: tag, Resp: r})
				}
			case 3:
				if has := p.HasCompletion(); has != (m.visible > 0) {
					t.Fatalf("%s: HasCompletion = %v with %d visible", what, has, m.visible)
				}
				c, ok := p.TakeCompletion()
				m.take(t, what, c, ok)
				if ok {
					delivered++
				}
			case 4:
				if err := k.Step(); err != nil {
					t.Fatal(err)
				}
				m.visible = len(m.fifo)
			}
			if p.Outstanding() != issued-delivered {
				t.Fatalf("%s: %d outstanding, want %d", what, p.Outstanding(), issued-delivered)
			}
			if has := p.HasCompletion(); has != (m.visible > 0) {
				t.Fatalf("%s: HasCompletion = %v with %d visible", what, has, m.visible)
			}
		}
	}
}

// inOrderModel is the delivery contract of an in-order port: a
// completion published before the last kernel step is visible, and the
// visible completion of the oldest undelivered tag is the one
// deliverable.
type inOrderModel struct {
	published map[Tag]Response // completed this cycle
	visible   map[Tag]Response
	delivered Tag
}

// head returns the completion the model says is deliverable.
func (m *inOrderModel) head() (Completion, bool) {
	resp, ok := m.visible[m.delivered+1]
	return Completion{Tag: m.delivered + 1, Resp: resp}, ok
}

// TestInOrderDelivery drives in-order ports of depth 1–8 through seeded
// random interleavings of Issue, Pop, Complete (in any order),
// TakeCompletion and kernel steps, and checks every delivered (tag,
// response) against a model that releases visible completions in issue
// order. HasCompletion and PeekCompletion must agree with the model
// after every operation, which holds the port's poll to its contract
// whether or not anything was published since the last one.
func TestInOrderDelivery(t *testing.T) {
	for seed := uint64(0); seed < 64; seed++ {
		rng := rand.New(rand.NewPCG(seed, 11))
		depth := 1 + rng.IntN(8)
		k := sim.New()
		p := NewPort(k, "p", PortConfig{Depth: depth})
		m := inOrderModel{published: map[Tag]Response{}, visible: map[Tag]Response{}}
		var open []Tag
		issued := 0
		for op := 0; op < 2000; op++ {
			what := fmt.Sprintf("seed %d depth %d op %d", seed, depth, op)
			switch rng.IntN(5) {
			case 0:
				if can := issued-int(m.delivered) < depth; p.CanIssue() != can {
					t.Fatalf("%s: CanIssue = %v with %d outstanding", what, !can, issued-int(m.delivered))
				}
				if p.CanIssue() {
					if tag := p.Issue(Request{Op: OpRead, VPtr: uint32(op)}); tag != Tag(issued+1) {
						t.Fatalf("%s: issued tag %d, want %d", what, tag, issued+1)
					}
					issued++
				}
			case 1:
				if tx, ok := p.Pop(); ok {
					open = append(open, tx.Tag)
				}
			case 2:
				if len(open) > 0 {
					i := rng.IntN(len(open))
					tag := open[i]
					open = append(open[:i], open[i+1:]...)
					r := Response{Data: rng.Uint32()}
					p.Complete(tag, r)
					m.published[tag] = r
				}
			case 3:
				want, wantOK := m.head()
				c, ok := p.TakeCompletion()
				if ok != wantOK || ok && (c.Tag != want.Tag || c.Resp.Data != want.Resp.Data) {
					t.Fatalf("%s: delivered %+v/%v, want %+v/%v", what, c, ok, want, wantOK)
				}
				if ok {
					delete(m.visible, c.Tag)
					m.delivered++
				}
			case 4:
				if err := k.Step(); err != nil {
					t.Fatal(err)
				}
				maps.Copy(m.visible, m.published)
				clear(m.published)
			}
			want, wantOK := m.head()
			if has := p.HasCompletion(); has != wantOK {
				t.Fatalf("%s: HasCompletion = %v, model says %v", what, has, wantOK)
			}
			if c, ok := p.PeekCompletion(); ok != wantOK || ok && (c.Tag != want.Tag || c.Resp.Data != want.Resp.Data) {
				t.Fatalf("%s: PeekCompletion = %+v/%v, want %+v/%v", what, c, ok, want, wantOK)
			}
			if p.Outstanding() != issued-int(m.delivered) {
				t.Fatalf("%s: %d outstanding, want %d", what, p.Outstanding(), issued-int(m.delivered))
			}
		}
	}
}

// TestPortWalkStatePin pins the section bytes of an out-of-order port
// holding a drained-undelivered completion (tag 2) and an undrained one
// (tag 3) beside a request in service (tag 1) and a queued one (tag 4),
// and checks that loading them into a fresh port saves the same bytes
// and delivers the same completions.
func TestPortWalkStatePin(t *testing.T) {
	build := func() (*sim.Kernel, *Port) {
		k := sim.New()
		return k, NewPort(k, "p", PortConfig{Depth: 4, OutOfOrder: true})
	}
	k, p := build()
	for i := range 3 {
		p.Issue(Request{Op: OpReadBurst, VPtr: uint32(0x10 * (i + 1)), Dim: 2})
	}
	if err := k.Step(); err != nil {
		t.Fatal(err)
	}
	for range 3 {
		p.Pop()
	}
	p.Complete(2, Response{Burst: []uint32{0xA, 0xB}})
	if err := k.Step(); err != nil {
		t.Fatal(err)
	}
	if !p.HasCompletion() { // drains tag 2
		t.Fatal("tag 2 not deliverable")
	}
	p.Complete(3, Response{Data: 0x33})
	p.Issue(Request{Op: OpWrite, VPtr: 0x40, Data: 0x44})
	if err := k.Step(); err != nil {
		t.Fatal(err)
	}
	save := func(p *Port) string {
		w := snapshot.NewWriter()
		w.Save("port", p)
		data, err := w.Finish()
		if err != nil {
			t.Fatal(err)
		}
		return hex.EncodeToString(data)
	}
	const pin = "4d50534e415000010200000004000000706f7274b800000001000000700400000000000000010400000000000000030000000000000002000000000000000100000000000000000000000000000004000000000000000200000000000000040000000000000001000000000000000040000000440000000000000000000000000000000000000000000003000000000000000033000000000000000000000001000000010000000000000000000000010000000200000000000000000000000000000000020000000a0000000b000000e41e56fb"
	got := save(p)
	if got != pin {
		t.Errorf("section bytes changed:\n got %s\nwant %s", got, pin)
	}
	data, _ := hex.DecodeString(got)
	f, err := snapshot.Read(data)
	if err != nil {
		t.Fatal(err)
	}
	_, q := build()
	if err := f.Load("port", q); err != nil {
		t.Fatal(err)
	}
	if err := q.Check(); err != nil {
		t.Fatal(err)
	}
	if again := save(q); again != got {
		t.Errorf("restored port saves different bytes:\n got %s\nwant %s", again, got)
	}
	for _, want := range []Tag{2, 3} {
		if c, ok := q.TakeCompletion(); !ok || c.Tag != want {
			t.Fatalf("restored port delivered %+v/%v, want tag %d", c, ok, want)
		}
	}
	if _, ok := q.TakeCompletion(); ok {
		t.Fatal("restored port delivered a third completion")
	}
}

// step advances k one cycle.
func step(t *testing.T, k *sim.Kernel) {
	t.Helper()
	if err := k.Step(); err != nil {
		t.Fatal(err)
	}
}

// parkBehindOpen brings a fresh depth-4 in-order port to the state where
// tags 3 and 4 completed early and wait in reorder while tag 2 is still
// open; tag 1 was delivered and tag 5, which reuses its slot, is queued.
// Tag n's response carries data n*0x11.
func parkBehindOpen(t *testing.T, k *sim.Kernel, p *Port) {
	t.Helper()
	for i := range 4 {
		p.Issue(Request{Op: OpRead, VPtr: uint32(0x10 * (i + 1))})
	}
	step(t, k)
	for range 4 {
		p.Pop()
	}
	for _, tag := range []Tag{4, 1, 3} {
		p.Complete(tag, Response{Data: uint32(tag) * 0x11})
	}
	step(t, k)
	if c, ok := p.TakeCompletion(); !ok || c.Tag != 1 {
		t.Fatalf("delivered %+v/%v, want tag 1", c, ok)
	}
	if p.HasCompletion() { // drains 3 and 4 into reorder
		t.Fatal("tag 3 deliverable while tag 2 is open")
	}
	p.Issue(Request{Op: OpWrite, VPtr: 0x50, Data: 0x55})
	step(t, k)
}

// TestPortWalkStateTablePins pins the section bytes of the two ports
// whose open and reorder tables hold the shapes that share a slot index
// modulo the depth, and checks that loading each into a fresh port
// saves the same bytes and delivers the same completions.
//
//   - in-order, depth 4: parkBehindOpen's tags 3 and 4 waiting in
//     reorder behind open tag 2.
//   - out-of-order, depth 4: the live set {1, 5, 6, 7} is open, so tags
//     1 and 5 both belong in slot 1.
func TestPortWalkStateTablePins(t *testing.T) {
	for _, tc := range []struct {
		name string
		ooo  bool
		// drive brings a fresh port to the pinned state.
		drive func(t *testing.T, k *sim.Kernel, p *Port)
		// finish completes what the pinned state leaves in service.
		finish []Tag
		// deliveries are the tags the restored port then delivers.
		deliveries []Tag
		pin        string
	}{
		{
			name:       "in-order reorder {3 4} open {2}",
			drive:      parkBehindOpen,
			finish:     []Tag{2},
			deliveries: []Tag{2, 3, 4},
			pin:        "4d50534e415000010200000004000000706f7274b000000001000000700400000000000000000500000000000000040000000000000003000000000000000300000000000000010000000000000005000000000000000300000000000000050000000000000001000000000000000050000000550000000000000000000000000000000000000000000001000000020000000000000002000000030000000000000000330000000000000000000000040000000000000000440000000000000000000000000000009e9572f8",
		},
		{
			name: "out-of-order open {1 5 6 7}",
			ooo:  true,
			drive: func(t *testing.T, k *sim.Kernel, p *Port) {
				for range 4 {
					p.Issue(Request{Op: OpRead})
				}
				step(t, k)
				for range 4 {
					p.Pop()
				}
				for _, tag := range []Tag{2, 3, 4} {
					p.Complete(tag, Response{Data: uint32(tag) * 0x11})
				}
				step(t, k)
				for range 3 {
					p.TakeCompletion()
				}
				for i := range 3 {
					p.Issue(Request{Op: OpRead, VPtr: uint32(0x50 + 0x10*i)})
				}
				step(t, k)
				for range 3 {
					p.Pop()
				}
			},
			finish:     []Tag{6, 1, 7, 5},
			deliveries: []Tag{6, 1, 7, 5},
			pin:        "4d50534e415000010200000004000000706f7274720000000100000070040000000000000001070000000000000007000000000000000300000000000000030000000000000003000000000000000700000000000000030000000000000004000000010000000000000005000000000000000600000000000000070000000000000000000000000000006121eb9a",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			build := func() (*sim.Kernel, *Port) {
				k := sim.New()
				return k, NewPort(k, "p", PortConfig{Depth: 4, OutOfOrder: tc.ooo})
			}
			save := func(p *Port) string {
				w := snapshot.NewWriter()
				w.Save("port", p)
				data, err := w.Finish()
				if err != nil {
					t.Fatal(err)
				}
				return hex.EncodeToString(data)
			}
			k, p := build()
			tc.drive(t, k, p)
			got := save(p)
			if got != tc.pin {
				t.Errorf("section bytes changed:\n got %s\nwant %s", got, tc.pin)
			}
			data, _ := hex.DecodeString(got)
			f, err := snapshot.Read(data)
			if err != nil {
				t.Fatal(err)
			}
			k, q := build()
			if err := f.Load("port", q); err != nil {
				t.Fatal(err)
			}
			if err := q.Check(); err != nil {
				t.Fatal(err)
			}
			if again := save(q); again != got {
				t.Errorf("restored port saves different bytes:\n got %s\nwant %s", again, got)
			}
			for _, tag := range tc.finish {
				q.Complete(tag, Response{Data: uint32(tag) * 0x11})
			}
			step(t, k)
			for _, want := range tc.deliveries {
				if c, ok := q.TakeCompletion(); !ok || c.Tag != want || c.Resp.Data != uint32(want)*0x11 {
					t.Fatalf("restored port delivered %+v/%v, want tag %d", c, ok, want)
				}
			}
			if c, ok := q.TakeCompletion(); ok {
				t.Fatalf("restored port delivered %+v beyond the pinned ones", c)
			}
		})
	}
}
