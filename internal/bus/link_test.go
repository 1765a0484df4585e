package bus

import (
	"testing"

	"repro/internal/sim"
)

// echoSlave serves any request after a fixed latency, echoing VPtr+1 in
// Data. It is a minimal stand-in for a memory module: it pops its port's
// request queue one transaction at a time and completes under the popped
// tag.
type echoSlave struct {
	name    string
	link    *Port
	latency int

	busy   int
	cur    Request
	curTag Tag
	Served []Request
}

func (s *echoSlave) Name() string { return s.name }

func (s *echoSlave) Tick(cycle uint64) {
	if s.busy > 0 {
		s.busy--
		if s.busy == 0 {
			s.link.Complete(s.curTag, Response{Err: OK, Data: s.cur.VPtr + 1})
		}
		return
	}
	if tx, ok := s.link.Pop(); ok {
		s.cur = tx.Req
		s.curTag = tx.Tag
		s.Served = append(s.Served, tx.Req)
		if s.latency <= 0 {
			s.link.Complete(tx.Tag, Response{Err: OK, Data: tx.Req.VPtr + 1})
		} else {
			s.busy = s.latency
		}
	}
}

// scriptMaster issues a fixed list of requests back-to-back and records
// the cycle at which each response arrived.
type scriptMaster struct {
	name string
	link *Port
	reqs []Request

	next      int
	Responses []Response
	DoneAt    []uint64
}

func (m *scriptMaster) Name() string { return m.name }

func (m *scriptMaster) Done() bool { return len(m.Responses) == len(m.reqs) }

func (m *scriptMaster) Tick(cycle uint64) {
	if resp, ok := m.link.Response(); ok {
		m.Responses = append(m.Responses, resp)
		m.DoneAt = append(m.DoneAt, cycle)
	}
	if m.next < len(m.reqs) && m.link.CanIssue() {
		m.link.Issue(m.reqs[m.next])
		m.next++
	}
}

func TestLinkHandshakeTiming(t *testing.T) {
	k := sim.New()
	l := NewPort(k, "l", PortConfig{})
	sl := &echoSlave{name: "slave", link: l, latency: 0}
	var issued, responded uint64
	ma := &sim.FuncModule{Nm: "master", Fn: func(cycle uint64) {
		if cycle == 0 {
			l.Issue(Request{Op: OpRead, VPtr: 41})
		}
		if resp, ok := l.Response(); ok {
			responded = cycle
			if resp.Data != 42 {
				t.Errorf("Data = %d, want 42", resp.Data)
			}
		}
	}}
	issued = 0
	k.Add(ma)
	k.Add(sl)
	if err := k.Run(6); err != nil {
		t.Fatal(err)
	}
	// Issue at cycle 0 → slave latches+completes at cycle 1 → master
	// observes at cycle 2: the two-cycle registered round trip.
	if responded != issued+2 {
		t.Errorf("response at cycle %d, want %d", responded, issued+2)
	}
}

func TestLinkIssueWhileBusyPanics(t *testing.T) {
	k := sim.New()
	l := NewPort(k, "l", PortConfig{})
	defer func() {
		if recover() == nil {
			t.Error("second Issue did not panic")
		}
	}()
	l.Issue(Request{Op: OpRead})
	l.Issue(Request{Op: OpRead})
}

func TestLinkResponseConsumedOnce(t *testing.T) {
	k := sim.New()
	l := NewPort(k, "l", PortConfig{})
	sl := &echoSlave{name: "s", link: l}
	k.Add(sl)
	l.Issue(Request{Op: OpRead, VPtr: 1})
	if err := k.Run(3); err != nil {
		t.Fatal(err)
	}
	if _, ok := l.Response(); !ok {
		t.Fatal("expected a response")
	}
	if _, ok := l.Response(); ok {
		t.Error("response delivered twice")
	}
	if !l.Idle() {
		t.Error("link not idle after consumed response")
	}
}

func TestLinkTakeRequestOnce(t *testing.T) {
	k := sim.New()
	l := NewPort(k, "l", PortConfig{})
	l.Issue(Request{Op: OpWrite, VPtr: 5})
	if err := k.Step(); err != nil {
		t.Fatal(err)
	}
	if !l.Pending() {
		t.Fatal("request not visible after one cycle")
	}
	if _, ok := l.Pop(); !ok {
		t.Fatal("Pop failed")
	}
	if _, ok := l.Pop(); ok {
		t.Error("request popped twice")
	}
	if l.Pending() {
		t.Error("Pending true after pop")
	}
}

func TestLinkBackToBackTransactions(t *testing.T) {
	k := sim.New()
	l := NewPort(k, "l", PortConfig{})
	reqs := make([]Request, 5)
	for i := range reqs {
		reqs[i] = Request{Op: OpRead, VPtr: uint32(i * 10)}
	}
	m := &scriptMaster{name: "m", link: l, reqs: reqs}
	s := &echoSlave{name: "s", link: l, latency: 2}
	k.Add(m)
	k.Add(s)
	if _, err := k.RunUntil(m.Done, 200); err != nil {
		t.Fatal(err)
	}
	if len(s.Served) != 5 {
		t.Fatalf("slave served %d, want 5", len(s.Served))
	}
	for i, r := range m.Responses {
		if want := uint32(i*10 + 1); r.Data != want {
			t.Errorf("resp[%d].Data = %d, want %d", i, r.Data, want)
		}
	}
}
