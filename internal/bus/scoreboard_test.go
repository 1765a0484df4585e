package bus

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/sim"
)

// TestBusScoreboardProperty drives random system shapes (masters ×
// slaves × latencies × request counts) through the shared bus and
// checks end-to-end delivery: every master receives exactly its own
// responses, in order, with the data its targets computed — no drops,
// duplicates or cross-wiring — and the bus accounts every transaction.
func TestBusScoreboardProperty(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nMasters := 1 + rng.Intn(4)
		nSlaves := 1 + rng.Intn(3)
		latency := rng.Intn(4)
		perMaster := 5 + rng.Intn(20)

		k := sim.New()
		var mLinks, sLinks []*Port
		var masters []*scriptMaster
		for i := 0; i < nMasters; i++ {
			l := NewPort(k, "m", PortConfig{})
			mLinks = append(mLinks, l)
			reqs := make([]Request, perMaster)
			for j := range reqs {
				// Unique VPtr per (master, request) lets the response be
				// attributed: echoSlave answers VPtr+1.
				reqs[j] = Request{
					Op:   OpRead,
					SM:   rng.Intn(nSlaves),
					VPtr: uint32(i*1000 + j),
				}
			}
			sm := &scriptMaster{name: "m", link: l, reqs: reqs}
			masters = append(masters, sm)
			k.Add(sm)
		}
		for i := 0; i < nSlaves; i++ {
			l := NewPort(k, "s", PortConfig{})
			sLinks = append(sLinks, l)
			k.Add(&echoSlave{name: "s", link: l, latency: latency})
		}
		var arb Arbiter
		if rng.Intn(2) == 0 {
			arb = NewRoundRobin()
		} else {
			arb = NewFixedPriority()
		}
		b := NewBus(k, "bus", mLinks, sLinks, arb)

		if _, err := k.RunUntil(allDone(masters), 1_000_000); err != nil {
			t.Fatalf("seed %d (%dm×%ds lat=%d n=%d): %v", seed, nMasters, nSlaves, latency, perMaster, err)
		}
		for mi, m := range masters {
			if len(m.Responses) != perMaster {
				t.Fatalf("seed %d: master %d got %d responses, want %d", seed, mi, len(m.Responses), perMaster)
			}
			for j, resp := range m.Responses {
				want := uint32(mi*1000+j) + 1
				if resp.Err != OK || resp.Data != want {
					t.Fatalf("seed %d: master %d resp %d = %v data=%d, want OK data=%d",
						seed, mi, j, resp.Err, resp.Data, want)
				}
			}
			// Completion cycles strictly increase: responses arrive in
			// issue order for a single-outstanding master.
			for j := 1; j < len(m.DoneAt); j++ {
				if m.DoneAt[j] <= m.DoneAt[j-1] {
					t.Fatalf("seed %d: master %d responses out of order", seed, mi)
				}
			}
		}
		if got, want := b.Stats().Transactions, uint64(nMasters*perMaster); got != want {
			t.Fatalf("seed %d: bus counted %d transactions, want %d", seed, got, want)
		}
	}
}

// taggedMaster issues a scripted request list as aggressively as its
// credits allow and records every delivered completion, checking tag
// attribution against its own issue log.
type taggedMaster struct {
	name string
	port *Port
	reqs []Request

	next     int
	issued   map[Tag]uint32 // tag → VPtr issued under it
	Got      []Completion
	BadMatch int
}

func (m *taggedMaster) Name() string { return m.name }

func (m *taggedMaster) Done() bool { return len(m.Got) == len(m.reqs) }

func (m *taggedMaster) Tick(cycle uint64) {
	for tag, resp := range m.port.Completions() {
		vptr, ok := m.issued[tag]
		if !ok || (resp.Err == OK && resp.Data != vptr+1) {
			m.BadMatch++
		}
		delete(m.issued, tag)
		m.Got = append(m.Got, Completion{Tag: tag, Resp: resp})
	}
	for m.next < len(m.reqs) && m.port.CanIssue() {
		tag := m.port.Issue(m.reqs[m.next])
		m.issued[tag] = m.reqs[m.next].VPtr
		m.next++
	}
}

// TestPortScoreboardProperty drives random system shapes across the
// whole protocol matrix — masters × slaves × latencies × outstanding
// depth × {occupied, split} × {bus, crossbar} × {in-order,
// out-of-order} — with fully pipelined tagged masters, and checks
// end-to-end delivery: every master receives exactly one completion per
// issued tag carrying the data its target computed, in issue order when
// the port is in-order, and the interconnect accounts every
// transaction.
func TestPortScoreboardProperty(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(1000 + seed))
		nMasters := 1 + rng.Intn(4)
		nSlaves := 1 + rng.Intn(3)
		latency := rng.Intn(4)
		depth := 1 + rng.Intn(4)
		split := rng.Intn(2) == 0
		ooo := rng.Intn(2) == 0
		xbar := rng.Intn(2) == 0
		perMaster := 5 + rng.Intn(20)

		k := sim.New()
		var mPorts, sPorts []*Port
		var masters []*taggedMaster
		for i := 0; i < nMasters; i++ {
			p := NewPort(k, "m", PortConfig{Depth: depth, OutOfOrder: ooo})
			mPorts = append(mPorts, p)
			reqs := make([]Request, perMaster)
			for j := range reqs {
				reqs[j] = Request{Op: OpRead, SM: rng.Intn(nSlaves), VPtr: uint32(i*1000 + j)}
			}
			tm := &taggedMaster{name: "m", port: p, reqs: reqs, issued: map[Tag]uint32{}}
			masters = append(masters, tm)
			k.Add(tm)
		}
		for i := 0; i < nSlaves; i++ {
			p := NewPort(k, "s", PortConfig{Depth: depth})
			sPorts = append(sPorts, p)
			k.Add(&echoSlave{name: "s", link: p, latency: latency})
		}
		var inter interface{ Stats() Stats }
		if xbar {
			x := NewCrossbar(k, "xbar", mPorts, sPorts, func() Arbiter { return NewRoundRobin() })
			x.Split = split
			inter = x
		} else {
			b := NewBus(k, "bus", mPorts, sPorts, NewRoundRobin())
			b.Split = split
			b.RespArb = NewRoundRobin()
			inter = b
		}

		done := func() bool {
			for _, m := range masters {
				if !m.Done() {
					return false
				}
			}
			return true
		}
		cfg := func() string {
			return fmt.Sprintf("seed %d (%dm×%ds lat=%d d=%d split=%v ooo=%v xbar=%v n=%d)",
				seed, nMasters, nSlaves, latency, depth, split, ooo, xbar, perMaster)
		}
		if _, err := k.RunUntil(done, 1_000_000); err != nil {
			t.Fatalf("%s: %v", cfg(), err)
		}
		for mi, m := range masters {
			if m.BadMatch != 0 {
				t.Fatalf("%s: master %d: %d mis-attributed completions", cfg(), mi, m.BadMatch)
			}
			if len(m.Got) != perMaster {
				t.Fatalf("%s: master %d got %d completions, want %d", cfg(), mi, len(m.Got), perMaster)
			}
			if !ooo {
				for j := 1; j < len(m.Got); j++ {
					if m.Got[j].Tag <= m.Got[j-1].Tag {
						t.Fatalf("%s: master %d in-order port delivered tags %d after %d",
							cfg(), mi, m.Got[j].Tag, m.Got[j-1].Tag)
					}
				}
			}
			for _, c := range m.Got {
				if c.Resp.Err != OK {
					t.Fatalf("%s: master %d completion error %v", cfg(), mi, c.Resp.Err)
				}
			}
		}
		if got, want := inter.Stats().Transactions, uint64(nMasters*perMaster); got != want {
			t.Fatalf("%s: interconnect counted %d transactions, want %d", cfg(), got, want)
		}
	}
}
