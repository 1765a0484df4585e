package bus

import (
	"testing"

	"repro/internal/sim"
)

// buildBusSystem wires n masters and m echo slaves through a shared Bus
// and returns the masters plus the kernel and bus for inspection.
func buildBusSystem(t *testing.T, nMasters, nSlaves, slaveLatency int, reqsFor func(m int) []Request) (*sim.Kernel, *Bus, []*scriptMaster, []*echoSlave) {
	t.Helper()
	k := sim.New()
	var mLinks, sLinks []*Port
	var masters []*scriptMaster
	var slaves []*echoSlave
	for i := 0; i < nMasters; i++ {
		l := NewPort(k, "m"+string(rune('0'+i)), PortConfig{})
		mLinks = append(mLinks, l)
		sm := &scriptMaster{name: "master", link: l, reqs: reqsFor(i)}
		masters = append(masters, sm)
		k.Add(sm)
	}
	for i := 0; i < nSlaves; i++ {
		l := NewPort(k, "s"+string(rune('0'+i)), PortConfig{})
		sLinks = append(sLinks, l)
		es := &echoSlave{name: "slave", link: l, latency: slaveLatency}
		slaves = append(slaves, es)
		k.Add(es)
	}
	b := NewBus(k, "bus", mLinks, sLinks, NewRoundRobin())
	return k, b, masters, slaves
}

func allDone(ms []*scriptMaster) func() bool {
	return func() bool {
		for _, m := range ms {
			if !m.Done() {
				return false
			}
		}
		return true
	}
}

func TestBusSingleMasterRead(t *testing.T) {
	k, b, ms, _ := buildBusSystem(t, 1, 1, 0, func(int) []Request {
		return []Request{{Op: OpRead, SM: 0, VPtr: 9}}
	})
	if _, err := k.RunUntil(allDone(ms), 100); err != nil {
		t.Fatal(err)
	}
	if got := ms[0].Responses[0].Data; got != 10 {
		t.Errorf("Data = %d, want 10", got)
	}
	st := b.Stats()
	if st.Transactions != 1 {
		t.Errorf("Transactions = %d, want 1", st.Transactions)
	}
	if st.PerOp[OpRead] != 1 {
		t.Errorf("PerOp[READ] = %d, want 1", st.PerOp[OpRead])
	}
	if st.PerSlave[0] != 1 {
		t.Errorf("PerSlave[0] = %d, want 1", st.PerSlave[0])
	}
}

func TestBusRoutesBySMAddr(t *testing.T) {
	k, _, ms, slaves := buildBusSystem(t, 1, 3, 0, func(int) []Request {
		return []Request{
			{Op: OpRead, SM: 2, VPtr: 1},
			{Op: OpRead, SM: 0, VPtr: 2},
			{Op: OpRead, SM: 1, VPtr: 3},
		}
	})
	if _, err := k.RunUntil(allDone(ms), 200); err != nil {
		t.Fatal(err)
	}
	if n := len(slaves[0].Served); n != 1 || slaves[0].Served[0].VPtr != 2 {
		t.Errorf("slave0 served %v", slaves[0].Served)
	}
	if n := len(slaves[1].Served); n != 1 || slaves[1].Served[0].VPtr != 3 {
		t.Errorf("slave1 served %v", slaves[1].Served)
	}
	if n := len(slaves[2].Served); n != 1 || slaves[2].Served[0].VPtr != 1 {
		t.Errorf("slave2 served %v", slaves[2].Served)
	}
}

func TestBusNoSlaveError(t *testing.T) {
	k, b, ms, _ := buildBusSystem(t, 1, 1, 0, func(int) []Request {
		return []Request{{Op: OpRead, SM: 7, VPtr: 1}}
	})
	if _, err := k.RunUntil(allDone(ms), 100); err != nil {
		t.Fatal(err)
	}
	if got := ms[0].Responses[0].Err; got != ErrNoSlave {
		t.Errorf("Err = %v, want ErrNoSlave", got)
	}
	if b.Stats().NoSlave != 1 {
		t.Errorf("NoSlave = %d, want 1", b.Stats().NoSlave)
	}
}

func TestBusStampsMasterID(t *testing.T) {
	k, _, ms, slaves := buildBusSystem(t, 3, 1, 0, func(m int) []Request {
		return []Request{{Op: OpWrite, SM: 0, VPtr: uint32(m), Data: 1, Master: 99}}
	})
	if _, err := k.RunUntil(allDone(ms), 300); err != nil {
		t.Fatal(err)
	}
	for _, served := range slaves[0].Served {
		if served.Master != int(served.VPtr) {
			t.Errorf("master stamp %d, want %d (bus must overwrite)", served.Master, served.VPtr)
		}
	}
}

func TestBusRoundRobinFairUnderSaturation(t *testing.T) {
	const perMaster = 20
	reqs := func(m int) []Request {
		rs := make([]Request, perMaster)
		for i := range rs {
			rs[i] = Request{Op: OpRead, SM: 0, VPtr: uint32(m)}
		}
		return rs
	}
	k, b, ms, _ := buildBusSystem(t, 4, 1, 1, reqs)
	if _, err := k.RunUntil(allDone(ms), 20000); err != nil {
		t.Fatal(err)
	}
	st := b.Stats()
	for i, g := range st.PerMaster {
		if g != perMaster {
			t.Errorf("PerMaster[%d] = %d, want %d", i, g, perMaster)
		}
	}
	if st.Transactions != 4*perMaster {
		t.Errorf("Transactions = %d, want %d", st.Transactions, 4*perMaster)
	}
}

func TestBusSerializesTransactions(t *testing.T) {
	// Two masters to two different slaves: on a shared bus the second
	// transaction cannot start before the first completes.
	k, b, ms, _ := buildBusSystem(t, 2, 2, 5, func(m int) []Request {
		return []Request{{Op: OpRead, SM: m, VPtr: uint32(m)}}
	})
	if _, err := k.RunUntil(allDone(ms), 1000); err != nil {
		t.Fatal(err)
	}
	st := b.Stats()
	// Busy cycles must cover both transactions' wire words + both slave
	// latencies serialized, i.e. strictly more than one transaction's cost.
	oneTxn := uint64(2 + 5 + 1 + 2) // req words + latency + resp word + handshake slack
	if st.BusyCycles < 2*oneTxn-4 {
		t.Errorf("BusyCycles = %d, too low for serialized transactions (one ≈ %d)", st.BusyCycles, oneTxn)
	}
	done0, done1 := ms[0].DoneAt[0], ms[1].DoneAt[0]
	gap := int64(done1) - int64(done0)
	if gap < 0 {
		gap = -gap
	}
	if gap < int64(5) {
		t.Errorf("completions %d and %d overlap; bus must serialize", done0, done1)
	}
}

func TestCrossbarParallelism(t *testing.T) {
	// The same two-master/two-slave workload on a crossbar overlaps; the
	// completion gap collapses compared to the shared bus.
	k := sim.New()
	var mLinks, sLinks []*Port
	var masters []*scriptMaster
	for i := 0; i < 2; i++ {
		l := NewPort(k, "m", PortConfig{})
		mLinks = append(mLinks, l)
		sm := &scriptMaster{name: "master", link: l, reqs: []Request{{Op: OpRead, SM: i, VPtr: uint32(i)}}}
		masters = append(masters, sm)
		k.Add(sm)
	}
	for i := 0; i < 2; i++ {
		l := NewPort(k, "s", PortConfig{})
		sLinks = append(sLinks, l)
		k.Add(&echoSlave{name: "slave", link: l, latency: 5})
	}
	x := NewCrossbar(k, "xbar", mLinks, sLinks, func() Arbiter { return NewRoundRobin() })
	if _, err := k.RunUntil(allDone(masters), 1000); err != nil {
		t.Fatal(err)
	}
	if masters[0].DoneAt[0] != masters[1].DoneAt[0] {
		t.Errorf("crossbar completions %d vs %d, want simultaneous",
			masters[0].DoneAt[0], masters[1].DoneAt[0])
	}
	st := x.Stats()
	if st.Transactions != 2 {
		t.Errorf("Transactions = %d, want 2", st.Transactions)
	}
}

func TestCrossbarNoSlave(t *testing.T) {
	k := sim.New()
	ml := NewPort(k, "m", PortConfig{})
	sl := NewPort(k, "s", PortConfig{})
	sm := &scriptMaster{name: "m", link: ml, reqs: []Request{{Op: OpRead, SM: 5}}}
	k.Add(sm)
	k.Add(&echoSlave{name: "s", link: sl})
	NewCrossbar(k, "xbar", []*Port{ml}, []*Port{sl}, func() Arbiter { return NewFixedPriority() })
	if _, err := k.RunUntil(sm.Done, 100); err != nil {
		t.Fatal(err)
	}
	if got := sm.Responses[0].Err; got != ErrNoSlave {
		t.Errorf("Err = %v, want ErrNoSlave", got)
	}
}

func TestCrossbarContentionSameSlave(t *testing.T) {
	// Two masters to the same slave must still serialize on a crossbar.
	k := sim.New()
	var mLinks []*Port
	var masters []*scriptMaster
	for i := 0; i < 2; i++ {
		l := NewPort(k, "m", PortConfig{})
		mLinks = append(mLinks, l)
		sm := &scriptMaster{name: "m", link: l, reqs: []Request{{Op: OpRead, SM: 0, VPtr: uint32(i)}}}
		masters = append(masters, sm)
		k.Add(sm)
	}
	sl := NewPort(k, "s", PortConfig{})
	k.Add(&echoSlave{name: "s", link: sl, latency: 5})
	NewCrossbar(k, "xbar", mLinks, []*Port{sl}, func() Arbiter { return NewRoundRobin() })
	if _, err := k.RunUntil(allDone(masters), 1000); err != nil {
		t.Fatal(err)
	}
	if masters[0].DoneAt[0] == masters[1].DoneAt[0] {
		t.Error("same-slave transactions completed simultaneously; must serialize")
	}
}

func TestOpAndErrStrings(t *testing.T) {
	cases := []struct {
		got, want string
	}{
		{OpRead.String(), "READ"},
		{OpAlloc.String(), "ALLOC"},
		{OpWriteBurst.String(), "WRITEN"},
		{Op(200).String(), "Op(200)"},
		{OK.String(), "OK"},
		{ErrCapacity.String(), "CAPACITY"},
		{ErrCode(200).String(), "ErrCode(200)"},
		{U8.String(), "u8"},
		{I16.String(), "i16"},
		{DataType(200).String(), "DataType(200)"},
	}
	for _, c := range cases {
		if c.got != c.want {
			t.Errorf("got %q, want %q", c.got, c.want)
		}
	}
}

func TestDataTypeSizes(t *testing.T) {
	cases := map[DataType]uint32{U8: 1, U16: 2, I16: 2, U32: 4, I32: 4}
	for dt, want := range cases {
		if got := dt.Size(); got != want {
			t.Errorf("%v.Size() = %d, want %d", dt, got, want)
		}
	}
}

func TestRequestWireWords(t *testing.T) {
	cases := []struct {
		r    Request
		want uint32
	}{
		{Request{Op: OpRead}, 2},
		{Request{Op: OpWrite}, 3},
		{Request{Op: OpAlloc}, 3},
		{Request{Op: OpFree}, 2},
		{Request{Op: OpReserve}, 2},
		{Request{Op: OpRelease}, 2},
		{Request{Op: OpReadBurst, Dim: 16}, 3},
		{Request{Op: OpWriteBurst, Burst: make([]uint32, 8)}, 11},
	}
	for _, c := range cases {
		if got := c.r.WireWords(); got != c.want {
			t.Errorf("%v WireWords = %d, want %d", c.r.Op, got, c.want)
		}
	}
	if got := (Response{Burst: make([]uint32, 4)}).WireWords(); got != 5 {
		t.Errorf("Response WireWords = %d, want 5", got)
	}
}

func TestRequestResponseStrings(t *testing.T) {
	r := Request{Op: OpAlloc, SM: 1, Dim: 8, DType: U32, Master: 2}
	if got := r.String(); got == "" {
		t.Error("empty request string")
	}
	for _, r := range []Request{
		{Op: OpWrite, VPtr: 4, Data: 5},
		{Op: OpWriteBurst, Burst: []uint32{1}},
		{Op: OpReadBurst, Dim: 2},
		{Op: OpRead, VPtr: 1},
	} {
		if r.String() == "" {
			t.Errorf("empty string for %v", r.Op)
		}
	}
	if got := (Response{Err: ErrBadVPtr}).String(); got != "ERR(BAD_VPTR)" {
		t.Errorf("Response.String() = %q", got)
	}
	if got := (Response{Burst: []uint32{1, 2}}).String(); got != "OK n=2" {
		t.Errorf("Response.String() = %q", got)
	}
	if got := (Response{Data: 1}).String(); got == "" {
		t.Error("empty response string")
	}
}
