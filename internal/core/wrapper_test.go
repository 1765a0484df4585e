package core

import (
	"testing"

	"repro/internal/alloc"
	"repro/internal/bus"
	"repro/internal/sim"
)

// harness drives one wrapper through its link from test code, stepping
// the kernel until each transaction completes.
type harness struct {
	t    *testing.T
	k    *sim.Kernel
	link *bus.Port
	w    *Wrapper
}

func newHarness(t *testing.T, cfg Config) *harness {
	t.Helper()
	k := sim.New()
	link := bus.NewPort(k, "t", bus.PortConfig{})
	w, err := NewWrapper(k, cfg, link)
	if err != nil {
		t.Fatalf("NewWrapper: %v", err)
	}
	return &harness{t: t, k: k, link: link, w: w}
}

// do issues req and returns the response plus the number of cycles from
// issue to the master observing completion.
func (h *harness) do(req bus.Request) (bus.Response, uint64) {
	h.t.Helper()
	start := h.k.Cycle()
	h.link.Issue(req)
	for i := 0; i < 1_000_000; i++ {
		if err := h.k.Step(); err != nil {
			h.t.Fatal(err)
		}
		if resp, ok := h.link.Response(); ok {
			return resp, h.k.Cycle() - start
		}
	}
	h.t.Fatalf("transaction %v did not complete", req)
	return bus.Response{}, 0
}

// mustAlloc allocates and fails the test on error.
func (h *harness) mustAlloc(dim uint32, dt bus.DataType) uint32 {
	h.t.Helper()
	resp, _ := h.do(bus.Request{Op: bus.OpAlloc, Dim: dim, DType: dt})
	if resp.Err != bus.OK {
		h.t.Fatalf("alloc failed: %v", resp.Err)
	}
	return resp.VPtr
}

func TestWrapperAllocWriteReadFree(t *testing.T) {
	h := newHarness(t, Config{Delays: DefaultDelays()})
	v := h.mustAlloc(8, bus.U32)

	if resp, _ := h.do(bus.Request{Op: bus.OpWrite, VPtr: v + 4, Data: 0xCAFE}); resp.Err != bus.OK {
		t.Fatalf("write: %v", resp.Err)
	}
	resp, _ := h.do(bus.Request{Op: bus.OpRead, VPtr: v + 4})
	if resp.Err != bus.OK || resp.Data != 0xCAFE {
		t.Fatalf("read = %v data=%#x, want OK 0xCAFE", resp.Err, resp.Data)
	}
	// calloc semantics: untouched element reads zero.
	if resp, _ := h.do(bus.Request{Op: bus.OpRead, VPtr: v}); resp.Data != 0 {
		t.Errorf("fresh element = %#x, want 0", resp.Data)
	}
	if resp, _ := h.do(bus.Request{Op: bus.OpFree, VPtr: v}); resp.Err != bus.OK {
		t.Fatalf("free: %v", resp.Err)
	}
	if resp, _ := h.do(bus.Request{Op: bus.OpRead, VPtr: v}); resp.Err != bus.ErrBadVPtr {
		t.Errorf("read after free = %v, want ErrBadVPtr", resp.Err)
	}
}

func TestWrapperLatencyIsExactlyConfigured(t *testing.T) {
	// E4 foundation: observed latency = 2 (handshake) + Decode + op.
	cases := []struct {
		name   string
		delays DelayParams
		req    func(h *harness) bus.Request
		want   uint64
	}{
		{
			"zero-delay read",
			DelayParams{},
			func(h *harness) bus.Request { return bus.Request{Op: bus.OpRead, VPtr: h.mustAlloc(4, bus.U32)} },
			2,
		},
		{
			"decode 3 read 2",
			DelayParams{Decode: 3, Read: 2},
			func(h *harness) bus.Request { return bus.Request{Op: bus.OpRead, VPtr: h.mustAlloc(4, bus.U32)} },
			2 + 3 + 2,
		},
		{
			"alloc base 4",
			DelayParams{Alloc: 4},
			func(h *harness) bus.Request { return bus.Request{Op: bus.OpAlloc, Dim: 1, DType: bus.U8} },
			2 + 4,
		},
		{
			"alloc size-dependent",
			DelayParams{Alloc: 4, AllocPerKB: 2},
			func(h *harness) bus.Request { return bus.Request{Op: bus.OpAlloc, Dim: 3000, DType: bus.U8} },
			2 + 4 + 2*3, // ceil(3000/1024)=3 KiB
		},
		{
			"write 5",
			DelayParams{Write: 5},
			func(h *harness) bus.Request {
				return bus.Request{Op: bus.OpWrite, VPtr: h.mustAlloc(4, bus.U32), Data: 1}
			},
			2 + 5,
		},
		{
			"free 7",
			DelayParams{Free: 7},
			func(h *harness) bus.Request { return bus.Request{Op: bus.OpFree, VPtr: h.mustAlloc(4, bus.U32)} },
			2 + 7,
		},
		{
			"burst per-element",
			DelayParams{BurstBase: 2, BurstPerElem: 3},
			func(h *harness) bus.Request {
				return bus.Request{Op: bus.OpReadBurst, VPtr: h.mustAlloc(16, bus.U32), Dim: 4}
			},
			2 + 2 + 3*4,
		},
		{
			"data-dependent hook",
			DelayParams{Read: 1, DataDep: func(r bus.Request) uint32 {
				if r.Op == bus.OpRead {
					return 9
				}
				return 0
			}},
			func(h *harness) bus.Request { return bus.Request{Op: bus.OpRead, VPtr: h.mustAlloc(4, bus.U32)} },
			2 + 1 + 9,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			h := newHarness(t, Config{Delays: c.delays})
			req := c.req(h)
			_, cycles := h.do(req)
			if cycles != c.want {
				t.Errorf("latency = %d cycles, want %d", cycles, c.want)
			}
		})
	}
}

func TestWrapperDeterministicCycleCounts(t *testing.T) {
	run := func() uint64 {
		h := newHarness(t, Config{Delays: DefaultDelays(), TotalSize: 1 << 20})
		v := h.mustAlloc(64, bus.I16)
		for i := uint32(0); i < 64; i++ {
			h.do(bus.Request{Op: bus.OpWrite, VPtr: v + 2*i, Data: i})
		}
		h.do(bus.Request{Op: bus.OpReadBurst, VPtr: v, Dim: 64})
		h.do(bus.Request{Op: bus.OpFree, VPtr: v})
		return h.k.Cycle()
	}
	if a, b := run(), run(); a != b {
		t.Errorf("replay cycle counts differ: %d vs %d", a, b)
	}
}

func TestWrapperBurstRoundTrip(t *testing.T) {
	h := newHarness(t, Config{Delays: DefaultDelays()})
	v := h.mustAlloc(16, bus.U16)
	payload := []uint32{10, 20, 30, 40, 50}
	if resp, _ := h.do(bus.Request{Op: bus.OpWriteBurst, VPtr: v + 2*4, Burst: payload}); resp.Err != bus.OK {
		t.Fatalf("write burst: %v", resp.Err)
	}
	resp, _ := h.do(bus.Request{Op: bus.OpReadBurst, VPtr: v + 2*4, Dim: 5})
	if resp.Err != bus.OK {
		t.Fatalf("read burst: %v", resp.Err)
	}
	for i, want := range payload {
		if resp.Burst[i] != want {
			t.Errorf("burst[%d] = %d, want %d", i, resp.Burst[i], want)
		}
	}
	// Scalar read sees burst-written data (same host buffer).
	if resp, _ := h.do(bus.Request{Op: bus.OpRead, VPtr: v + 2*6}); resp.Data != 30 {
		t.Errorf("scalar after burst = %d, want 30", resp.Data)
	}
}

func TestWrapperPointerArithmetic(t *testing.T) {
	// The ISS may pass any interior pointer; the wrapper resolves the
	// containing allocation and offsets the host pointer.
	h := newHarness(t, Config{Delays: DefaultDelays()})
	h.mustAlloc(10, bus.U8) // padding so the target vptr is nonzero
	v := h.mustAlloc(8, bus.U32)
	if resp, _ := h.do(bus.Request{Op: bus.OpWrite, VPtr: v + 20, Data: 77}); resp.Err != bus.OK {
		t.Fatalf("interior write: %v", resp.Err)
	}
	if resp, _ := h.do(bus.Request{Op: bus.OpRead, VPtr: v + 20}); resp.Data != 77 {
		t.Errorf("interior read = %d, want 77", resp.Data)
	}
}

func TestWrapperErrorResponses(t *testing.T) {
	h := newHarness(t, Config{Delays: DefaultDelays(), TotalSize: 64})
	v := h.mustAlloc(8, bus.U32) // 32 bytes

	cases := []struct {
		name string
		req  bus.Request
		want bus.ErrCode
	}{
		{"wild read", bus.Request{Op: bus.OpRead, VPtr: 4096}, bus.ErrBadVPtr},
		{"wild write", bus.Request{Op: bus.OpWrite, VPtr: 4096}, bus.ErrBadVPtr},
		{"wild free", bus.Request{Op: bus.OpFree, VPtr: 4096}, bus.ErrBadVPtr},
		{"interior free", bus.Request{Op: bus.OpFree, VPtr: v + 4}, bus.ErrBadVPtr},
		{"unaligned read", bus.Request{Op: bus.OpRead, VPtr: v + 2}, bus.ErrBounds},
		{"unaligned write", bus.Request{Op: bus.OpWrite, VPtr: v + 3}, bus.ErrBounds},
		{"burst overrun", bus.Request{Op: bus.OpReadBurst, VPtr: v, Dim: 9}, bus.ErrBounds},
		{"burst interior overrun", bus.Request{Op: bus.OpWriteBurst, VPtr: v + 4*6, Burst: []uint32{1, 2, 3}}, bus.ErrBounds},
		{"capacity", bus.Request{Op: bus.OpAlloc, Dim: 40, DType: bus.U8}, bus.ErrCapacity},
		{"zero-dim alloc", bus.Request{Op: bus.OpAlloc, Dim: 0, DType: bus.U8}, bus.ErrBadOp},
		{"unknown op", bus.Request{Op: bus.Op(99)}, bus.ErrBadOp},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			resp, _ := h.do(c.req)
			if resp.Err != c.want {
				t.Errorf("Err = %v, want %v", resp.Err, c.want)
			}
		})
	}
}

func TestWrapperHostFailureIsInBand(t *testing.T) {
	h := newHarness(t, Config{
		Delays: DefaultDelays(),
		Host:   &FailingAllocator{AllowAllocs: 1},
	})
	h.mustAlloc(4, bus.U8)
	resp, _ := h.do(bus.Request{Op: bus.OpAlloc, Dim: 4, DType: bus.U8})
	if resp.Err != bus.ErrHost {
		t.Fatalf("Err = %v, want ErrHost", resp.Err)
	}
	// Simulation continues: the wrapper still serves requests.
	if resp, _ := h.do(bus.Request{Op: bus.OpRead, VPtr: 0}); resp.Err != bus.OK {
		t.Errorf("read after host failure: %v, want OK", resp.Err)
	}
}

func TestWrapperReservationProtocol(t *testing.T) {
	h := newHarness(t, Config{Delays: DefaultDelays()})
	v := h.mustAlloc(4, bus.U32)
	const alice, bob = 1, 2

	if resp, _ := h.do(bus.Request{Op: bus.OpReserve, VPtr: v, Master: alice}); resp.Err != bus.OK {
		t.Fatalf("reserve: %v", resp.Err)
	}
	// Bob cannot write, free, or steal the reservation.
	if resp, _ := h.do(bus.Request{Op: bus.OpWrite, VPtr: v, Data: 1, Master: bob}); resp.Err != bus.ErrReserved {
		t.Errorf("write by bob: %v, want ErrReserved", resp.Err)
	}
	if resp, _ := h.do(bus.Request{Op: bus.OpWriteBurst, VPtr: v, Burst: []uint32{1}, Master: bob}); resp.Err != bus.ErrReserved {
		t.Errorf("burst write by bob: %v, want ErrReserved", resp.Err)
	}
	if resp, _ := h.do(bus.Request{Op: bus.OpFree, VPtr: v, Master: bob}); resp.Err != bus.ErrReserved {
		t.Errorf("free by bob: %v, want ErrReserved", resp.Err)
	}
	if resp, _ := h.do(bus.Request{Op: bus.OpReserve, VPtr: v, Master: bob}); resp.Err != bus.ErrReserved {
		t.Errorf("reserve by bob: %v, want ErrReserved", resp.Err)
	}
	// Reads are allowed by default (EnforceReadReservation off).
	if resp, _ := h.do(bus.Request{Op: bus.OpRead, VPtr: v, Master: bob}); resp.Err != bus.OK {
		t.Errorf("read by bob: %v, want OK", resp.Err)
	}
	// Alice can write and then release; then bob proceeds.
	if resp, _ := h.do(bus.Request{Op: bus.OpWrite, VPtr: v, Data: 42, Master: alice}); resp.Err != bus.OK {
		t.Errorf("write by owner: %v", resp.Err)
	}
	if resp, _ := h.do(bus.Request{Op: bus.OpRelease, VPtr: v, Master: alice}); resp.Err != bus.OK {
		t.Fatalf("release: %v", resp.Err)
	}
	if resp, _ := h.do(bus.Request{Op: bus.OpWrite, VPtr: v, Data: 43, Master: bob}); resp.Err != bus.OK {
		t.Errorf("write after release: %v, want OK", resp.Err)
	}
}

func TestWrapperEnforceReadReservation(t *testing.T) {
	h := newHarness(t, Config{Delays: DefaultDelays(), EnforceReadReservation: true})
	v := h.mustAlloc(4, bus.U32)
	h.do(bus.Request{Op: bus.OpReserve, VPtr: v, Master: 1})
	if resp, _ := h.do(bus.Request{Op: bus.OpRead, VPtr: v, Master: 2}); resp.Err != bus.ErrReserved {
		t.Errorf("read = %v, want ErrReserved (enforcement on)", resp.Err)
	}
	if resp, _ := h.do(bus.Request{Op: bus.OpReadBurst, VPtr: v, Dim: 1, Master: 2}); resp.Err != bus.ErrReserved {
		t.Errorf("burst read = %v, want ErrReserved (enforcement on)", resp.Err)
	}
	if resp, _ := h.do(bus.Request{Op: bus.OpRead, VPtr: v, Master: 1}); resp.Err != bus.OK {
		t.Errorf("owner read = %v, want OK", resp.Err)
	}
}

func TestWrapperMultipleInstances(t *testing.T) {
	// "Multiple instances are easily managed, since the host machine
	// provides the generation of a different host pointer for every
	// allocation." Two wrappers on one kernel hold independent state.
	k := sim.New()
	l1 := bus.NewPort(k, "l1", bus.PortConfig{})
	l2 := bus.NewPort(k, "l2", bus.PortConfig{})
	w1, err := NewWrapper(k, Config{Name: "sm0", Delays: DefaultDelays()}, l1)
	if err != nil {
		t.Fatal(err)
	}
	w2, err := NewWrapper(k, Config{Name: "sm1", Delays: DefaultDelays()}, l2)
	if err != nil {
		t.Fatal(err)
	}

	do := func(l *bus.Port, req bus.Request) bus.Response {
		l.Issue(req)
		for i := 0; i < 1000; i++ {
			if err := k.Step(); err != nil {
				t.Fatal(err)
			}
			if resp, ok := l.Response(); ok {
				return resp
			}
		}
		t.Fatal("timeout")
		return bus.Response{}
	}

	r1 := do(l1, bus.Request{Op: bus.OpAlloc, Dim: 4, DType: bus.U32})
	r2 := do(l2, bus.Request{Op: bus.OpAlloc, Dim: 4, DType: bus.U32})
	// Both instances start their virtual space at zero, independently.
	if r1.VPtr != 0 || r2.VPtr != 0 {
		t.Fatalf("vptrs = %d,%d, want 0,0", r1.VPtr, r2.VPtr)
	}
	do(l1, bus.Request{Op: bus.OpWrite, VPtr: 0, Data: 111})
	do(l2, bus.Request{Op: bus.OpWrite, VPtr: 0, Data: 222})
	if got := do(l1, bus.Request{Op: bus.OpRead, VPtr: 0}).Data; got != 111 {
		t.Errorf("sm0 data = %d, want 111", got)
	}
	if got := do(l2, bus.Request{Op: bus.OpRead, VPtr: 0}).Data; got != 222 {
		t.Errorf("sm1 data = %d, want 222", got)
	}
	if w1.Table().Len() != 1 || w2.Table().Len() != 1 {
		t.Error("tables not independent")
	}
	if w1.Name() != "sm0" || w2.Name() != "sm1" {
		t.Error("names wrong")
	}
}

func TestWrapperStats(t *testing.T) {
	h := newHarness(t, Config{Delays: DefaultDelays()})
	v := h.mustAlloc(8, bus.U32)
	h.do(bus.Request{Op: bus.OpWrite, VPtr: v, Data: 1})
	h.do(bus.Request{Op: bus.OpRead, VPtr: v})
	h.do(bus.Request{Op: bus.OpReadBurst, VPtr: v, Dim: 8})
	h.do(bus.Request{Op: bus.OpRead, VPtr: 9999}) // error
	h.do(bus.Request{Op: bus.OpFree, VPtr: v})

	st := h.w.Stats()
	if st.Ops[bus.OpAlloc] != 1 || st.Ops[bus.OpWrite] != 1 || st.Ops[bus.OpRead] != 2 ||
		st.Ops[bus.OpReadBurst] != 1 || st.Ops[bus.OpFree] != 1 {
		t.Errorf("op counts wrong: %+v", st.Ops)
	}
	if st.Errors[bus.OpRead] != 1 {
		t.Errorf("Errors[READ] = %d, want 1", st.Errors[bus.OpRead])
	}
	if st.HostAllocs != 1 || st.HostFrees != 1 || st.HostBytes != 32 {
		t.Errorf("host traffic = %d/%d/%d, want 1/1/32", st.HostAllocs, st.HostFrees, st.HostBytes)
	}
	if st.BurstElems != 8 {
		t.Errorf("BurstElems = %d, want 8", st.BurstElems)
	}
	if st.BusyCycles == 0 {
		t.Error("BusyCycles not counted")
	}
}

func TestWrapperExactlyOneHostCallPerAllocation(t *testing.T) {
	// The paper's speed claim rests on one host call per dynamic
	// operation; assert it precisely with a counting allocator.
	ca := &CountingAllocator{}
	h := newHarness(t, Config{Delays: DefaultDelays(), Host: ca})
	var vs []uint32
	for i := 0; i < 10; i++ {
		vs = append(vs, h.mustAlloc(16, bus.U32))
	}
	// Reads and writes must not touch the host allocator.
	for _, v := range vs {
		h.do(bus.Request{Op: bus.OpWrite, VPtr: v, Data: 1})
		h.do(bus.Request{Op: bus.OpRead, VPtr: v})
	}
	for _, v := range vs {
		h.do(bus.Request{Op: bus.OpFree, VPtr: v})
	}
	if ca.Allocs != 10 || ca.Frees != 10 {
		t.Errorf("host calls = %d allocs / %d frees, want 10/10", ca.Allocs, ca.Frees)
	}
	if ca.LiveBytes != 0 {
		t.Errorf("LiveBytes = %d, want 0", ca.LiveBytes)
	}
}

func TestWrapperDefaultName(t *testing.T) {
	k := sim.New()
	l := bus.NewPort(k, "l", bus.PortConfig{})
	w, err := NewWrapper(k, Config{}, l)
	if err != nil {
		t.Fatal(err)
	}
	if w.Name() != "wrapper" {
		t.Errorf("Name = %q, want wrapper", w.Name())
	}
}

func TestWrapperBackToBackOpsSerialize(t *testing.T) {
	// The wrapper serves one transaction at a time; N identical ops take
	// N × (per-op service) + handshake turnarounds, never less.
	h := newHarness(t, Config{Delays: DelayParams{Read: 3}})
	v := h.mustAlloc(4, bus.U32)
	start := h.k.Cycle()
	const n = 10
	for i := 0; i < n; i++ {
		h.do(bus.Request{Op: bus.OpRead, VPtr: v})
	}
	elapsed := h.k.Cycle() - start
	if elapsed < n*(2+3) {
		t.Errorf("elapsed = %d, want ≥ %d (serialized)", elapsed, n*(2+3))
	}
}

// TestWrapperPlacementPolicy drives a placement-policy wrapper through
// the full bus protocol: allocation, data integrity, free, and virtual
// address reuse — the behavior the bump rule cannot express.
func TestWrapperPlacementPolicy(t *testing.T) {
	for _, kind := range alloc.Kinds() {
		h := newHarness(t, Config{TotalSize: 1 << 16, Policy: kind, Delays: DefaultDelays()})
		resp, _ := h.do(bus.Request{Op: bus.OpAlloc, Dim: 16, DType: bus.U32})
		if resp.Err != bus.OK {
			t.Fatalf("%v: alloc: %v", kind, resp.Err)
		}
		v := resp.VPtr
		if resp, _ := h.do(bus.Request{Op: bus.OpWrite, VPtr: v + 8, Data: 99, DType: bus.U32}); resp.Err != bus.OK {
			t.Fatalf("%v: write: %v", kind, resp.Err)
		}
		if resp, _ := h.do(bus.Request{Op: bus.OpRead, VPtr: v + 8, DType: bus.U32}); resp.Data != 99 {
			t.Fatalf("%v: read = %d, want 99", kind, resp.Data)
		}
		if resp, _ := h.do(bus.Request{Op: bus.OpFree, VPtr: v}); resp.Err != bus.OK {
			t.Fatalf("%v: free: %v", kind, resp.Err)
		}
		resp, _ = h.do(bus.Request{Op: bus.OpAlloc, Dim: 16, DType: bus.U32})
		if resp.Err != bus.OK {
			t.Fatalf("%v: realloc: %v", kind, resp.Err)
		}
		if resp.VPtr != v {
			t.Errorf("%v: freed virtual range not reused: %#x then %#x", kind, v, resp.VPtr)
		}
		if got := h.w.Table().PlacementPolicy(); got != kind {
			t.Errorf("PlacementPolicy = %v, want %v", got, kind)
		}
	}
	// An unsatisfiable placement config must error, not panic later.
	k := sim.New()
	l := bus.NewPort(k, "l", bus.PortConfig{})
	if _, err := NewWrapper(k, Config{Policy: alloc.Buddy}, l); err == nil {
		t.Error("placement policy without TotalSize accepted")
	}
}
