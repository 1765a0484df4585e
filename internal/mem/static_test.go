package mem

import (
	"testing"

	"repro/internal/bus"
	"repro/internal/sim"
)

type harness struct {
	t    *testing.T
	k    *sim.Kernel
	link *bus.Port
	r    *StaticRAM
}

func newHarness(t *testing.T, cfg Config) *harness {
	t.Helper()
	k := sim.New()
	link := bus.NewPort(k, "t", bus.PortConfig{})
	r := NewStaticRAM(k, cfg, link)
	return &harness{t: t, k: k, link: link, r: r}
}

func (h *harness) do(req bus.Request) (bus.Response, uint64) {
	h.t.Helper()
	start := h.k.Cycle()
	h.link.Issue(req)
	for i := 0; i < 100000; i++ {
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

func TestStaticRAMReadWrite(t *testing.T) {
	h := newHarness(t, Config{Size: 256, Delays: DefaultDelays()})
	if resp, _ := h.do(bus.Request{Op: bus.OpWrite, VPtr: 100, Data: 0xBEEF, DType: bus.U32}); resp.Err != bus.OK {
		t.Fatalf("write: %v", resp.Err)
	}
	resp, _ := h.do(bus.Request{Op: bus.OpRead, VPtr: 100, DType: bus.U32})
	if resp.Err != bus.OK || resp.Data != 0xBEEF {
		t.Fatalf("read = %v/%#x, want OK/0xBEEF", resp.Err, resp.Data)
	}
	// Fresh memory reads zero.
	if resp, _ := h.do(bus.Request{Op: bus.OpRead, VPtr: 0, DType: bus.U32}); resp.Data != 0 {
		t.Errorf("fresh read = %#x, want 0", resp.Data)
	}
}

func TestStaticRAMTypedAccess(t *testing.T) {
	h := newHarness(t, Config{Size: 64, Delays: DefaultDelays()})
	h.do(bus.Request{Op: bus.OpWrite, VPtr: 10, Data: 0xFFFF, DType: bus.I16})
	resp, _ := h.do(bus.Request{Op: bus.OpRead, VPtr: 10, DType: bus.I16})
	if resp.Data != 0xFFFFFFFF {
		t.Errorf("I16 read = %#x, want sign-extended", resp.Data)
	}
	// Byte view of the same location is little-endian.
	if h.r.Peek(10) != 0xFF || h.r.Peek(11) != 0xFF {
		t.Error("byte layout wrong")
	}
}

func TestStaticRAMBounds(t *testing.T) {
	h := newHarness(t, Config{Size: 16, Delays: DefaultDelays()})
	cases := []bus.Request{
		{Op: bus.OpRead, VPtr: 16, DType: bus.U8},
		{Op: bus.OpRead, VPtr: 13, DType: bus.U32},
		{Op: bus.OpWrite, VPtr: 100, DType: bus.U8},
		{Op: bus.OpReadBurst, VPtr: 0, Dim: 5, DType: bus.U32},
		{Op: bus.OpWriteBurst, VPtr: 8, Burst: []uint32{1, 2, 3}, DType: bus.U32},
	}
	for _, req := range cases {
		if resp, _ := h.do(req); resp.Err != bus.ErrBounds {
			t.Errorf("%v: %v, want ErrBounds", req, resp.Err)
		}
	}
	// Edge-exact access succeeds.
	if resp, _ := h.do(bus.Request{Op: bus.OpRead, VPtr: 12, DType: bus.U32}); resp.Err != bus.OK {
		t.Errorf("edge read: %v", resp.Err)
	}
}

func TestStaticRAMRejectsDynamicOps(t *testing.T) {
	h := newHarness(t, Config{Size: 64, Delays: DefaultDelays()})
	for _, op := range []bus.Op{bus.OpAlloc, bus.OpFree, bus.OpReserve, bus.OpRelease} {
		if resp, _ := h.do(bus.Request{Op: op, Dim: 1, DType: bus.U8}); resp.Err != bus.ErrBadOp {
			t.Errorf("%v: %v, want ErrBadOp", op, resp.Err)
		}
	}
	st := h.r.Stats()
	if st.Errors[bus.OpAlloc] != 1 {
		t.Errorf("Errors[ALLOC] = %d, want 1", st.Errors[bus.OpAlloc])
	}
}

func TestStaticRAMBurstRoundTrip(t *testing.T) {
	h := newHarness(t, Config{Size: 256, Delays: DefaultDelays()})
	in := []uint32{5, 6, 7, 8}
	h.do(bus.Request{Op: bus.OpWriteBurst, VPtr: 32, Burst: in, DType: bus.U16})
	resp, _ := h.do(bus.Request{Op: bus.OpReadBurst, VPtr: 32, Dim: 4, DType: bus.U16})
	for i, want := range in {
		if resp.Burst[i] != want {
			t.Errorf("burst[%d] = %d, want %d", i, resp.Burst[i], want)
		}
	}
	if st := h.r.Stats(); st.BurstElems != 8 {
		t.Errorf("BurstElems = %d, want 8", st.BurstElems)
	}
}

func TestStaticRAMLatencyMatchesWrapperShape(t *testing.T) {
	// Same formula as the wrapper: 2 + Decode + op.
	h := newHarness(t, Config{Size: 64, Delays: Delays{Decode: 2, Read: 3}})
	_, cycles := h.do(bus.Request{Op: bus.OpRead, VPtr: 0, DType: bus.U32})
	if cycles != 2+2+3 {
		t.Errorf("latency = %d, want 7", cycles)
	}
}

func TestStaticRAMDefaultNameAndSize(t *testing.T) {
	h := newHarness(t, Config{Size: 128})
	if h.r.Name() != "sram" {
		t.Errorf("Name = %q", h.r.Name())
	}
	if h.r.Size() != 128 {
		t.Errorf("Size = %d", h.r.Size())
	}
}
