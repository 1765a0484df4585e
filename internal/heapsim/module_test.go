package heapsim

import (
	"testing"

	"repro/internal/alloc"
	"repro/internal/bus"
	"repro/internal/sim"
)

type harness struct {
	t    *testing.T
	k    *sim.Kernel
	link *bus.Port
	m    *HeapMem
}

func newHarness(t *testing.T, cfg Config) *harness {
	t.Helper()
	k := sim.New()
	link := bus.NewPort(k, "t", bus.PortConfig{})
	m, err := NewHeapMem(k, cfg, link)
	if err != nil {
		t.Fatalf("NewHeapMem: %v", err)
	}
	return &harness{t: t, k: k, link: link, m: m}
}

func (h *harness) do(req bus.Request) (bus.Response, uint64) {
	h.t.Helper()
	start := h.k.Cycle()
	h.link.Issue(req)
	for i := 0; i < 10_000_000; i++ {
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

func TestHeapMemAllocWriteReadFree(t *testing.T) {
	h := newHarness(t, Config{ArenaSize: 4096})
	resp, _ := h.do(bus.Request{Op: bus.OpAlloc, Dim: 8, DType: bus.U32})
	if resp.Err != bus.OK {
		t.Fatalf("alloc: %v", resp.Err)
	}
	v := resp.VPtr
	if resp, _ := h.do(bus.Request{Op: bus.OpWrite, VPtr: v, Data: 123, DType: bus.U32}); resp.Err != bus.OK {
		t.Fatalf("write: %v", resp.Err)
	}
	if resp, _ := h.do(bus.Request{Op: bus.OpRead, VPtr: v, DType: bus.U32}); resp.Data != 123 {
		t.Fatalf("read = %d, want 123", resp.Data)
	}
	if resp, _ := h.do(bus.Request{Op: bus.OpFree, VPtr: v}); resp.Err != bus.OK {
		t.Fatalf("free: %v", resp.Err)
	}
	if resp, _ := h.do(bus.Request{Op: bus.OpFree, VPtr: v}); resp.Err != bus.ErrBadVPtr {
		t.Errorf("double free = %v, want ErrBadVPtr", resp.Err)
	}
}

func TestHeapMemAllocLatencyScalesWithFragmentation(t *testing.T) {
	h := newHarness(t, Config{ArenaSize: 1 << 16, WordLatency: 1, NoZero: true})
	// First allocation: short walk.
	_, fastCycles := h.do(bus.Request{Op: bus.OpAlloc, Dim: 64, DType: bus.U8})

	// Fill the arena, then free every other block: only small holes left.
	var ptrs []uint32
	for {
		resp, _ := h.do(bus.Request{Op: bus.OpAlloc, Dim: 32, DType: bus.U8})
		if resp.Err != bus.OK {
			break
		}
		ptrs = append(ptrs, resp.VPtr)
	}
	for i := 0; i < len(ptrs); i += 2 {
		h.do(bus.Request{Op: bus.OpFree, VPtr: ptrs[i]})
	}
	// An allocation that fits no hole walks the whole list before being
	// denied — the latency of failure scales with fragmentation.
	resp, slowCycles := h.do(bus.Request{Op: bus.OpAlloc, Dim: 512, DType: bus.U8})
	if resp.Err != bus.ErrCapacity {
		t.Fatalf("large alloc = %v, want ErrCapacity (no hole fits)", resp.Err)
	}
	if slowCycles < 10*fastCycles {
		t.Errorf("fragmented alloc = %d cycles vs fresh %d; want ≥10× growth", slowCycles, fastCycles)
	}
}

func TestHeapMemCallocZeroCharged(t *testing.T) {
	zeroing := newHarness(t, Config{ArenaSize: 1 << 16})
	raw := newHarness(t, Config{ArenaSize: 1 << 16, NoZero: true})
	_, zc := zeroing.do(bus.Request{Op: bus.OpAlloc, Dim: 4096, DType: bus.U8})
	_, rc := raw.do(bus.Request{Op: bus.OpAlloc, Dim: 4096, DType: bus.U8})
	if zc < rc+1024 {
		t.Errorf("calloc = %d cycles, malloc = %d; zeroing must cost ≥ 1024 word-cycles", zc, rc)
	}
}

func TestHeapMemCapacityError(t *testing.T) {
	h := newHarness(t, Config{ArenaSize: 256, NoZero: true})
	if resp, _ := h.do(bus.Request{Op: bus.OpAlloc, Dim: 1024, DType: bus.U8}); resp.Err != bus.ErrCapacity {
		t.Errorf("oversized alloc = %v, want ErrCapacity", resp.Err)
	}
	if resp, _ := h.do(bus.Request{Op: bus.OpAlloc, Dim: 0, DType: bus.U8}); resp.Err != bus.ErrCapacity {
		t.Errorf("zero alloc = %v, want ErrCapacity", resp.Err)
	}
	if h.m.Stats().AllocFailures != 2 {
		t.Errorf("AllocFailures = %d, want 2", h.m.Stats().AllocFailures)
	}
}

func TestHeapMemBurstAndBounds(t *testing.T) {
	h := newHarness(t, Config{ArenaSize: 4096, BurstBase: 1, BurstPerElem: 1})
	resp, _ := h.do(bus.Request{Op: bus.OpAlloc, Dim: 16, DType: bus.U32})
	v := resp.VPtr
	in := []uint32{9, 8, 7}
	if resp, _ := h.do(bus.Request{Op: bus.OpWriteBurst, VPtr: v, Burst: in, DType: bus.U32}); resp.Err != bus.OK {
		t.Fatalf("burst write: %v", resp.Err)
	}
	out, _ := h.do(bus.Request{Op: bus.OpReadBurst, VPtr: v, Dim: 3, DType: bus.U32})
	for i := range in {
		if out.Burst[i] != in[i] {
			t.Errorf("burst[%d] = %d, want %d", i, out.Burst[i], in[i])
		}
	}
	if resp, _ := h.do(bus.Request{Op: bus.OpRead, VPtr: 1 << 20, DType: bus.U32}); resp.Err != bus.ErrBounds {
		t.Errorf("oob read = %v, want ErrBounds", resp.Err)
	}
}

func TestHeapMemRejectsReservations(t *testing.T) {
	h := newHarness(t, Config{ArenaSize: 1024})
	for _, op := range []bus.Op{bus.OpReserve, bus.OpRelease} {
		if resp, _ := h.do(bus.Request{Op: op, VPtr: 8}); resp.Err != bus.ErrBadOp {
			t.Errorf("%v = %v, want ErrBadOp", op, resp.Err)
		}
	}
}

func TestHeapMemWordLatencyScalesCost(t *testing.T) {
	cheap := newHarness(t, Config{ArenaSize: 1 << 16, WordLatency: 1, NoZero: true})
	dear := newHarness(t, Config{ArenaSize: 1 << 16, WordLatency: 10, NoZero: true})
	_, c1 := cheap.do(bus.Request{Op: bus.OpAlloc, Dim: 64, DType: bus.U8})
	_, c10 := dear.do(bus.Request{Op: bus.OpAlloc, Dim: 64, DType: bus.U8})
	if c10 <= c1 {
		t.Errorf("WordLatency 10 alloc = %d cycles vs 1 → %d; want slower", c10, c1)
	}
	if dear.m.Stats().MgrCycles != 10*dear.m.Stats().MgrAccesses {
		t.Errorf("MgrCycles = %d, want 10 × %d", dear.m.Stats().MgrCycles, dear.m.Stats().MgrAccesses)
	}
}

func TestHeapMemDefaults(t *testing.T) {
	k := sim.New()
	l := bus.NewPort(k, "l", bus.PortConfig{})
	m, err := NewHeapMem(k, Config{ArenaSize: 1024}, l)
	if err != nil {
		t.Fatal(err)
	}
	if m.Name() != "heapsim" {
		t.Errorf("Name = %q", m.Name())
	}
	if m.Heap() == nil {
		t.Error("Heap() nil")
	}
	if _, err := NewHeapMem(sim.New(), Config{ArenaSize: 8}, l); err == nil {
		t.Error("undersized arena accepted")
	}
}

// TestHeapMemPolicyConfig drives a non-default policy through the full
// bus protocol: the module's alloc/free/read/write path is policy
// agnostic, and the manager-access charging keeps working.
func TestHeapMemPolicyConfig(t *testing.T) {
	for _, kind := range []alloc.Kind{alloc.BestFit, alloc.Buddy, alloc.Segregated} {
		h := newHarness(t, Config{ArenaSize: 1 << 14, Policy: kind})
		if got := h.m.Heap().Policy(); got != kind {
			t.Fatalf("policy = %v, want %v", got, kind)
		}
		resp, _ := h.do(bus.Request{Op: bus.OpAlloc, Dim: 16, DType: bus.U32})
		if resp.Err != bus.OK {
			t.Fatalf("%v alloc: %v", kind, resp.Err)
		}
		v := resp.VPtr
		if resp, _ := h.do(bus.Request{Op: bus.OpWrite, VPtr: v, Data: 7, DType: bus.U32}); resp.Err != bus.OK {
			t.Fatalf("%v write: %v", kind, resp.Err)
		}
		if resp, _ := h.do(bus.Request{Op: bus.OpRead, VPtr: v, DType: bus.U32}); resp.Data != 7 {
			t.Fatalf("%v read = %d, want 7", kind, resp.Data)
		}
		if resp, _ := h.do(bus.Request{Op: bus.OpFree, VPtr: v}); resp.Err != bus.OK {
			t.Fatalf("%v free: %v", kind, resp.Err)
		}
		if h.m.Stats().MgrAccesses == 0 {
			t.Errorf("%v: no manager accesses metered", kind)
		}
		if err := h.m.Heap().CheckInvariants(); err != nil {
			t.Errorf("%v: %v", kind, err)
		}
	}
}
