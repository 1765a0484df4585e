package dma_test

import (
	"testing"

	"repro/internal/bus"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/dma"
	"repro/internal/smapi"
)

// buildDMASystem wires one PE (for setup/verification) and one DMA
// engine as masters over nMem wrapper memories.
func buildDMASystem(t *testing.T, nMem int, task smapi.Task) (*config.System, *dma.Engine) {
	t.Helper()
	sys, err := config.Build(config.SystemConfig{
		Masters: 2, Memories: nMem, MemKind: config.MemWrapper,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.AddProcs(task); err != nil { // master 0: PE
		t.Fatal(err)
	}
	eng := dma.New(sys.Kernel, "dma0", sys.MasterPorts[1]) // master 1: DMA
	return sys, eng
}

func TestDMACopyWithinOneMemory(t *testing.T) {
	var src, dst uint32
	var allocated, verified bool
	var eng *dma.Engine
	task := func(ctx *smapi.Ctx) {
		m := ctx.Mem(0)
		var code bus.ErrCode
		if src, code = m.Malloc(64, bus.U32); code != bus.OK {
			panic(code)
		}
		if dst, code = m.Malloc(64, bus.U32); code != bus.OK {
			panic(code)
		}
		for i := uint32(0); i < 64; i++ {
			if code := m.Write(src+4*i, i^0xA5); code != bus.OK {
				panic(code)
			}
		}
		eng.Enqueue(dma.Descriptor{SrcSM: 0, DstSM: 0, SrcVPtr: src, DstVPtr: dst, Elems: 64, DType: bus.U32, Chunk: 16})
		allocated = true
		for !eng.Idle() {
			ctx.Sleep(10)
		}
		out, code := m.ReadArray(dst, 64)
		if code != bus.OK {
			panic(code)
		}
		for i, v := range out {
			if v != uint32(i)^0xA5 {
				panic("copy corrupted")
			}
		}
		verified = true
	}
	sys, e := buildDMASystem(t, 1, task)
	eng = e
	if _, err := sys.Kernel.RunUntil(sys.ProcsDone, 1_000_000); err != nil {
		t.Fatal(err)
	}
	if !allocated || !verified {
		t.Fatal("task did not complete")
	}
	st := eng.Stats()
	if st.Descriptors != 1 || st.ElemsMoved != 64 || st.Errors != 0 {
		t.Errorf("stats = %+v", st)
	}
	if len(eng.Done()) != 1 || eng.Done()[0].Err != bus.OK || eng.Done()[0].Moved != 64 {
		t.Errorf("done = %+v", eng.Done())
	}
}

func TestDMACopyAcrossMemories(t *testing.T) {
	// Source in sm0, destination in sm1: two distinct virtual address
	// spaces, bridged only by the engine's sm_addr routing.
	var eng *dma.Engine
	var ok bool
	task := func(ctx *smapi.Ctx) {
		m0, m1 := ctx.Mem(0), ctx.Mem(1)
		src, code := m0.Malloc(40, bus.I16)
		if code != bus.OK {
			panic(code)
		}
		dst, code := m1.Malloc(40, bus.I16)
		if code != bus.OK {
			panic(code)
		}
		pcm := make([]uint32, 40)
		for i := range pcm {
			pcm[i] = uint32(uint16(int16(-100 * i)))
		}
		if code := m0.WriteArray(src, pcm); code != bus.OK {
			panic(code)
		}
		eng.Enqueue(dma.Descriptor{SrcSM: 0, DstSM: 1, SrcVPtr: src, DstVPtr: dst, Elems: 40, DType: bus.I16, Chunk: 13})
		for !eng.Idle() {
			ctx.Sleep(10)
		}
		out, code := m1.ReadArray(dst, 40)
		if code != bus.OK {
			panic(code)
		}
		for i, v := range out {
			if int16(uint16(v)) != int16(-100*i) {
				panic("cross-memory copy corrupted")
			}
		}
		ok = true
	}
	sys, e := buildDMASystem(t, 2, task)
	eng = e
	if _, err := sys.Kernel.RunUntil(sys.ProcsDone, 1_000_000); err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("verification did not run")
	}
}

func TestDMAErrorPropagation(t *testing.T) {
	// A descriptor with a dangling source reports the in-band error and
	// the engine moves on to the next descriptor.
	var eng *dma.Engine
	task := func(ctx *smapi.Ctx) {
		m := ctx.Mem(0)
		good, code := m.Malloc(8, bus.U32)
		if code != bus.OK {
			panic(code)
		}
		dst, code := m.Malloc(8, bus.U32)
		if code != bus.OK {
			panic(code)
		}
		eng.Enqueue(dma.Descriptor{SrcVPtr: 0xDEAD00, DstVPtr: dst, Elems: 8, DType: bus.U32})
		eng.Enqueue(dma.Descriptor{SrcVPtr: good, DstVPtr: dst, Elems: 8, DType: bus.U32})
		for !eng.Idle() {
			ctx.Sleep(10)
		}
	}
	sys, e := buildDMASystem(t, 1, task)
	eng = e
	if _, err := sys.Kernel.RunUntil(sys.ProcsDone, 1_000_000); err != nil {
		t.Fatal(err)
	}
	done := eng.Done()
	if len(done) != 2 {
		t.Fatalf("done = %d descriptors", len(done))
	}
	if done[0].Err != bus.ErrBadVPtr || done[0].Moved != 0 {
		t.Errorf("bad descriptor: %+v", done[0])
	}
	if done[1].Err != bus.OK || done[1].Moved != 8 {
		t.Errorf("good descriptor after failure: %+v", done[1])
	}
	if eng.Stats().Errors != 1 {
		t.Errorf("Errors = %d", eng.Stats().Errors)
	}
}

func TestDMAChunkingOddSizes(t *testing.T) {
	// 100 elements in chunks of 32 → 32+32+32+4.
	var eng *dma.Engine
	var ok bool
	task := func(ctx *smapi.Ctx) {
		m := ctx.Mem(0)
		src, _ := m.Malloc(100, bus.U8)
		dst, _ := m.Malloc(100, bus.U8)
		data := make([]uint32, 100)
		for i := range data {
			data[i] = uint32(i % 251)
		}
		if code := m.WriteArray(src, data); code != bus.OK {
			panic(code)
		}
		eng.Enqueue(dma.Descriptor{SrcVPtr: src, DstVPtr: dst, Elems: 100, DType: bus.U8})
		for !eng.Idle() {
			ctx.Sleep(10)
		}
		out, code := m.ReadArray(dst, 100)
		if code != bus.OK {
			panic(code)
		}
		for i, v := range out {
			if v != uint32(i%251) {
				panic("chunked copy corrupted")
			}
		}
		ok = true
	}
	sys, e := buildDMASystem(t, 1, task)
	eng = e
	if _, err := sys.Kernel.RunUntil(sys.ProcsDone, 1_000_000); err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("verification did not run")
	}
	if got := eng.Done()[0].Moved; got != 100 {
		t.Errorf("Moved = %d, want 100", got)
	}
}

func TestDMADeterministicCompletion(t *testing.T) {
	run := func() uint64 {
		var eng *dma.Engine
		task := func(ctx *smapi.Ctx) {
			m := ctx.Mem(0)
			src, _ := m.Malloc(64, bus.U32)
			dst, _ := m.Malloc(64, bus.U32)
			eng.Enqueue(dma.Descriptor{SrcVPtr: src, DstVPtr: dst, Elems: 64, DType: bus.U32})
			for !eng.Idle() {
				ctx.Sleep(5)
			}
		}
		sys, e := buildDMASystem(t, 1, task)
		eng = e
		if _, err := sys.Kernel.RunUntil(sys.ProcsDone, 1_000_000); err != nil {
			t.Fatal(err)
		}
		return eng.Done()[0].DoneCycle
	}
	if a, b := run(), run(); a != b {
		t.Errorf("completion cycles differ: %d vs %d", a, b)
	}
}

// buildCopySystem wires one DMA engine over two wrapper memories with
// pre-placed buffers (host-side, zero simulated cycles) and returns the
// cycle count of a full copy plus the destination contents.
func runCopy(t *testing.T, depth int, split bool, elems uint32) (uint64, []uint32) {
	t.Helper()
	sys, err := config.Build(config.SystemConfig{
		Masters: 1, Memories: 2, MemKind: config.MemWrapper,
		OutstandingDepth: depth, SplitBus: split,
	})
	if err != nil {
		t.Fatal(err)
	}
	var tr core.Translator
	src, code := sys.Wrappers[0].Table().Alloc(elems, bus.U32)
	if code != bus.OK {
		t.Fatal(code)
	}
	dst, code := sys.Wrappers[1].Table().Alloc(elems, bus.U32)
	if code != bus.OK {
		t.Fatal(code)
	}
	se, _, _ := sys.Wrappers[0].Table().Resolve(src)
	for j := uint32(0); j < elems; j++ {
		tr.WriteElem(se.Host, bus.U32, j, 0xC0DE0000+j)
	}
	eng := dma.New(sys.Kernel, "dma0", sys.MasterPorts[0])
	eng.Enqueue(dma.Descriptor{SrcSM: 0, DstSM: 1, SrcVPtr: src, DstVPtr: dst, Elems: elems, DType: bus.U32, Chunk: 16})
	if _, err := sys.Kernel.RunUntil(eng.Idle, 1_000_000); err != nil {
		t.Fatal(err)
	}
	if d := eng.Done(); len(d) != 1 || d[0].Err != bus.OK || d[0].Moved != elems {
		t.Fatalf("outcome %+v", eng.Done())
	}
	de, _, _ := sys.Wrappers[1].Table().Resolve(dst)
	out := make([]uint32, elems)
	for j := uint32(0); j < elems; j++ {
		out[j] = tr.ReadElem(de.Host, bus.U32, j)
	}
	return sys.Kernel.Cycle(), out
}

// TestDMAPipelinedFasterThanSerial is the double-buffering claim: with
// depth ≥ 2 the engine keeps a read from the source memory and a write
// to the destination memory in flight concurrently, so on a
// split-transaction bus the same copy finishes in fewer simulated
// cycles than the strictly alternating depth-1 engine. On the occupied
// bus the extra depth must at least never hurt (the bus serializes
// end-to-end, so the queued request only hides the turnaround the
// depth-1 window already hid). The copied data must be identical in
// every mode.
func TestDMAPipelinedFasterThanSerial(t *testing.T) {
	const elems = 256
	serial, serialData := runCopy(t, 1, false, elems)
	for _, tc := range []struct {
		name   string
		depth  int
		split  bool
		strict bool // must be strictly faster than depth 1
	}{
		{"depth2-occupied", 2, false, false},
		{"depth2-split", 2, true, true},
		{"depth4-split", 4, true, true},
	} {
		cycles, data := runCopy(t, tc.depth, tc.split, elems)
		if tc.strict && cycles >= serial {
			t.Errorf("%s: %d cycles, not faster than depth-1 %d", tc.name, cycles, serial)
		}
		if cycles > serial {
			t.Errorf("%s: %d cycles, slower than depth-1 %d", tc.name, cycles, serial)
		}
		for j := range data {
			if data[j] != serialData[j] {
				t.Fatalf("%s: element %d differs: %#x vs %#x", tc.name, j, data[j], serialData[j])
			}
		}
		t.Logf("%s: %d cycles vs depth-1 %d (%.2fx)", tc.name, cycles, serial, float64(serial)/float64(cycles))
	}
	// The split+depth≥2 configuration must overlap substantially, not
	// just shave the turnaround.
	overlapped, _ := runCopy(t, 2, true, elems)
	if float64(serial)/float64(overlapped) < 1.2 {
		t.Errorf("depth-2 split copy only improved %d → %d cycles", serial, overlapped)
	}
}

// TestDMAOverlappingCopyDepthInvariant pins the overlap guard: a
// forward-overlapping same-memory copy (dst = src + one chunk) has
// chunked-memmove semantics on the classic serial engine — chunk k+1's
// read observes chunk k's write. The pipelined engine must not change
// that, so overlapping descriptors serialize at every depth and the
// copied bytes are identical.
func TestDMAOverlappingCopyDepthInvariant(t *testing.T) {
	const elems, chunk = 64, 16
	run := func(depth int) []uint32 {
		sys, err := config.Build(config.SystemConfig{
			Masters: 1, Memories: 1, MemKind: config.MemWrapper,
			OutstandingDepth: depth, SplitBus: depth > 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		var tr core.Translator
		buf, code := sys.Wrappers[0].Table().Alloc(elems+chunk, bus.U32)
		if code != bus.OK {
			t.Fatal(code)
		}
		e, _, _ := sys.Wrappers[0].Table().Resolve(buf)
		for j := uint32(0); j < elems+chunk; j++ {
			tr.WriteElem(e.Host, bus.U32, j, 0x11110000+j)
		}
		eng := dma.New(sys.Kernel, "dma0", sys.MasterPorts[0])
		eng.Enqueue(dma.Descriptor{
			SrcSM: 0, DstSM: 0, SrcVPtr: buf, DstVPtr: buf + 4*chunk,
			Elems: elems, DType: bus.U32, Chunk: chunk,
		})
		if _, err := sys.Kernel.RunUntil(eng.Idle, 1_000_000); err != nil {
			t.Fatal(err)
		}
		out := make([]uint32, elems+chunk)
		for j := range out {
			out[j] = tr.ReadElem(e.Host, bus.U32, uint32(j))
		}
		return out
	}
	ref := run(1)
	for _, depth := range []int{2, 4, 8} {
		got := run(depth)
		for j := range got {
			if got[j] != ref[j] {
				t.Fatalf("depth %d: element %d = %#x, depth-1 engine wrote %#x", depth, j, got[j], ref[j])
			}
		}
	}
	// Sanity: the overlap really propagated (memmove-with-chunks smears
	// the first chunk forward), so the guard is actually being tested.
	smeared := false
	for j := chunk; j < elems; j++ {
		if ref[j+4] != 0x11110000+uint32(j) {
			smeared = true
			break
		}
	}
	if !smeared {
		t.Fatal("workload did not exercise the overlap semantics")
	}
}

// runAlone runs one descriptor on a 1-master, 2-wrapper occupied bus at
// the given port depth with no other master, and returns its status, the
// engine's busy cycles and the bus transactions it cost.
func runAlone(t *testing.T, depth int, d dma.Descriptor) (dma.Status, uint64, uint64) {
	t.Helper()
	sys, err := config.Build(config.SystemConfig{
		Masters: 1, Memories: 2, MemKind: config.MemWrapper, OutstandingDepth: depth,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng := dma.New(sys.Kernel, "dma0", sys.MasterPorts[0])
	eng.Enqueue(d)
	if _, err := sys.Kernel.RunUntil(eng.Idle, 1_000_000); err != nil {
		t.Fatal(err)
	}
	if len(eng.Done()) != 1 {
		t.Fatalf("depth %d: done = %+v", depth, eng.Done())
	}
	return eng.Done()[0], eng.Stats().BusyCycles, sys.Inter.Stats().Transactions
}

// TestDMAEmptyDescriptorDepthInvariant pins the zero-element case: there
// is nothing to move, so the descriptor retires in the tick it is popped
// without touching the bus — at every port depth. (The former depth-1
// FSM sent a Dim-0 read burst and a Dim-0 write burst for it.)
func TestDMAEmptyDescriptorDepthInvariant(t *testing.T) {
	for _, depth := range []int{1, 2, 4, 8} {
		st, busy, txns := runAlone(t, depth, dma.Descriptor{SrcSM: 0, DstSM: 1, DType: bus.U32})
		if st.Err != bus.OK || st.Moved != 0 || st.DoneCycle != 0 || busy != 1 || txns != 0 {
			t.Errorf("depth %d: status %+v, %d busy cycles, %d bus transactions; want OK at cycle 0, 1 busy cycle, no traffic",
				depth, st, busy, txns)
		}
	}
}

// TestDMAErrorRetireDepthInvariant pins when a failed descriptor
// retires: in the tick its last outstanding transaction completes. A
// single-chunk descriptor with a dangling source has exactly one
// transaction, so its completion cycle and busy time cannot depend on
// the port depth.
func TestDMAErrorRetireDepthInvariant(t *testing.T) {
	bad := dma.Descriptor{SrcSM: 0, DstSM: 1, SrcVPtr: 0xDEAD00, Elems: 8, DType: bus.U32}
	ref, refBusy, _ := runAlone(t, 1, bad)
	if ref.Err != bus.ErrBadVPtr || ref.Moved != 0 {
		t.Fatalf("depth 1: %+v", ref)
	}
	for _, depth := range []int{2, 4, 8} {
		st, busy, _ := runAlone(t, depth, bad)
		st.Desc, ref.Desc = dma.Descriptor{}, dma.Descriptor{}
		if st != ref || busy != refBusy {
			t.Errorf("depth %d: %+v after %d busy cycles; depth 1: %+v after %d", depth, st, busy, ref, refBusy)
		}
	}
}
