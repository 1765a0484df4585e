package config

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"

	"repro/internal/alloc"
	"repro/internal/bus"
	"repro/internal/cache"
	"repro/internal/dma"
	"repro/internal/snapshot"
	"repro/internal/workload"
)

// midFlightL2 snapshots a small L1 + UCP-partitioned L2 + DRAM system
// of two sweeping ISSes mid-run, so the cache sections hold live lines,
// MSHRs and writebacks.
func midFlightL2(tb testing.TB) (SystemConfig, []byte) {
	tb.Helper()
	cfg := SystemConfig{
		Masters: 2, Memories: 1, MemKind: MemDRAM, MemBytes: 4096,
		Cache: true, Coherent: true, CacheSets: 2, CacheWays: 1,
		L2: true, L2Sets: 2, L2Ways: 4, L2MSHRs: 4,
		Partition: cache.PartUCP, UCPPeriod: 64, DRAMBanks: 4,
	}
	sys, err := Build(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	imgs, err := workload.ISSImages("sweep", 2, 1, 4, 1)
	if err != nil {
		tb.Fatal(err)
	}
	if err := sys.AddCPUs(imgs...); err != nil {
		tb.Fatal(err)
	}
	if err := sys.Kernel.Run(600); err != nil {
		tb.Fatal(err)
	}
	data, err := sys.Snapshot()
	if err != nil {
		tb.Fatal(err)
	}
	return cfg, data
}

// sections splits a verified snapshot into its sections, in file order.
func sections(tb testing.TB, data []byte) (names []string, payloads [][]byte) {
	tb.Helper()
	if _, err := snapshot.Read(data); err != nil {
		tb.Fatal(err)
	}
	for off := len(snapshot.Magic) + 4; off < len(data); {
		n := int(binary.LittleEndian.Uint32(data[off:]))
		names = append(names, string(data[off+4:off+4+n]))
		off += 4 + n
		p := int(binary.LittleEndian.Uint32(data[off:]))
		payloads = append(payloads, data[off+4:off+4+p])
		off += 4 + p + 4
	}
	return names, payloads
}

// reframe assembles sections into a snapshot with valid checksums.
func reframe(names []string, payloads [][]byte) []byte {
	w := snapshot.NewWriter()
	for i, n := range names {
		w.Add(n, payloads[i])
	}
	data, _ := w.Finish()
	return data
}

// TestRestoreRejectsBadMasterCounts: the meta section's CPU and DMA
// counts size allocations, so a checksum-valid section carrying a
// negative count or more masters than the configuration has must be
// refused — by both restore paths — instead of panicking in make.
func TestRestoreRejectsBadMasterCounts(t *testing.T) {
	cfg, data := midFlightL2(t)
	names, payloads := sections(t, data)
	for _, tc := range []struct {
		name       string
		ncpu, ndma int
	}{
		{"negative DMA count", 2, -1},
		{"negative CPU count", -1, 0},
		{"CPUs beyond masters", 1 << 40, 0},
		{"DMAs beyond masters", 2, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var meta snapshot.Encoder
			meta.String(cfg.StateHash())
			meta.U64(600)
			meta.Int(2)
			meta.Int(1)
			meta.Int(2)
			meta.Int(tc.ncpu)
			meta.Int(tc.ndma)
			p := append([][]byte(nil), payloads...)
			for i, n := range names {
				if n == "meta" {
					p[i] = meta.Bytes()
				}
			}
			bad := reframe(names, p)
			if _, err := RestoreSystem(cfg, bad); err == nil || !strings.Contains(err.Error(), "masters") {
				t.Fatalf("RestoreSystem: err = %v, want a master-count error", err)
			}
			sys, err := Build(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := sys.RestoreSnapshot(bad); err == nil || !strings.Contains(err.Error(), "masters") {
				t.Fatalf("RestoreSnapshot: err = %v, want a master-count error", err)
			}
		})
	}
}

// midFlightDMA snapshots a DMA copy between two wrapper memories under
// segregated placement over a split depth-4 crossbar, mid-copy, so the
// wrapper sections carry live entries and the placer arena, the
// crossbar section busy lanes and the DMA section in-flight chunks.
func midFlightDMA(tb testing.TB) (SystemConfig, []byte) {
	return midFlightCopy(tb, InterCrossbar)
}

// midFlightSplitBus is midFlightDMA over a split bus, so a mutated bus
// section reaches the response arbiter and RespGrants.
func midFlightSplitBus(tb testing.TB) (SystemConfig, []byte) {
	return midFlightCopy(tb, InterBus)
}

// midFlightCopy snapshots the DMA copy over inter at the first cycle
// from cycle 200 on that finds both memories with a request of the copy
// pending in the interconnect.
func midFlightCopy(tb testing.TB, inter InterconnectKind) (SystemConfig, []byte) {
	tb.Helper()
	const elems = 256
	cfg := SystemConfig{
		Masters: 1, Memories: 2, MemKind: MemWrapper, AllocPolicy: alloc.Segregated,
		Interconnect: inter, OutstandingDepth: 4, SplitBus: true, OutOfOrder: true,
	}
	sys, err := Build(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	src, code := sys.Wrappers[0].Table().Alloc(elems, bus.U32)
	dst, code2 := sys.Wrappers[1].Table().Alloc(elems, bus.U32)
	if code != bus.OK || code2 != bus.OK {
		tb.Fatalf("alloc: %v %v", code, code2)
	}
	eng, err := sys.AddDMA(0, "dma0")
	if err != nil {
		tb.Fatal(err)
	}
	eng.Enqueue(dma.Descriptor{SrcSM: 0, DstSM: 1, SrcVPtr: src, DstVPtr: dst, Elems: elems, DType: bus.U32, Chunk: 32})
	if err := sys.Kernel.Run(200); err != nil {
		tb.Fatal(err)
	}
	for sys.SlavePorts[0].Outstanding() == 0 || sys.SlavePorts[1].Outstanding() == 0 {
		if eng.Idle() {
			tb.Fatal("DMA copy finished before the checkpoint")
		}
		if err := sys.Kernel.Run(1); err != nil {
			tb.Fatal(err)
		}
	}
	data, err := sys.Snapshot()
	if err != nil {
		tb.Fatal(err)
	}
	return cfg, data
}

// runsAfterRestore reports whether a system restored from a mutated
// copy of the named section must also run: a memory model, an
// interconnect or a port.
func runsAfterRestore(name string) bool {
	for _, k := range []MemKind{MemWrapper, MemStatic, MemDRAM, MemHeapSim} {
		if strings.HasPrefix(name, "mod."+k.String()) {
			return true
		}
	}
	return name == "mod.bus" || name == "mod.xbar" || strings.HasPrefix(name, "port.")
}

// midFlightMem snapshots two ISSes running kernel on one small
// memory of the given kind, at the first cycle from cycle 200 on that
// finds the memory serving a request, so the fuzzer starts from a busy
// section.
func midFlightMem(tb testing.TB, kind MemKind, kernel string, work int) (SystemConfig, []byte) {
	tb.Helper()
	cfg := SystemConfig{Masters: 2, Memories: 1, MemKind: kind, MemBytes: 8192}
	sys, err := Build(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	imgs, err := workload.ISSImages(kernel, 2, 1, work, 1)
	if err != nil {
		tb.Fatal(err)
	}
	if err := sys.AddCPUs(imgs...); err != nil {
		tb.Fatal(err)
	}
	if err := sys.Kernel.Run(200); err != nil {
		tb.Fatal(err)
	}
	section := "mod." + kind.String() + "0"
	for i := 0; i < 100000; i++ {
		data, err := sys.Snapshot()
		if err != nil {
			tb.Fatal(err)
		}
		names, payloads := sections(tb, data)
		for j, n := range names {
			if n == section && payloads[j][0] != 0 {
				return cfg, data
			}
		}
		if err := sys.Kernel.Run(1); err != nil {
			tb.Fatal(err)
		}
	}
	tb.Fatalf("%s never served a request", section)
	return cfg, nil
}

func midFlightStatic(tb testing.TB) (SystemConfig, []byte) {
	return midFlightMem(tb, MemStatic, "sweep", 4)
}

func midFlightHeapSim(tb testing.TB) (SystemConfig, []byte) {
	return midFlightMem(tb, MemHeapSim, "gsm", 1)
}

// FuzzSnapshotRead feeds hostile section payloads to RestoreSystem.
// Random bytes almost never pass the per-section CRC, so the fuzzer
// works one layer down: the first byte picks one section of one of five
// real mid-flight snapshots — an L1 + L2 + DRAM system of ISSes, a DMA
// copy between wrapper memories with segregated placement over a split
// crossbar and over a split bus, and ISSes on a busy static RAM and on
// a busy heapsim memory — the rest replaces its payload, and the file
// is re-framed with valid checksums. Restore must return an error or a
// system — never panic, hang or over-allocate. A system restored from a
// mutated memory, interconnect or port section then runs 64 cycles,
// which must not panic either: the section's load checks must leave its
// FSM runnable.
func FuzzSnapshotRead(f *testing.F) {
	type section struct {
		base, index int
	}
	var (
		cfgs     []SystemConfig
		names    [][]string
		payloads [][][]byte
		pick     []section
	)
	for b, build := range []func(testing.TB) (SystemConfig, []byte){midFlightL2, midFlightDMA, midFlightStatic, midFlightHeapSim, midFlightSplitBus} {
		cfg, data := build(f)
		n, p := sections(f, data)
		if !bytes.Equal(reframe(n, p), data) {
			f.Fatal("re-framing the unmodified sections changed the snapshot")
		}
		cfgs, names, payloads = append(cfgs, cfg), append(names, n), append(payloads, p)
		for i := range n {
			pick = append(pick, section{b, i})
		}
	}
	if len(pick) > 256 {
		f.Fatalf("%d sections do not fit the selector byte", len(pick))
	}
	for i, s := range pick {
		f.Add(append([]byte{byte(i)}, payloads[s.base][s.index]...))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b) == 0 {
			return
		}
		s := pick[int(b[0])%len(pick)]
		p := append([][]byte(nil), payloads[s.base]...)
		p[s.index] = b[1:]
		sys, err := RestoreSystem(cfgs[s.base], reframe(names[s.base], p))
		switch {
		case err == nil && sys == nil:
			t.Fatal("RestoreSystem returned neither a system nor an error")
		case err == nil && runsAfterRestore(names[s.base][s.index]):
			_ = sys.Kernel.Run(64) // an error is a legal outcome; a panic is not
		}
	})
}
