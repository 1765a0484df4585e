package config

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"slices"
	"strconv"
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
// MSHRs and writebacks, and the partitioner its utility monitors.
func midFlightL2(tb testing.TB) (SystemConfig, []byte) {
	return midFlightCaches(tb, SystemConfig{Partition: cache.PartUCP, UCPPeriod: 64})
}

// midFlightSWP is midFlightL2 with the L2 statically way-partitioned by
// explicit masks, so the partitioner section carries masks and no
// utility monitors.
func midFlightSWP(tb testing.TB) (SystemConfig, []byte) {
	return midFlightCaches(tb, SystemConfig{Partition: cache.PartSWP, L2SWPMasks: []uint64{0x3, 0xC}})
}

// midFlightCaches snapshots the two-ISS sweep over L1s, a 4-way L2 and
// DRAM at cycle 600, partitioned as part says.
func midFlightCaches(tb testing.TB, part SystemConfig) (SystemConfig, []byte) {
	tb.Helper()
	cfg := SystemConfig{
		Masters: 2, Memories: 1, MemKind: MemDRAM, MemBytes: 4096,
		Cache: true, Coherent: true, CacheSets: 2, CacheWays: 1,
		L2: true, L2Sets: 2, L2Ways: 4, L2MSHRs: 4, DRAMBanks: 4,
		Partition: part.Partition, UCPPeriod: part.UCPPeriod, L2SWPMasks: part.L2SWPMasks,
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

// fuzzBases are the mid-flight snapshots FuzzSnapshotRead mutates, split
// into sections. pick lists every (base, section) pair in selector order:
// a new base is appended after the old ones, so committed seeds keep
// their selector.
type fuzzBases struct {
	cfgs     []SystemConfig
	names    [][]string
	payloads [][][]byte
	pick     []struct{ base, index int }
}

func newFuzzBases(tb testing.TB) *fuzzBases {
	tb.Helper()
	fb := &fuzzBases{}
	for b, build := range []func(testing.TB) (SystemConfig, []byte){midFlightL2, midFlightDMA, midFlightStatic, midFlightHeapSim, midFlightSplitBus, midFlightSWP} {
		cfg, data := build(tb)
		n, p := sections(tb, data)
		if !bytes.Equal(reframe(n, p), data) {
			tb.Fatal("re-framing the unmodified sections changed the snapshot")
		}
		fb.cfgs, fb.names, fb.payloads = append(fb.cfgs, cfg), append(fb.names, n), append(fb.payloads, p)
		for i := range n {
			fb.pick = append(fb.pick, struct{ base, index int }{b, i})
		}
	}
	if len(fb.pick) > 256 {
		tb.Fatalf("%d sections do not fit the selector byte", len(fb.pick))
	}
	return fb
}

// restore replaces the section that b's first byte selects with the
// rest of b and restores the re-framed snapshot.
func (fb *fuzzBases) restore(b []byte) (*System, error) {
	s := fb.pick[int(b[0])%len(fb.pick)]
	p := append([][]byte(nil), fb.payloads[s.base]...)
	p[s.index] = b[1:]
	return RestoreSystem(fb.cfgs[s.base], reframe(fb.names[s.base], p))
}

// FuzzSnapshotRead feeds hostile section payloads to RestoreSystem.
// Random bytes almost never pass the per-section CRC, so the fuzzer
// works one layer down: the first byte picks one section of one of six
// real mid-flight snapshots — an L1 + L2 + DRAM system of ISSes with
// the L2 partitioned by utility and again by static way masks, a DMA
// copy between wrapper memories with segregated placement over a split
// crossbar and over a split bus, and ISSes on a busy static RAM and on
// a busy heapsim memory — the rest replaces its payload, and the file
// is re-framed with valid checksums. Restore must return an error or a
// system — never panic, hang or over-allocate. A restored system then
// runs 64 cycles, which must not panic either: whatever passes the
// section walks and System.Check must be runnable.
func FuzzSnapshotRead(f *testing.F) {
	fb := newFuzzBases(f)
	for i, s := range fb.pick {
		f.Add(append([]byte{byte(i)}, fb.payloads[s.base][s.index]...))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b) == 0 {
			return
		}
		sys, err := fb.restore(b)
		switch {
		case err == nil && sys == nil:
			t.Fatal("RestoreSystem returned neither a system nor an error")
		case err == nil:
			_ = sys.Kernel.Run(64) // an error is a legal outcome; a panic is not
		}
	})
}

// seedOutcomes pins what RestoreSystem makes of every committed
// FuzzSnapshotRead seed: the end of its error message, or "" for a
// seed that restores. Checks may move between a section's walk and its
// Check, which changes only the prefix naming where the error was
// raised, never the message.
var seedOutcomes = map[string]string{
	"bus_huge_counter_slice":          "truncated payload: need 8 bytes at offset 261 of 261",
	"heapsim_arena_head_out_of_range": "heapsim0: arena: free list links to 0xffffff00, outside the blocks [0x8, 0x2000)",
	"bus_pend_master_7":               "bus: request from master 7 of 1",
	"bus_pend_stray_tag":              "bus: request from master 0 under tag 99, which its port has not handed out",
	"bus_short_counter_tables":        "bus: counters for 0 masters and 2/1 slaves, topology is 4x1",
	"heapsim_exec_state":              "serving state 2 is not one of this memory's states 0..1",
	"heapsim_short_wait":              "",
	"iss_huge_decode_cache":           "cpu iss0: decode cache of 1099511627776 slots exceeds the 65536-byte memory",
	"iss_port_full_while_running":     "port m1: inconsistent counters (issued=13 popped=13 completed=13 drained=13 delivered=3472328296227680304 reqSeq=3472328296227680304 ackSeq=3472328296227680304 depth=1)",
	"static_busy_zero_wait":           "serving state 1 with 0 cycles left to wait",
	"static_stray_tag":                "serving tag 999, which port s0 has not handed out",
	"xbar_completion_without_origin":  "xbar: slave 0 tag 72057594037927942 pending, which its port does not hold",
	"xbar_pend_master_9":              "xbar: request from master 9 of 1",
	"xbar_inflight_also_pending":      "xbar: request in flight from master 0 under tag 10, which is also pending",
}

// TestSnapshotSeedOutcomes replays every committed FuzzSnapshotRead
// seed through the fuzz target's bases and selector byte and compares
// the outcome with its pin. A seed without a pin fails the test.
func TestSnapshotSeedOutcomes(t *testing.T) {
	fb := newFuzzBases(t)
	dir := filepath.Join("testdata", "fuzz", "FuzzSnapshotRead")
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, fi := range files {
		raw, err := os.ReadFile(filepath.Join(dir, fi.Name()))
		if err != nil {
			t.Fatal(err)
		}
		lit, ok := strings.CutPrefix(strings.TrimSpace(string(raw)), "go test fuzz v1\n[]byte(")
		b, err := strconv.Unquote(strings.TrimSuffix(lit, ")"))
		if !ok || err != nil || len(b) == 0 {
			t.Fatalf("%s: not a one-argument []byte corpus entry (%v)", fi.Name(), err)
		}
		seen[fi.Name()] = true
		_, err = fb.restore([]byte(b))
		got := ""
		if err != nil {
			got = err.Error()
		}
		want, pinned := seedOutcomes[fi.Name()]
		switch {
		case !pinned:
			t.Errorf("%s: no pinned outcome; restore gave %q", fi.Name(), got)
		case want == "" && got != "", want != "" && !strings.HasSuffix(got, want):
			t.Errorf("%s: restore gave %q, want an error ending %q", fi.Name(), got, want)
		}
	}
	for name := range seedOutcomes {
		if !seen[name] {
			t.Errorf("pinned seed %s is not committed", name)
		}
	}
}

// gsmOnWrapper snapshots isses ISSes running two GSM frames on one
// wrapper memory that places allocations under policy, at cycle.
func gsmOnWrapper(tb testing.TB, isses int, policy alloc.Kind, cycle uint64) (SystemConfig, []byte) {
	tb.Helper()
	cfg := SystemConfig{Masters: isses, Memories: 1, MemKind: MemWrapper, AllocPolicy: policy}
	sys, err := Build(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	imgs, err := workload.ISSImages("gsm", isses, 1, 2, 1)
	if err != nil {
		tb.Fatal(err)
	}
	if err := sys.AddCPUs(imgs...); err != nil {
		tb.Fatal(err)
	}
	if err := sys.Kernel.Run(cycle); err != nil {
		tb.Fatal(err)
	}
	data, err := sys.Snapshot()
	if err != nil {
		tb.Fatal(err)
	}
	return cfg, data
}

// TestRestoreRejectsCorruptArena overwrites the head of an allocator's
// free lists inside a snapshot — the heapsim arena, or the wrapper's
// placement arena — with links out of the arena. Each section loads
// byte for byte, so only the module's Check can refuse it; without
// that check the heapsim cases and the segregated and buddy placers
// restore and then panic in the allocator's next walk, and the
// first-fit placer runs on with a corrupt arena nothing reports.
func TestRestoreRejectsCorruptArena(t *testing.T) {
	heapCfg, heapData := midFlightHeapSim(t)
	const placerBytes = 1 << 20 // the wrapper's default capacity, its placer arena's size
	for _, tc := range []struct {
		name     string
		cfg      SystemConfig
		data     []byte
		section  string
		arena    int
		head     uint32
		words    int
		contains string
	}{
		{"heapsim head beyond 4 GiB", heapCfg, heapData, "mod.heapsim0", 8192, 0xFFFFFF00, 1, "heapsim0: arena: free list links to 0xffffff00"},
		{"heapsim head past the arena", heapCfg, heapData, "mod.heapsim0", 8192, 0x2008, 1, "heapsim0: arena: free list links to 0x2008"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			checkCorruptArena(t, tc.cfg, tc.data, tc.section, tc.arena, tc.head, tc.words, tc.contains)
		})
	}
	for _, policy := range []alloc.Kind{alloc.Segregated, alloc.Buddy, alloc.FirstFit} {
		t.Run("placer "+policy.String(), func(t *testing.T) {
			cfg, data := gsmOnWrapper(t, 2, policy, 3000)
			checkCorruptArena(t, cfg, data, "mod.wrapper0", placerBytes, 0xFFFFFF00, 16, "wrapper0: placer: free list links to 0xffffff00")
		})
	}
}

// checkCorruptArena writes head into the first words of the arena that
// ends section's payload and expects the restore to fail with an error
// containing contains.
func checkCorruptArena(t *testing.T, cfg SystemConfig, data []byte, section string, arena int, head uint32, words int, contains string) {
	t.Helper()
	if _, err := RestoreSystem(cfg, data); err != nil {
		t.Fatalf("uncorrupted snapshot: %v", err)
	}
	names, payloads := sections(t, data)
	p := append([][]byte(nil), payloads...)
	i := slices.Index(names, section)
	if i < 0 {
		t.Fatalf("no section %s", section)
	}
	p[i] = append([]byte(nil), p[i]...)
	start := len(p[i]) - arena
	for w := range words {
		binary.LittleEndian.PutUint32(p[i][start+4*w:], head)
	}
	if _, err := RestoreSystem(cfg, reframe(names, p)); err == nil || !strings.Contains(err.Error(), contains) {
		t.Fatalf("restore: err = %v, want one containing %q", err, contains)
	}
}

// TestSystemCheckDoesNotAllocate: on a system without caches or a
// placement arena — a GSM ISS mid-flight on a wrapper memory, the shape
// a warm-boot job restores — System.Check allocates nothing, so the
// check every restore runs adds no garbage.
func TestSystemCheckDoesNotAllocate(t *testing.T) {
	cfg, data := gsmOnWrapper(t, 1, alloc.Default, 3000)
	sys, err := RestoreSystem(cfg, data)
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		if err := sys.Check(); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("System.Check allocated %.1f times per call", n)
	}
}
