package config

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"

	"repro/internal/cache"
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

// FuzzSnapshotRead feeds hostile section payloads to RestoreSystem.
// Random bytes almost never pass the per-section CRC, so the fuzzer
// works one layer down: the first byte picks one section of a real
// mid-flight L1 + L2 + DRAM snapshot, the rest replaces its payload,
// and the file is re-framed with valid checksums. Restore must return
// an error or a system — never panic, hang or over-allocate.
func FuzzSnapshotRead(f *testing.F) {
	cfg, data := midFlightL2(f)
	names, payloads := sections(f, data)
	if !bytes.Equal(reframe(names, payloads), data) {
		f.Fatal("re-framing the unmodified sections changed the snapshot")
	}
	for i, p := range payloads {
		f.Add(append([]byte{byte(i)}, p...))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b) == 0 {
			return
		}
		p := append([][]byte(nil), payloads...)
		p[int(b[0])%len(names)] = b[1:]
		if sys, err := RestoreSystem(cfg, reframe(names, p)); err == nil && sys == nil {
			t.Fatal("RestoreSystem returned neither a system nor an error")
		}
	})
}
