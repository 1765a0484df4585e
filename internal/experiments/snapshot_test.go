package experiments

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/bus"
	"repro/internal/cache"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/dma"
	"repro/internal/isa"
	"repro/internal/sim"
	snaplib "repro/internal/snapshot"
	"repro/internal/trace"
	"repro/internal/workload"
)

// This file is the checkpoint/restore differential harness: run-to-N
// must be bit-identical — final cycle count, every stats counter,
// golden ISS output, VCD bytes — to run-to-K + save + restore +
// run-to-(N−K). The restore side additionally sweeps the scheduler
// matrix (lockstep × event-driven × ISS fast paths × cache on/off):
// a snapshot taken under the reference mode must resume correctly
// under every other mode, which is exactly the warm-boot sweep
// contract. Corrupt, truncated, and version-skewed snapshots must
// fail loudly with a sectioned error, never load garbage.

// snapDiffModes is the restore-side scheduler matrix.
var snapDiffModes = []config.SystemConfig{
	{Lockstep: true},
	{Lockstep: false},
	{Lockstep: false, DisableISSBatch: true, DisableISSDecodeCache: true},
}

// cacheTrafficSource is the scalar load/store sweep against static
// memory 0 — the only traffic class the L1 caches: repeated sweeps
// over an interleaved word range (neighbouring CPUs share cache
// lines, so multi-master runs exercise MESI invalidation mid-flight).
// The kernel itself is the mpsim "sweep" workload.
func cacheTrafficSource(iters, base, stride, n, seed int) string {
	return workload.SweepKernelSource(workload.SweepKernelConfig{
		Iterations: iters, SM: 0, Base: base, Stride: stride, Words: n, Seed: uint32(seed),
	})
}

// snapScenario is one checkpointable workload: cfg yields the
// SystemConfig for a kernel mode, build wires and attaches a fresh
// system (without running it), done is the completion predicate and
// verify checks golden outcomes on a finished system.
type snapScenario struct {
	name   string
	cfg    func(m config.SystemConfig) config.SystemConfig
	build  func(m config.SystemConfig) (*config.System, error)
	done   func(sys *config.System) func() bool
	verify func(sys *config.System) error
}

// gsmSnapScenario runs the GSM kernel on two ISSes over two memories of
// the given kind; its name is "gsm-" plus the kind.
func gsmSnapScenario(kind config.MemKind) snapScenario {
	cfg := func(m config.SystemConfig) config.SystemConfig {
		c := m
		c.Masters, c.Memories, c.MemKind = 2, 2, kind
		return c
	}
	return snapScenario{
		name: "gsm-" + kind.String(),
		cfg:  cfg,
		build: func(m config.SystemConfig) (*config.System, error) {
			sys, err := config.Build(cfg(m))
			if err != nil {
				return nil, err
			}
			var progs [][]byte
			for i := 0; i < 2; i++ {
				p, err := isa.Assemble(workload.GSMKernelSource(workload.GSMKernelConfig{
					Frames: 2, SM: i, Seed: uint32(i + 1),
				}))
				if err != nil {
					return nil, err
				}
				progs = append(progs, p.Code)
			}
			if err := sys.AddCPUs(progs...); err != nil {
				return nil, err
			}
			return sys, nil
		},
		done: func(sys *config.System) func() bool { return sys.CPUsHalted },
		verify: func(sys *config.System) error {
			for i, cpu := range sys.CPUs {
				if cpu.ExitCode() != 0 {
					return fmt.Errorf("iss %d exited %#x", i, cpu.ExitCode())
				}
			}
			return nil
		},
	}
}

func cacheSnapScenario() snapScenario {
	cfg := func(m config.SystemConfig) config.SystemConfig {
		c := m
		c.Masters, c.Memories, c.MemKind = 2, 1, config.MemStatic
		c.Cache, c.Coherent = true, true
		return c
	}
	return snapScenario{
		name: "cache-static",
		cfg:  cfg,
		build: func(m config.SystemConfig) (*config.System, error) {
			sys, err := config.Build(cfg(m))
			if err != nil {
				return nil, err
			}
			var progs [][]byte
			for i := 0; i < 2; i++ {
				// Interleaved word ranges: CPU 0 owns words 0,2,4,…, CPU 1
				// owns 1,3,5,… — every line is falsely shared.
				p, err := isa.Assemble(cacheTrafficSource(6, 4*i, 8, 24, 16*(i+1)))
				if err != nil {
					return nil, err
				}
				progs = append(progs, p.Code)
			}
			if err := sys.AddCPUs(progs...); err != nil {
				return nil, err
			}
			return sys, nil
		},
		done: func(sys *config.System) func() bool { return sys.CPUsHalted },
		verify: func(sys *config.System) error {
			for i, cpu := range sys.CPUs {
				if cpu.ExitCode() != 0 {
					return fmt.Errorf("iss %d exited %#x", i, cpu.ExitCode())
				}
			}
			hits := uint64(0)
			for _, c := range sys.Caches {
				hits += c.Stats().Hits
			}
			if hits == 0 {
				return fmt.Errorf("cached run served no hits")
			}
			return nil
		},
	}
}

// dmaSnapScenario is a DMA copy between two wrappers. At depth 4 it runs
// over the split interconnect, reads and writes both in flight at the
// checkpoint; in-order delivery (ooo false) then parks early responses in
// the port's reorder map. At depth 1 it runs over the occupied
// interconnect — every transaction holds its channel end to end and the
// engine strictly alternates read and write.
func dmaSnapScenario(name string, inter config.InterconnectKind, depth int, ooo bool) snapScenario {
	const elems = 256
	cfg := func(m config.SystemConfig) config.SystemConfig {
		c := m
		c.Masters, c.Memories, c.MemKind = 1, 2, config.MemWrapper
		c.Interconnect = inter
		if depth > 1 {
			c.OutstandingDepth, c.SplitBus, c.OutOfOrder = depth, true, ooo
		}
		return c
	}
	return snapScenario{
		name: name,
		cfg:  cfg,
		build: func(m config.SystemConfig) (*config.System, error) {
			sys, err := config.Build(cfg(m))
			if err != nil {
				return nil, err
			}
			src, code := sys.Wrappers[0].Table().Alloc(elems, bus.U32)
			if code != bus.OK {
				return nil, fmt.Errorf("src alloc: %v", code)
			}
			dst, code := sys.Wrappers[1].Table().Alloc(elems, bus.U32)
			if code != bus.OK {
				return nil, fmt.Errorf("dst alloc: %v", code)
			}
			tr := core.Translator{}
			e, _, _ := sys.Wrappers[0].Table().Resolve(src)
			for j := uint32(0); j < elems; j++ {
				tr.WriteElem(e.Host, bus.U32, j, 0xD1A00000+j)
			}
			eng, err := sys.AddDMA(0, "dma0")
			if err != nil {
				return nil, err
			}
			eng.Enqueue(dma.Descriptor{
				SrcSM: 0, DstSM: 1, SrcVPtr: src, DstVPtr: dst,
				Elems: elems, DType: bus.U32, Chunk: 32,
			})
			return sys, nil
		},
		done: func(sys *config.System) func() bool { return sys.DMAs[0].Idle },
		verify: func(sys *config.System) error {
			d := sys.DMAs[0].Done()
			if len(d) != 1 || d[0].Err != bus.OK || d[0].Moved != elems {
				return fmt.Errorf("dma outcome %+v", d)
			}
			tr := core.Translator{}
			e, _, ok := sys.Wrappers[1].Table().Resolve(d[0].Desc.DstVPtr)
			if !ok {
				return fmt.Errorf("dst allocation vanished")
			}
			for j := uint32(0); j < elems; j++ {
				if got, want := tr.ReadElem(e.Host, bus.U32, j), 0xD1A00000+j; got != want {
					return fmt.Errorf("dst elem %d = %#x, want %#x", j, got, want)
				}
			}
			return nil
		},
	}
}

// l2dramSnapScenario stacks the full two-level hierarchy over banked
// DRAM: falsely-shared L1 traffic through a deliberately tiny shared
// inclusive L2 (UCP-partitioned, so the UMON shadow tags and the
// repartition schedule ride in the snapshot) into a 4-bank open-page
// DRAM with a short refresh epoch. At the mid-flight checkpoint the
// L2's MSHRs, writeback queues and private memory-side links plus the
// DRAM's row-buffer registers and refresh phase are all live — the
// restore matrix proves every one of them round-trips bit-identically.
func l2dramSnapScenario() snapScenario {
	cfg := func(m config.SystemConfig) config.SystemConfig {
		c := m
		c.Masters, c.Memories, c.MemKind = 2, 1, config.MemDRAM
		c.Cache, c.Coherent, c.L2 = true, true, true
		c.CacheSets, c.CacheWays = 2, 1
		c.L2Sets, c.L2Ways, c.L2MSHRs = 2, 4, 4
		c.Partition, c.UCPPeriod = cache.PartUCP, 64
		c.DRAMBanks = 4
		c.DRAMRefreshPeriod, c.DRAMRefreshCycles = 512, 16
		return c
	}
	return snapScenario{
		name: "l2-dram-ucp",
		cfg:  cfg,
		build: func(m config.SystemConfig) (*config.System, error) {
			sys, err := config.Build(cfg(m))
			if err != nil {
				return nil, err
			}
			var progs [][]byte
			for i := 0; i < 2; i++ {
				p, err := isa.Assemble(cacheTrafficSource(6, 4*i, 8, 24, 16*(i+1)))
				if err != nil {
					return nil, err
				}
				progs = append(progs, p.Code)
			}
			if err := sys.AddCPUs(progs...); err != nil {
				return nil, err
			}
			return sys, nil
		},
		done: func(sys *config.System) func() bool { return sys.CPUsHalted },
		verify: func(sys *config.System) error {
			for i, cpu := range sys.CPUs {
				if cpu.ExitCode() != 0 {
					return fmt.Errorf("iss %d exited %#x", i, cpu.ExitCode())
				}
			}
			l2 := sys.L2.Stats()
			if l2.Hits == 0 || l2.Misses == 0 {
				return fmt.Errorf("L2 saw no mixed traffic: %+v", l2)
			}
			d := sys.DRAMs[0].Stats()
			if d.RowHits+d.RowMisses+d.RowConflicts == 0 {
				return fmt.Errorf("DRAM banks saw no accesses: %+v", d)
			}
			return nil
		},
	}
}

// dramSnapScenario runs the falsely-shared sweep of two ISSes uncached
// straight onto a 4-bank open-page DRAM whose refresh window recurs
// every 256 cycles, so accesses keep landing in a refresh stall and the
// DRAM's bank registers and stall accounting are live mid-flight.
func dramSnapScenario() snapScenario {
	cfg := func(m config.SystemConfig) config.SystemConfig {
		c := m
		c.Masters, c.Memories, c.MemKind = 2, 1, config.MemDRAM
		c.DRAMBanks = 4
		c.DRAMRefreshPeriod, c.DRAMRefreshCycles = 256, 16
		return c
	}
	return snapScenario{
		name: "dram-refresh",
		cfg:  cfg,
		build: func(m config.SystemConfig) (*config.System, error) {
			sys, err := config.Build(cfg(m))
			if err != nil {
				return nil, err
			}
			var progs [][]byte
			for i := 0; i < 2; i++ {
				p, err := isa.Assemble(cacheTrafficSource(6, 4*i, 8, 24, 16*(i+1)))
				if err != nil {
					return nil, err
				}
				progs = append(progs, p.Code)
			}
			if err := sys.AddCPUs(progs...); err != nil {
				return nil, err
			}
			return sys, nil
		},
		done: func(sys *config.System) func() bool { return sys.CPUsHalted },
		verify: func(sys *config.System) error {
			for i, cpu := range sys.CPUs {
				if cpu.ExitCode() != 0 {
					return fmt.Errorf("iss %d exited %#x", i, cpu.ExitCode())
				}
			}
			if d := sys.DRAMs[0].Stats(); d.RefreshStalls == 0 {
				return fmt.Errorf("no DRAM access hit a refresh window: %+v", d)
			}
			return nil
		},
	}
}

// midFlightScenarios are checkpointed once, half-way, and resumed under
// the whole restore matrix.
func midFlightScenarios() []snapScenario {
	return []snapScenario{
		gsmSnapScenario(config.MemWrapper), gsmSnapScenario(config.MemHeapSim),
		cacheSnapScenario(), l2dramSnapScenario(), dramSnapScenario(),
		dmaSnapScenario("dma-mlp", config.InterBus, 4, true),
		dmaSnapScenario("dma-mlp-inorder", config.InterBus, 4, false),
		dmaSnapScenario("dma-mlp-xbar", config.InterCrossbar, 4, true),
	}
}

// everyCycleScenarios are checkpointed at every cycle of their run.
func everyCycleScenarios() []snapScenario {
	return []snapScenario{
		dmaSnapScenario("dma-serial-bus", config.InterBus, 1, false),
		dmaSnapScenario("dma-serial-xbar", config.InterCrossbar, 1, false),
	}
}

// straightRun runs the scenario uninterrupted in mode m, checks its
// golden outcomes, pins its observables against the committed reference
// and returns them: what every checkpointed run must land on.
func (sc snapScenario) straightRun(t *testing.T, m config.SystemConfig) sysSnapshot {
	t.Helper()
	sys, err := sc.build(m)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Kernel.RunUntil(sc.done(sys), runLimit); err != nil {
		t.Fatal(err)
	}
	if err := sc.verify(sys); err != nil {
		t.Fatal(err)
	}
	ref := snapshot(sys)
	checkRef(t, "snapshot/"+sc.name, ref)
	if ref.Cycles < 4 {
		t.Fatalf("scenario too short to checkpoint: %d cycles", ref.Cycles)
	}
	return ref
}

// TestSchedDiffSnapshot is the differential restore matrix. For every
// scenario: a straight run-to-N in the reference mode pins the golden
// observables; a second reference-mode run stops at K = N/2 and
// snapshots; then every scheduler mode restores that one snapshot —
// through the self-contained RestoreSystem path — runs the remaining
// N−K cycles, and must land on the exact golden observables. One leg
// also exercises the in-place RestoreSnapshot path on an
// identically-built system.
func TestSchedDiffSnapshot(t *testing.T) {
	refMode := config.SystemConfig{Lockstep: true}
	for _, sc := range midFlightScenarios() {
		t.Run(sc.name, func(t *testing.T) {
			ref := sc.straightRun(t, refMode)

			// Save leg: same build, stopped mid-flight at K.
			k := ref.Cycles / 2
			saveSys, err := sc.build(refMode)
			if err != nil {
				t.Fatal(err)
			}
			if err := saveSys.Kernel.Run(k); err != nil {
				t.Fatal(err)
			}
			data, err := saveSys.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			checkRefSnapshot(t, sc.name, data)

			// Restore matrix: every scheduler mode resumes the one snapshot.
			for _, m := range snapDiffModes {
				warm, err := config.RestoreSystem(sc.cfg(m), data)
				if err != nil {
					t.Fatalf("%s: restore: %v", modeName(m), err)
				}
				if got := warm.Kernel.Cycle(); got != k {
					t.Fatalf("%s: restored kernel at cycle %d, want %d", modeName(m), got, k)
				}
				if _, err := warm.Kernel.RunUntil(sc.done(warm), runLimit); err != nil {
					t.Fatalf("%s: resume: %v", modeName(m), err)
				}
				if err := sc.verify(warm); err != nil {
					t.Fatalf("%s: %v", modeName(m), err)
				}
				if got := snapshot(warm); !reflect.DeepEqual(ref, got) {
					t.Fatalf("%s: restored run diverged from straight run\nstraight: %+v\nrestored: %+v",
						modeName(m), ref, got)
				}
			}

			// In-place path: restore into an identically built system.
			inplace, err := sc.build(refMode)
			if err != nil {
				t.Fatal(err)
			}
			if err := inplace.RestoreSnapshot(data); err != nil {
				t.Fatal(err)
			}
			if _, err := inplace.Kernel.RunUntil(sc.done(inplace), runLimit); err != nil {
				t.Fatal(err)
			}
			if got := snapshot(inplace); !reflect.DeepEqual(ref, got) {
				t.Fatalf("in-place restore diverged from straight run\nstraight: %+v\nrestored: %+v", ref, got)
			}
		})
	}
}

// TestSnapshotRoundTrip catches a field that only one direction of a
// module's state walk handles: for every pinned scenario, the mid-flight
// snapshot restored under the saving config and snapshotted again must
// give the identical bytes. The checkpoint cycle is half the scenario's
// recorded length, as in TestSchedDiffSnapshot.
func TestSnapshotRoundTrip(t *testing.T) {
	refMode := config.SystemConfig{Lockstep: true}
	for _, sc := range append(midFlightScenarios(), everyCycleScenarios()...) {
		t.Run(sc.name, func(t *testing.T) {
			var ref sysSnapshot
			if err := json.Unmarshal(schedRefData.Scenarios["snapshot/"+sc.name], &ref); err != nil || ref.Cycles < 4 {
				t.Fatalf("no recorded run length for %s (err %v)", sc.name, err)
			}
			sys, err := sc.build(refMode)
			if err != nil {
				t.Fatal(err)
			}
			if err := sys.Kernel.Run(ref.Cycles / 2); err != nil {
				t.Fatal(err)
			}
			data, err := sys.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			checkRefSnapshot(t, sc.name, data)
			warm, err := config.RestoreSystem(sc.cfg(refMode), data)
			if err != nil {
				t.Fatal(err)
			}
			again, err := warm.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(data, again) {
				t.Fatalf("restore + snapshot changed the bytes: %s, then %s", digest(data), digest(again))
			}
		})
	}
}

// TestSchedDiffSnapshotEveryCycle checkpoints the depth-1 DMA copy over
// the occupied bus and crossbar at every single cycle of the run, so the
// snapshot is taken in every phase of a held transaction — request words
// on the channel, channel held while the wrapper serves, response words
// draining — with the engine's read and, in turn, its write in flight.
// Each checkpoint resumes under one mode of the restore matrix (rotating)
// and must land on the straight run's observables.
func TestSchedDiffSnapshotEveryCycle(t *testing.T) {
	refMode := config.SystemConfig{Lockstep: true}
	for _, sc := range everyCycleScenarios() {
		t.Run(sc.name, func(t *testing.T) {
			ref := sc.straightRun(t, refMode)
			saveSys, err := sc.build(refMode)
			if err != nil {
				t.Fatal(err)
			}
			for k := uint64(1); k < ref.Cycles; k++ {
				if err := saveSys.Kernel.Run(1); err != nil {
					t.Fatal(err)
				}
				data, err := saveSys.Snapshot()
				if err != nil {
					t.Fatalf("cycle %d: %v", k, err)
				}
				if k == ref.Cycles/2 {
					checkRefSnapshot(t, sc.name, data)
				}
				m := snapDiffModes[int(k)%len(snapDiffModes)]
				warm, err := config.RestoreSystem(sc.cfg(m), data)
				if err != nil {
					t.Fatalf("cycle %d, %s: restore: %v", k, modeName(m), err)
				}
				if _, err := warm.Kernel.RunUntil(sc.done(warm), runLimit); err != nil {
					t.Fatalf("cycle %d, %s: resume: %v", k, modeName(m), err)
				}
				if got := snapshot(warm); !reflect.DeepEqual(ref, got) {
					t.Fatalf("checkpoint at cycle %d resumed under %s diverged\nstraight: %+v\nrestored: %+v",
						k, modeName(m), ref, got)
				}
			}
		})
	}
}

// TestSchedDiffSnapshotVCD demands VCD byte identity across a
// checkpoint: one VCD instance traces the save leg to K, re-attaches
// to the restored system, traces to N — and the bytes must equal the
// straight run's trace. The probes read through a mutable system
// pointer so the same variables keep sampling after the swap.
func TestSchedDiffSnapshotVCD(t *testing.T) {
	sc := gsmSnapScenario(config.MemWrapper)
	refMode := config.SystemConfig{Lockstep: false}

	probeVCD := func(buf *bytes.Buffer, cur **config.System) *sim.VCD {
		vcd := sim.NewVCD(buf, "1ns")
		vcd.AddVar("mem", "live", 16, func() uint64 { return uint64((*cur).Wrappers[0].Table().Len()) })
		vcd.AddVar("bus", "transactions", 32, func() uint64 { return (*cur).Inter.Stats().Transactions })
		return vcd
	}

	// Straight traced run.
	var straight bytes.Buffer
	sys, err := sc.build(refMode)
	if err != nil {
		t.Fatal(err)
	}
	cur := sys
	vcd := probeVCD(&straight, &cur)
	sys.Kernel.AfterCycle(vcd.Sample)
	if _, err := sys.Kernel.RunUntil(sc.done(sys), runLimit); err != nil {
		t.Fatal(err)
	}
	if err := vcd.Flush(); err != nil {
		t.Fatal(err)
	}
	checkRefVCD(t, "snapshot/"+sc.name, straight.Bytes())
	n := sys.Kernel.Cycle()

	// Checkpointed traced run: same probes, one VCD, two kernels.
	var split bytes.Buffer
	saveSys, err := sc.build(refMode)
	if err != nil {
		t.Fatal(err)
	}
	cur2 := saveSys
	vcd2 := probeVCD(&split, &cur2)
	saveSys.Kernel.AfterCycle(vcd2.Sample)
	if err := saveSys.Kernel.Run(n / 2); err != nil {
		t.Fatal(err)
	}
	data, err := saveSys.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	warm, err := config.RestoreSystem(sc.cfg(refMode), data)
	if err != nil {
		t.Fatal(err)
	}
	cur2 = warm
	warm.Kernel.AfterCycle(vcd2.Sample)
	if _, err := warm.Kernel.RunUntil(sc.done(warm), runLimit); err != nil {
		t.Fatal(err)
	}
	if err := vcd2.Flush(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(straight.Bytes(), split.Bytes()) {
		t.Fatalf("VCD diverged across checkpoint: straight %d bytes, save+restore %d bytes",
			straight.Len(), split.Len())
	}
}

// TestSnapshotFailureModes pins the loud-failure contract: damaged or
// incompatible snapshots error with a named section or a version
// message — and never restore partial state silently.
func TestSnapshotFailureModes(t *testing.T) {
	sc := gsmSnapScenario(config.MemWrapper)
	refMode := config.SystemConfig{Lockstep: true}
	sys, err := sc.build(refMode)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Kernel.Run(200); err != nil {
		t.Fatal(err)
	}
	data, err := sys.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	t.Run("corrupted", func(t *testing.T) {
		bad := append([]byte(nil), data...)
		bad[len(bad)/2] ^= 0x20
		_, err := config.RestoreSystem(sc.cfg(refMode), bad)
		if err == nil {
			t.Fatal("corrupted snapshot restored")
		}
		if !strings.Contains(err.Error(), "checksum mismatch") && !strings.Contains(err.Error(), "section") {
			t.Fatalf("corruption error not sectioned: %v", err)
		}
	})
	t.Run("truncated", func(t *testing.T) {
		for _, cut := range []int{0, 3, len(data) / 3, len(data) - 1} {
			if _, err := config.RestoreSystem(sc.cfg(refMode), data[:cut]); err == nil {
				t.Fatalf("truncated snapshot (%d bytes) restored", cut)
			}
		}
	})
	t.Run("version-mismatch", func(t *testing.T) {
		bad := append([]byte(nil), data...)
		bad[len(snaplib.Magic)] ^= 0xFF // version field
		_, err := config.RestoreSystem(sc.cfg(refMode), bad)
		if !errors.Is(err, snaplib.ErrVersion) {
			t.Fatalf("err = %v, want ErrVersion", err)
		}
	})
	t.Run("wrong-config", func(t *testing.T) {
		other := sc.cfg(refMode)
		other.MemBytes = 1 << 21
		_, err := config.RestoreSystem(other, data)
		if err == nil || !strings.Contains(err.Error(), "different configuration") {
			t.Fatalf("err = %v, want configuration mismatch", err)
		}
	})
	t.Run("scheduler-knobs-compatible", func(t *testing.T) {
		other := sc.cfg(config.SystemConfig{Lockstep: false, DisableISSBatch: true})
		if _, err := config.RestoreSystem(other, data); err != nil {
			t.Fatalf("scheduler-only change rejected: %v", err)
		}
	})
	t.Run("procs-unsupported", func(t *testing.T) {
		tr := trace.Generate(trace.GenConfig{
			Seed: 7, Events: 50, Slots: 8, NumSM: 1,
			MinDim: 4, MaxDim: 16, DType: bus.U32, Mix: trace.DefaultMix(),
		})
		cfg := refMode
		cfg.Masters, cfg.Memories, cfg.MemKind = 1, 1, config.MemWrapper
		psys, err := config.Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := psys.AddProcs(trace.ReplayTask(tr, trace.ModeDynamic, nil)); err != nil {
			t.Fatal(err)
		}
		if err := psys.Kernel.Run(50); err != nil {
			t.Fatal(err)
		}
		_, err = psys.Snapshot()
		if err == nil || !strings.Contains(err.Error(), "cannot snapshot") {
			t.Fatalf("err = %v, want unsupported-module error", err)
		}
	})
}

// TestWarmBootSweep smoke-runs the WB experiment in quick mode: the
// sweep must restore from the shared snapshot and match every cold
// run's cycle count (WB errors internally otherwise).
func TestWarmBootSweep(t *testing.T) {
	tab, err := WB(Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	out := tab.String()
	for _, v := range []string{"lockstep", "event-driven"} {
		if !strings.Contains(out, "\n"+v+" ") {
			t.Fatalf("WB table misses the %s variant:\n%s", v, out)
		}
	}
}

// sectionPayload returns the payload of the named section of a
// snapshot, following the file framing: magic, version, then per
// section a length-prefixed name, a length-prefixed payload and a CRC.
func sectionPayload(t *testing.T, data []byte, name string) []byte {
	t.Helper()
	for off := len(snaplib.Magic) + 4; off < len(data); {
		n := int(binary.LittleEndian.Uint32(data[off:]))
		sec := string(data[off+4 : off+4+n])
		off += 4 + n
		p := int(binary.LittleEndian.Uint32(data[off:]))
		if sec == name {
			return data[off+4 : off+4+p]
		}
		off += 4 + p + 4
	}
	t.Fatalf("snapshot has no section %q", name)
	return nil
}

// interBusy is the interconnect's busy-cycle count.
func interBusy(sys *config.System) uint64 { return sys.Inter.Stats().BusyCycles }

// memState is a memory section's serving state, its first byte.
func memState(p []byte) byte { return p[0] }

// skipRequest reads past a request walked by bus.Request.Walk.
func skipRequest(d *snaplib.Decoder) {
	d.U8()   // op
	d.Int()  // sm
	d.U32()  // vptr
	d.U32()  // data
	d.U32()  // dim
	d.U8()   // dtype
	d.U32s() // burst
	d.Int()  // master
	d.Bool() // excl
	d.Bool() // wb
}

// busState is the channel of a mod.bus section: 0 free, 1 moving request
// words, 2 moving response words, 3 free but held for a slave (the
// occupied protocol between a transaction's two phases).
func busState(p []byte) byte {
	d := snaplib.NewDecoder(p)
	d.Int() // masters
	d.Int() // slaves
	state := d.U8()
	d.U32() // word counter
	skipRequest(d)
	d.Int() // origin master
	d.U64() // origin tag
	if held := d.Int(); state == 0 && held != 0 {
		return 3
	}
	return state
}

// xbarState is 3 when some lane of a mod.xbar section moves request and
// response words at once, else 0.
func xbarState(p []byte) byte {
	d := snaplib.NewDecoder(p)
	d.Int() // masters
	for n := d.Int(); n > 0 && d.Err() == nil; n-- {
		rq := d.U8()
		d.U32() // request word counter
		skipRequest(d)
		d.Int() // origin master
		d.U64() // origin tag
		rs := d.U8()
		d.U32() // response word counter
		for e := d.U32(); e > 0 && d.Err() == nil; e-- {
			d.U64() // slave-port tag
			d.Int() // origin master
			d.U64() // origin tag
		}
		if rq != 0 && rs != 0 {
			return 3
		}
	}
	return 0
}

// TestSnapshotServingStatePins pins the snapshot of every memory model
// caught mid-service, and of both interconnects caught mid-transfer.
// The N/2 checkpoints of TestSchedDiffSnapshot may find a module idle;
// here each pin is taken at the first cycle of a pinned scenario whose
// section, decoded by state, shows the module in the named state. For a
// memory that is the section's first byte (1 Decode — HeapMem's busy
// state — and 2 Exec); the DRAM pin is an Exec entered with a refresh
// stall charged. For the fabric it is busState's channel or xbarState's
// doubly busy lane. counter is a statistic that grows on every cycle the
// pinned state can be entered, so only those cycles are snapshotted.
// Each pinned snapshot must restore, busy module included, and snapshot
// again to the same bytes.
func TestSnapshotServingStatePins(t *testing.T) {
	refMode := config.SystemConfig{Lockstep: true}
	type pin struct {
		name  string
		state byte
	}
	for _, tc := range []struct {
		sc      snapScenario
		mod     string
		state   func(section []byte) byte
		counter func(sys *config.System) uint64
		pins    []pin
	}{
		{gsmSnapScenario(config.MemWrapper), "wrapper0", memState,
			func(sys *config.System) uint64 { return sys.Wrappers[0].Stats().BusyCycles },
			[]pin{{"decode", 1}, {"exec", 2}}},
		{cacheSnapScenario(), "static0", memState,
			func(sys *config.System) uint64 { return sys.Statics[0].Stats().BusyCycles },
			[]pin{{"exec", 2}}},
		{dramSnapScenario(), "dram0", memState,
			func(sys *config.System) uint64 { return sys.DRAMs[0].Stats().RefreshStalls },
			[]pin{{"refresh-exec", 2}}},
		{gsmSnapScenario(config.MemHeapSim), "heapsim0", memState,
			func(sys *config.System) uint64 { return sys.Heaps[0].Stats().BusyCycles },
			[]pin{{"busy", 1}}},
		{dmaSnapScenario("dma-mlp", config.InterBus, 4, true), "bus", busState,
			interBusy, []pin{{"request", 1}, {"response", 2}}},
		{gsmSnapScenario(config.MemWrapper), "bus", busState,
			interBusy, []pin{{"held", 3}}},
		{dmaSnapScenario("dma-mlp-xbar", config.InterCrossbar, 4, true), "xbar", xbarState,
			interBusy, []pin{{"lane-both", 3}}},
	} {
		t.Run(tc.sc.name+"/"+tc.mod, func(t *testing.T) {
			sys, err := tc.sc.build(refMode)
			if err != nil {
				t.Fatal(err)
			}
			done, todo := tc.sc.done(sys), tc.pins
			for prev := tc.counter(sys); len(todo) > 0; {
				if done() {
					t.Fatalf("run ended with %s never in state %v", tc.mod, todo)
				}
				if err := sys.Kernel.Run(1); err != nil {
					t.Fatal(err)
				}
				cur := tc.counter(sys)
				grew := cur > prev
				if prev = cur; !grew {
					continue
				}
				data, err := sys.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				state := tc.state(sectionPayload(t, data, "mod."+tc.mod))
				for i, p := range todo {
					if p.state == state {
						t.Logf("%s %s at cycle %d", tc.mod, p.name, sys.Kernel.Cycle())
						checkRefSnapshot(t, tc.sc.name+"/"+tc.mod+"-"+p.name, data)
						warm, err := config.RestoreSystem(tc.sc.cfg(refMode), data)
						if err != nil {
							t.Fatalf("%s: restore: %v", p.name, err)
						}
						if again, err := warm.Snapshot(); err != nil || !bytes.Equal(again, data) {
							t.Fatalf("%s: restore + snapshot changed the bytes (err %v)", p.name, err)
						}
						todo = append(todo[:i:i], todo[i+1:]...)
						break
					}
				}
			}
		})
	}
}
