package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/alloc"
	"repro/internal/bus"
	"repro/internal/cache"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/dma"
	"repro/internal/gsm"
	"repro/internal/heapsim"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/smapi"
	"repro/internal/trace"
	"repro/internal/workload"
)

// This file is the differential harness of the kernel's scheduling
// modes: it replays every experiment configuration class across the
// kernel-mode matrix — lockstep and event-driven stepping, and the ISS
// fast paths (instruction batching, decode cache) on and off — and
// demands bit-identical observable behavior against the
// plain-interpreter lockstep reference: final cycle counts, every
// module's stats counters, golden ISS outputs (console, exit codes,
// instruction and stall counts), PE coroutine accounting, DMA outcomes
// and VCD traces.

// sysSnapshot is everything observable about a finished system.
type sysSnapshot struct {
	Cycles uint64
	Inter  bus.Stats

	Wrappers []core.Stats
	Statics  []mem.Stats
	Heaps    []heapStats
	DRAMs    []mem.DRAMStats
	Caches   []cache.Stats
	L2s      []cache.L2Stats
	CPUs     []cpuSnapshot
	Procs    []procSnapshot
	DMAs     []dmaSnapshot
}

// heapStats is heapsim.Stats in the field order schedref.json recorded
// before its service counters moved into the embedded mem.Stats: JSON
// follows declaration order, so embedding alone would change the
// recorded bytes with no counter changing. TestHeapStatsMirror keeps
// the two field sets equal.
type heapStats struct {
	Ops, Errors                                                   [bus.NumOps]uint64
	BusyCycles, MgrAccesses, MgrCycles, BurstElems, AllocFailures uint64
}

func heapStatsOf(s heapsim.Stats) heapStats {
	return heapStats{s.Ops, s.Errors, s.BusyCycles, s.MgrAccesses, s.MgrCycles, s.BurstElems, s.AllocFailures}
}

type cpuSnapshot struct {
	Exit    uint32
	Console string
	Icount  uint64
	Stalls  uint64
	Cycles  uint64
	PC      uint32
}

type dmaSnapshot struct {
	Stats dma.Stats
	Done  []dma.Status
}

type procSnapshot struct {
	OpsIssued   uint64
	ActiveWakes uint64
	WaitCycles  uint64
	SleepCycles uint64
	Retired     uint64
}

func snapshot(sys *config.System) sysSnapshot {
	s := sysSnapshot{Cycles: sys.Kernel.Cycle(), Inter: sys.Inter.Stats()}
	for _, w := range sys.Wrappers {
		s.Wrappers = append(s.Wrappers, w.Stats())
	}
	for _, r := range sys.Statics {
		s.Statics = append(s.Statics, r.Stats())
	}
	for _, h := range sys.Heaps {
		s.Heaps = append(s.Heaps, heapStatsOf(h.Stats()))
	}
	for _, d := range sys.DRAMs {
		s.DRAMs = append(s.DRAMs, d.Stats())
	}
	for _, c := range sys.Caches {
		s.Caches = append(s.Caches, c.Stats())
	}
	if sys.L2 != nil {
		s.L2s = append(s.L2s, sys.L2.Stats())
	}
	for _, c := range sys.CPUs {
		s.CPUs = append(s.CPUs, cpuSnapshot{
			Exit: c.ExitCode(), Console: c.Console(),
			Icount: c.Icount, Stalls: c.StallCycles, Cycles: c.Cycles, PC: c.PC(),
		})
	}
	for _, p := range sys.Procs {
		s.Procs = append(s.Procs, procSnapshot{
			OpsIssued: p.OpsIssued, ActiveWakes: p.ActiveWakes,
			WaitCycles: p.WaitCycles, SleepCycles: p.SleepCycles, Retired: p.RetiredTasks,
		})
	}
	for _, e := range sys.DMAs {
		s.DMAs = append(s.DMAs, dmaSnapshot{Stats: e.Stats(), Done: e.Done()})
	}
	return s
}

// TestHeapStatsMirror checks that heapStats carries every counter of
// heapsim.Stats under its own name, so the pinned observables cannot
// silently drop one.
func TestHeapStatsMirror(t *testing.T) {
	var st heapsim.Stats
	n := uint64(0)
	var fill func(v reflect.Value)
	fill = func(v reflect.Value) {
		switch v.Kind() {
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				fill(v.Field(i))
			}
		case reflect.Array:
			for i := 0; i < v.Len(); i++ {
				fill(v.Index(i))
			}
		case reflect.Uint64:
			n++
			v.SetUint(n)
		default:
			t.Fatalf("heapsim.Stats has a %s field", v.Kind())
		}
	}
	fill(reflect.ValueOf(&st).Elem())
	decode := func(x any) map[string]any {
		raw, err := json.Marshal(x)
		if err != nil {
			t.Fatal(err)
		}
		var m map[string]any
		if err := json.Unmarshal(raw, &m); err != nil {
			t.Fatal(err)
		}
		return m
	}
	if got, want := decode(heapStatsOf(st)), decode(st); !reflect.DeepEqual(got, want) {
		t.Fatalf("heapStats %v differs from heapsim.Stats %v", got, want)
	}
}

// diffModes is the kernel-mode matrix every scenario replays. The first
// entry — lockstep, ISS batching and decode cache disabled, i.e. the
// plain single-stepping interpreter — is the reference everything else
// must match bit for bit. The other legs sweep the scheduler (lockstep
// vs event-driven) and the ISS fast paths (batching and the decode
// cache, together and with batching alone off).
var diffModes = []config.SystemConfig{
	{Lockstep: true, DisableISSBatch: true, DisableISSDecodeCache: true},
	{Lockstep: true},
	{Lockstep: false, DisableISSBatch: true, DisableISSDecodeCache: true},
	{Lockstep: false},
	{Lockstep: false, DisableISSBatch: true},
}

func modeName(m config.SystemConfig) string {
	n := "event-driven"
	if m.Lockstep {
		n = "lockstep"
	}
	if m.DisableISSBatch {
		n += "/nobatch"
	}
	if m.DisableISSDecodeCache {
		n += "/nodc"
	}
	return n
}

// runBoth builds and runs one scenario in every kernel mode of
// diffModes, pins the lockstep reference against the
// committed testdata/schedref.json, compares every other mode's snapshot
// against that reference, and returns the event-driven kernel's
// scheduling stats (fast paths on) so callers can assert skipping
// engaged.
func runBoth(t *testing.T, name string, scenario func(m config.SystemConfig) (*config.System, error)) sim.SchedStats {
	t.Helper()
	var ref sysSnapshot
	var sched sim.SchedStats
	for i, m := range diffModes {
		sys, err := scenario(m)
		if err != nil {
			t.Fatalf("%s (%s): %v", name, modeName(m), err)
		}
		if got := sys.Kernel.Lockstep(); got != m.Lockstep {
			t.Fatalf("%s: kernel lockstep = %v, want %v", name, got, m.Lockstep)
		}
		snap := snapshot(sys)
		if i == 0 {
			ref = snap
			checkRef(t, name, ref)
		} else if !reflect.DeepEqual(ref, snap) {
			t.Fatalf("%s: kernel modes diverged\n%-24s %+v\n%-24s %+v",
				name, modeName(diffModes[0])+":", ref, modeName(m)+":", snap)
		}
		if !m.Lockstep && !m.DisableISSBatch && !m.DisableISSDecodeCache {
			sched = sys.Kernel.Sched()
		}
	}
	return sched
}

// TestSchedDiffGSMISS is the paper's E1 configuration: ISSs running the
// GSM traffic kernel over the shared bus against wrapper memories.
func TestSchedDiffGSMISS(t *testing.T) {
	for _, tc := range []struct{ nISS, nMem int }{{1, 1}, {4, 1}, {4, 4}} {
		name := fmt.Sprintf("gsm-iss-%dx%d", tc.nISS, tc.nMem)
		runBoth(t, name, func(m config.SystemConfig) (*config.System, error) {
			cfg := m
			cfg.Masters, cfg.Memories, cfg.MemKind = tc.nISS, tc.nMem, config.MemWrapper
			sys, err := config.Build(cfg)
			if err != nil {
				return nil, err
			}
			var progs [][]byte
			for i := 0; i < tc.nISS; i++ {
				p, err := isa.Assemble(workload.GSMKernelSource(workload.GSMKernelConfig{
					Frames: 2, SM: i % tc.nMem, Seed: uint32(i + 1),
				}))
				if err != nil {
					return nil, err
				}
				progs = append(progs, p.Code)
			}
			if err := sys.AddCPUs(progs...); err != nil {
				return nil, err
			}
			if _, err := sys.Kernel.RunUntil(sys.CPUsHalted, runLimit); err != nil {
				return nil, err
			}
			return sys, nil
		})
	}
}

// TestSchedDiffCrossbar is the A1 ablation topology.
func TestSchedDiffCrossbar(t *testing.T) {
	runBoth(t, "crossbar", func(m config.SystemConfig) (*config.System, error) {
		cfg := m
		cfg.Masters, cfg.Memories, cfg.MemKind = 2, 2, config.MemWrapper
		cfg.Interconnect = config.InterCrossbar
		sys, err := config.Build(cfg)
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
		if _, err := sys.Kernel.RunUntil(sys.CPUsHalted, runLimit); err != nil {
			return nil, err
		}
		return sys, nil
	})
}

// TestSchedDiffPipeline is the E1b configuration: the bit-exact GSM
// codec on native PEs.
func TestSchedDiffPipeline(t *testing.T) {
	const frames = 3
	runBoth(t, "gsm-pipeline", func(m config.SystemConfig) (*config.System, error) {
		tasks, res := gsm.BuildPipeline(gsm.PipelineConfig{Frames: frames, Seed: 42, NumSM: 2})
		cfg := m
		cfg.Masters, cfg.Memories, cfg.MemKind = 4, 2, config.MemWrapper
		sys, err := config.Build(cfg)
		if err != nil {
			return nil, err
		}
		if err := sys.AddProcs(tasks...); err != nil {
			return nil, err
		}
		if _, err := sys.Kernel.RunUntil(sys.ProcsDone, runLimit); err != nil {
			return nil, err
		}
		if res.Frames != frames {
			return nil, fmt.Errorf("pipeline delivered %d/%d frames", res.Frames, frames)
		}
		return sys, nil
	})
}

// TestSchedDiffTraceReplay covers every memory model on the same trace,
// in both the default and an idle-heavy delay configuration. The
// idle-heavy wrapper run must actually skip — it is the configuration
// the tentpole exists for.
func TestSchedDiffTraceReplay(t *testing.T) {
	tr := trace.Generate(trace.GenConfig{
		Seed: 41, Events: 1200, Slots: 16, NumSM: 1,
		MinDim: 4, MaxDim: 64, DType: bus.U32, Mix: trace.DefaultMix(), PtrArithPct: 20,
	})
	for _, tc := range []struct {
		name  string
		kind  config.MemKind
		mode  trace.Mode
		heavy bool
	}{
		{"wrapper", config.MemWrapper, trace.ModeDynamic, false},
		{"wrapper-idle-heavy", config.MemWrapper, trace.ModeDynamic, true},
		{"static", config.MemStatic, trace.ModeStatic, false},
		{"heapsim", config.MemHeapSim, trace.ModeDynamic, false},
	} {
		sched := runBoth(t, "trace-"+tc.name, func(m config.SystemConfig) (*config.System, error) {
			cfg := m
			cfg.Masters, cfg.Memories, cfg.MemKind = 1, 1, tc.kind
			cfg.MemBytes = 1 << 22
			if tc.heavy {
				d := evDelays()
				cfg.WrapperDelays = &d
			}
			sys, err := config.Build(cfg)
			if err != nil {
				return nil, err
			}
			if err := sys.AddProcs(trace.ReplayTask(tr, tc.mode, nil)); err != nil {
				return nil, err
			}
			if _, err := sys.Kernel.RunUntil(sys.ProcsDone, runLimit); err != nil {
				return nil, err
			}
			return sys, nil
		})
		if tc.heavy && sched.Skipped == 0 {
			t.Fatalf("trace-%s: event-driven run skipped nothing", tc.name)
		}
	}
}

// TestSchedDiffDMA wires the heterogeneous-master topology: a native PE
// staging buffers, a DMA engine copying between two wrappers.
func TestSchedDiffDMA(t *testing.T) {
	runBoth(t, "dma", func(m config.SystemConfig) (*config.System, error) {
		delays := evDelays()
		cfg := m
		cfg.Masters, cfg.Memories, cfg.MemKind = 2, 2, config.MemWrapper
		cfg.WrapperDelays = &delays
		sys, err := config.Build(cfg)
		if err != nil {
			return nil, err
		}
		var eng *dma.Engine
		peTask := func(ctx *smapi.Ctx) {
			m0, m1 := ctx.Mem(0), ctx.Mem(1)
			src, code := m0.Malloc(64, bus.U32)
			if code != bus.OK {
				panic(code)
			}
			for j := uint32(0); j < 64; j++ {
				if code := m0.Write(src+4*j, 0xA000+j); code != bus.OK {
					panic(code)
				}
			}
			dst, code := m1.Malloc(64, bus.U32)
			if code != bus.OK {
				panic(code)
			}
			eng.Enqueue(dma.Descriptor{
				SrcSM: 0, DstSM: 1, SrcVPtr: src, DstVPtr: dst, Elems: 64, DType: bus.U32, Chunk: 16,
			})
			for !eng.Idle() {
				ctx.Sleep(25)
			}
			got, code := m1.ReadArray(dst, 64)
			if code != bus.OK {
				panic(code)
			}
			for j, v := range got {
				if v != 0xA000+uint32(j) {
					panic("dma copy corrupted")
				}
			}
		}
		if err := sys.AddProcs(peTask); err != nil {
			return nil, err
		}
		if eng, err = sys.AddDMA(1, "dma"); err != nil {
			return nil, err
		}
		if _, err := sys.Kernel.RunUntil(sys.ProcsDone, runLimit); err != nil {
			return nil, err
		}
		return sys, nil
	})
}

// TestSchedDiffDMAEdges pins the engine's corner paths at port depth 1
// (occupied bus) and 4 (split bus): a zero-element descriptor, a dangling
// source, a dangling destination, and a forward-overlapping same-memory
// copy (the overlap guard serializes it at every depth). Each is followed
// by a good copy, so the cycle at which the engine moves on is part of
// the reference along with every Status and the busy-cycle count.
func TestSchedDiffDMAEdges(t *testing.T) {
	const elems, chunk = 64, 16
	for _, tc := range []struct {
		name string
		edge func(src, dst uint32) dma.Descriptor
	}{
		{"empty", func(src, dst uint32) dma.Descriptor {
			return dma.Descriptor{SrcSM: 0, DstSM: 1, SrcVPtr: src, DstVPtr: dst, Elems: 0}
		}},
		{"badsrc", func(src, dst uint32) dma.Descriptor {
			return dma.Descriptor{SrcSM: 0, DstSM: 1, SrcVPtr: 0xDEAD00, DstVPtr: dst, Elems: elems}
		}},
		{"baddst", func(src, dst uint32) dma.Descriptor {
			return dma.Descriptor{SrcSM: 0, DstSM: 1, SrcVPtr: src, DstVPtr: 0xDEAD00, Elems: elems}
		}},
		{"overlap", func(src, dst uint32) dma.Descriptor {
			return dma.Descriptor{SrcSM: 0, DstSM: 0, SrcVPtr: src, DstVPtr: src + 4*chunk, Elems: elems}
		}},
	} {
		for _, depth := range []int{1, 4} {
			name := fmt.Sprintf("dma-%s-d%d", tc.name, depth)
			runBoth(t, name, func(m config.SystemConfig) (*config.System, error) {
				cfg := m
				cfg.Masters, cfg.Memories, cfg.MemKind = 1, 2, config.MemWrapper
				cfg.OutstandingDepth, cfg.SplitBus = depth, depth > 1
				sys, err := config.Build(cfg)
				if err != nil {
					return nil, err
				}
				src, code := sys.Wrappers[0].Table().Alloc(elems+chunk, bus.U32)
				if code != bus.OK {
					return nil, fmt.Errorf("src alloc: %v", code)
				}
				dst, code := sys.Wrappers[1].Table().Alloc(elems, bus.U32)
				if code != bus.OK {
					return nil, fmt.Errorf("dst alloc: %v", code)
				}
				eng, err := sys.AddDMA(0, "dma0")
				if err != nil {
					return nil, err
				}
				d := tc.edge(src, dst)
				d.DType, d.Chunk = bus.U32, chunk
				eng.Enqueue(d)
				eng.Enqueue(dma.Descriptor{
					SrcSM: 0, DstSM: 1, SrcVPtr: src, DstVPtr: dst, Elems: elems, DType: bus.U32, Chunk: chunk,
				})
				if _, err := sys.Kernel.RunUntil(eng.Idle, runLimit); err != nil {
					return nil, err
				}
				if done := eng.Done(); len(done) != 2 || done[1].Err != bus.OK || done[1].Moved != elems {
					return nil, fmt.Errorf("outcome %+v", done)
				}
				return sys, nil
			})
		}
	}
}

// TestSchedDiffReservation is the E8 coherence configuration: PEs
// contending on one reserved buffer with sleep-based backoff.
func TestSchedDiffReservation(t *testing.T) {
	const pes, sections = 3, 12
	runBoth(t, "reservation", func(m config.SystemConfig) (*config.System, error) {
		var vptr uint32
		var ready bool
		var doneCount int
		alloc := func(ctx *smapi.Ctx) {
			m := ctx.Mem(0)
			v, code := m.Malloc(4, bus.U32)
			if code != bus.OK {
				panic(code)
			}
			vptr, ready = v, true
			for doneCount < pes {
				ctx.Sleep(100)
			}
		}
		worker := func(ctx *smapi.Ctx) {
			m := ctx.Mem(0)
			for !ready {
				ctx.Sleep(2)
			}
			for s := 0; s < sections; s++ {
				if code := m.Acquire(vptr, 3); code != bus.OK {
					panic(code)
				}
				v, _ := m.Read(vptr)
				if code := m.Write(vptr, v+1); code != bus.OK {
					panic(code)
				}
				if code := m.Release(vptr); code != bus.OK {
					panic(code)
				}
			}
			doneCount++
		}
		tasks := []smapi.Task{alloc}
		for j := 0; j < pes; j++ {
			tasks = append(tasks, worker)
		}
		cfg := m
		cfg.Masters, cfg.Memories, cfg.MemKind = pes+1, 1, config.MemWrapper
		sys, err := config.Build(cfg)
		if err != nil {
			return nil, err
		}
		if err := sys.AddProcs(tasks...); err != nil {
			return nil, err
		}
		if _, err := sys.Kernel.RunUntil(sys.ProcsDone, runLimit); err != nil {
			return nil, err
		}
		return sys, nil
	})
}

// TestSchedDiffVCD demands byte-identical waveforms: the interconnect
// handshake signals of a delay-heavy run traced in both modes.
func TestSchedDiffVCD(t *testing.T) {
	tr := trace.Generate(trace.GenConfig{
		Seed: 51, Events: 300, Slots: 8, NumSM: 1,
		MinDim: 4, MaxDim: 32, DType: bus.U32, Mix: trace.DefaultMix(),
	})
	dumps := make([]bytes.Buffer, len(diffModes))
	for i, m := range diffModes {
		delays := evDelays()
		cfg := m
		cfg.Masters, cfg.Memories, cfg.MemKind = 1, 1, config.MemWrapper
		cfg.WrapperDelays = &delays
		sys, err := config.Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		vcd := sim.NewVCD(&dumps[i], "1ns")
		wr := sys.Wrappers[0]
		vcd.AddVar("mem", "live", 16, func() uint64 { return uint64(wr.Table().Len()) })
		ist := func() uint64 { return sys.Inter.Stats().Transactions }
		vcd.AddVar("bus", "transactions", 32, ist)
		sys.Kernel.AfterCycle(vcd.Sample)
		if err := sys.AddProcs(trace.ReplayTask(tr, trace.ModeDynamic, nil)); err != nil {
			t.Fatal(err)
		}
		if _, err := sys.Kernel.RunUntil(sys.ProcsDone, runLimit); err != nil {
			t.Fatal(err)
		}
		if err := vcd.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	checkRefVCD(t, "trace-wrapper-idle-heavy", dumps[0].Bytes())
	for i := 1; i < len(dumps); i++ {
		if !bytes.Equal(dumps[0].Bytes(), dumps[i].Bytes()) {
			t.Fatalf("VCD dumps diverged (%s %d bytes vs %s %d bytes)",
				modeName(diffModes[0]), dumps[0].Len(), modeName(diffModes[i]), dumps[i].Len())
		}
	}
}

// TestSchedDiffExperimentSuite replays the full quick experiment suite
// in lockstep and asserts nothing errors — together with the scenario
// tests above this pins every Ex configuration in both modes.
func TestSchedDiffExperimentSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("full suite replay")
	}
	o := Options{Quick: true, Base: config.SystemConfig{Lockstep: true}}
	if _, err := E1(o); err != nil {
		t.Fatal(err)
	}
	if _, err := E2(o); err != nil {
		t.Fatal(err)
	}
	if _, err := E3(o); err != nil {
		t.Fatal(err)
	}
	if _, err := E4(o); err != nil {
		t.Fatal(err)
	}
	if _, err := EV(Options{Quick: true}); err != nil {
		t.Fatal(err)
	}
}

// TestSchedDiffAllocPolicy extends the matrix to non-default allocation
// policies: a heapsim memory running its metadata allocator as a binary
// buddy (manager accesses charged cycles — policy choice changes the
// simulated timing, so it must be identical across every kernel mode)
// and a wrapper whose virtual placement runs segregated fit (address
// reuse must be scheduler-invariant). Each scenario replays lockstep ×
// event-driven × ISS fast paths and must match the lockstep reference
// bit for bit — stats, golden ISS/PE
// output, cycle counts.
func TestSchedDiffAllocPolicy(t *testing.T) {
	for _, sc := range allocPolicyScenarios() {
		runBoth(t, "alloc-"+sc.name, func(m config.SystemConfig) (*config.System, error) {
			sys, err := sc.build(m)
			if err != nil {
				return nil, err
			}
			if _, err := sys.Kernel.RunUntil(sys.ProcsDone, runLimit); err != nil {
				return nil, err
			}
			return sys, nil
		})
	}
}

// allocPolicyScenarios build the systems of TestSchedDiffAllocPolicy —
// one trace replayed on a heapsim or wrapper memory under each of the
// named allocation policies — ready to run until sys.ProcsDone.
func allocPolicyScenarios() []snapScenario {
	tr := trace.Generate(trace.GenConfig{
		Seed: 61, Events: 1200, Slots: 16, NumSM: 1,
		MinDim: 4, MaxDim: 64, DType: bus.U32, Mix: trace.DefaultMix(), PtrArithPct: 20,
	})
	var scs []snapScenario
	for _, tc := range []struct {
		name   string
		kind   config.MemKind
		policy alloc.Kind
	}{
		{"heapsim-buddy", config.MemHeapSim, alloc.Buddy},
		{"heapsim-segregated", config.MemHeapSim, alloc.Segregated},
		{"wrapper-segregated", config.MemWrapper, alloc.Segregated},
		{"wrapper-bestfit", config.MemWrapper, alloc.BestFit},
	} {
		scs = append(scs, snapScenario{name: tc.name, build: func(m config.SystemConfig) (*config.System, error) {
			cfg := m
			cfg.Masters, cfg.Memories, cfg.MemKind = 1, 1, tc.kind
			cfg.MemBytes = 1 << 22
			cfg.AllocPolicy = tc.policy
			sys, err := config.Build(cfg)
			if err != nil {
				return nil, err
			}
			// The policy must actually be in force, not silently defaulted.
			switch tc.kind {
			case config.MemHeapSim:
				if got := sys.Heaps[0].Heap().Policy(); got != tc.policy {
					return nil, fmt.Errorf("heap policy = %v, want %v", got, tc.policy)
				}
			case config.MemWrapper:
				if got := sys.Wrappers[0].Table().PlacementPolicy(); got != tc.policy {
					return nil, fmt.Errorf("placement policy = %v, want %v", got, tc.policy)
				}
			}
			if err := sys.AddProcs(trace.ReplayTask(tr, trace.ModeDynamic, nil)); err != nil {
				return nil, err
			}
			return sys, nil
		}, done: func(sys *config.System) func() bool { return sys.ProcsDone }})
	}
	return scs
}

// TestSchedDiffSplitPort extends the matrix along the transaction-
// protocol axes: outstanding depth {1, 4} × {occupied, split} × {bus,
// crossbar}, each replayed across the full kernel-mode matrix (lockstep
// × event-driven × ISS fast paths) on two workloads that exercise the
// port machinery end-to-end — the 4-ISS GSM configuration (single-
// outstanding masters over multi-depth ports) and a DMA copy pipeline
// (genuinely multi-outstanding at depth 4). Depth 1 occupied is the
// pre-refactor Link protocol, already pinned bit-identically by the
// unit tests and ISS goldens; here every (depth, protocol) point must
// additionally be scheduler-invariant.
func TestSchedDiffSplitPort(t *testing.T) {
	for _, inter := range []config.InterconnectKind{config.InterBus, config.InterCrossbar} {
		for _, depth := range []int{1, 4} {
			for _, split := range []bool{false, true} {
				name := fmt.Sprintf("gsm-%s-d%d-split%v", inter, depth, split)
				runBoth(t, name, func(m config.SystemConfig) (*config.System, error) {
					cfg := m
					cfg.Masters, cfg.Memories, cfg.MemKind = 4, 4, config.MemWrapper
					cfg.Interconnect, cfg.OutstandingDepth, cfg.SplitBus = inter, depth, split
					sys, err := config.Build(cfg)
					if err != nil {
						return nil, err
					}
					var progs [][]byte
					for i := 0; i < 4; i++ {
						p, err := isa.Assemble(workload.GSMKernelSource(workload.GSMKernelConfig{
							Frames: 1, SM: i, Seed: uint32(i + 1),
						}))
						if err != nil {
							return nil, err
						}
						progs = append(progs, p.Code)
					}
					if err := sys.AddCPUs(progs...); err != nil {
						return nil, err
					}
					if _, err := sys.Kernel.RunUntil(sys.CPUsHalted, runLimit); err != nil {
						return nil, err
					}
					return sys, nil
				})
			}
		}
	}
}

// TestSchedDiffMLP replays the E10 memory-level-parallelism workload —
// the deepest exercise of multi-outstanding ports, split response
// re-arbitration and DMA double-buffering — across the kernel-mode
// matrix at the interesting protocol points.
func TestSchedDiffMLP(t *testing.T) {
	for _, tc := range []struct {
		inter config.InterconnectKind
		depth int
		split bool
	}{
		{config.InterBus, 1, false},
		{config.InterBus, 4, true},
		{config.InterCrossbar, 4, true},
	} {
		name := fmt.Sprintf("mlp-%s-d%d-split%v", tc.inter, tc.depth, tc.split)
		runBoth(t, name, func(m config.SystemConfig) (*config.System, error) {
			m.OutstandingDepth, m.SplitBus = tc.depth, tc.split
			sys, err := buildMLP(nil, m, 2, 512, tc.inter)
			if err != nil {
				return nil, err
			}
			return sys, nil
		})
	}
}

// TestSchedDiffCache extends the matrix to the coherent cache hierarchy:
// the E11 coherence/locality workload — private L1s, MESI snooping on
// the interconnect, false-sharing invalidation traffic — replayed across
// the kernel-mode matrix at the interesting protocol points. Cache-on
// runs must be bit-identical (cycles, every cache's hit/miss/snoop
// counters, static RAM stats, PE accounting) across lockstep ×
// event-driven × ISS fast paths; RunCache additionally verifies the
// final memory image inside every leg. Cache-off equivalence to the
// PR 4 behavior is pinned by every pre-existing differential and golden
// test — the uncached build path is untouched.
func TestSchedDiffCache(t *testing.T) {
	locality, sharing := E11Workload(Options{Quick: true})
	for _, tc := range []struct {
		name  string
		w     CacheWorkload
		inter config.InterconnectKind
		depth int
		split bool
	}{
		{"locality-bus-d1", locality, config.InterBus, 1, false},
		{"sharing-bus-d1", sharing, config.InterBus, 1, false},
		{"sharing-bus-d4-split", sharing, config.InterBus, 4, true},
		{"sharing-xbar-d4-split", sharing, config.InterCrossbar, 4, true},
	} {
		runBoth(t, "cache-"+tc.name, func(m config.SystemConfig) (*config.System, error) {
			m.OutstandingDepth, m.SplitBus = tc.depth, tc.split
			r, sys, err := RunCache(nil, m, tc.w, true, tc.inter)
			if err != nil {
				return nil, err
			}
			if r.Hits == 0 {
				return nil, fmt.Errorf("cache-on run served no hits")
			}
			return sys, nil
		})
	}
}

// TestSchedDiffL2 extends the matrix to the two-level hierarchy: the
// E12 asymmetric thrasher/reuse workload behind the shared inclusive
// L2, swept over memory model (static, banked DRAM open- and
// close-page with refresh), partition policy (shared LRU, SWP, UCP)
// and an L2-off DRAM control. Every leg must be bit-identical across
// lockstep × event-driven × ISS fast paths: cycle counts, L2
// hit/miss/back-invalidation/repartition counters, DRAM row and
// refresh counters, L1 and PE accounting. RunE12 additionally verifies
// the exact final memory image inside every leg.
func TestSchedDiffL2(t *testing.T) {
	w := E12Params(Options{Quick: true})
	for _, tc := range []struct {
		name      string
		part      cache.PartitionKind
		dram      bool
		closePage bool
	}{
		{"static-lru", cache.PartNone, false, false},
		{"static-swp", cache.PartSWP, false, false},
		{"static-ucp", cache.PartUCP, false, false},
		{"dram-open-ucp", cache.PartUCP, true, false},
		{"dram-close-lru", cache.PartNone, true, true},
	} {
		runBoth(t, "l2-"+tc.name, func(m config.SystemConfig) (*config.System, error) {
			if tc.dram {
				m.MemKind = config.MemDRAM
			}
			m.DRAMClosePage = tc.closePage
			r, sys, err := RunE12(nil, m, w, tc.part)
			if err != nil {
				return nil, err
			}
			if r.L2.Hits == 0 {
				return nil, fmt.Errorf("L2 served no hits")
			}
			return sys, nil
		})
	}
	// L2-off control on the banked DRAM: the E11 locality workload with
	// private L1s straight onto the DRAM, pinning the DRAM timing model
	// alone across the kernel-mode matrix.
	locality, _ := E11Workload(Options{Quick: true})
	runBoth(t, "l2-off-dram", func(m config.SystemConfig) (*config.System, error) {
		m.MemKind = config.MemDRAM
		_, sys, err := RunCache(nil, m, locality, true, config.InterBus)
		if err != nil {
			return nil, err
		}
		if len(sys.DRAMs) == 0 {
			return nil, fmt.Errorf("no DRAM built")
		}
		return sys, nil
	})
}

// TestSchedDiffCacheTraceReplay covers the single-master cached trace
// replay (the internal/trace coverage scenario) across the kernel-mode
// matrix, including out-of-order completion delivery on the master port.
func TestSchedDiffCacheTraceReplay(t *testing.T) {
	tr := trace.Generate(trace.GenConfig{
		Seed: 71, Events: 900, Slots: 16, NumSM: 1,
		MinDim: 4, MaxDim: 64, DType: bus.U32, Mix: trace.DefaultMix(), PtrArithPct: 20,
	})
	for _, ooo := range []bool{false, true} {
		runBoth(t, fmt.Sprintf("cache-trace-ooo=%v", ooo), func(m config.SystemConfig) (*config.System, error) {
			m.Cache, m.Coherent, m.OutOfOrder = true, true, ooo
			_, sys, err := RunTrace(nil, m, config.MemStatic, tr, trace.ModeStatic, 0)
			if err != nil {
				return nil, err
			}
			if sys.Caches[0].Stats().Hits == 0 {
				return nil, fmt.Errorf("cached replay served no hits")
			}
			return sys, nil
		})
	}
}
