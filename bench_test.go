package repro

// One benchmark per experiment of DESIGN.md §5 / EXPERIMENTS.md. Each
// iteration builds a fresh system and runs the complete seeded workload;
// the custom "simcycles/s" metric is the simulation speed the paper
// reports (its single result, E1, is the degradation of that metric
// between the one-memory and four-memory configurations).
//
// Run with: go test -bench=. -benchmem

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/alloc"
	"repro/internal/bus"
	"repro/internal/cache"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/gsm"
	"repro/internal/isa"
	"repro/internal/service"
	"repro/internal/smapi"
	"repro/internal/trace"
	"repro/internal/workload"
)

// reportSimSpeed attaches the simulated-cycles-per-host-second metric.
func reportSimSpeed(b *testing.B, totalCycles uint64) {
	b.Helper()
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(float64(totalCycles)/s, "simcycles/s")
	}
}

func benchGSMISS(b *testing.B, nISS, nMem, frames int) {
	b.Helper()
	benchGSMISSMode(b, nISS, nMem, frames, config.SystemConfig{})
}

// benchGSMISSMode is benchGSMISS with an explicit kernel mode (the PAR
// family sweeps worker counts through it).
func benchGSMISSMode(b *testing.B, nISS, nMem, frames int, m config.SystemConfig) {
	b.Helper()
	var total uint64
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunGSMISS(nil, m, nISS, nMem, frames)
		if err != nil {
			b.Fatal(err)
		}
		total += r.Cycles
	}
	reportSimSpeed(b, total)
}

// --- E1: the paper's headline result -------------------------------------

func BenchmarkE1_FourISS_OneMem(b *testing.B)  { benchGSMISS(b, 4, 1, 10) }
func BenchmarkE1_FourISS_FourMem(b *testing.B) { benchGSMISS(b, 4, 4, 10) }

// --- E1b: native-PE bit-exact pipeline ------------------------------------

func benchPipeline(b *testing.B, nMem, frames int) {
	b.Helper()
	var total uint64
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunGSMPipeline(nil, config.SystemConfig{}, nMem, frames)
		if err != nil {
			b.Fatal(err)
		}
		total += r.Cycles
	}
	reportSimSpeed(b, total)
}

func BenchmarkE1b_Pipeline_OneMem(b *testing.B)  { benchPipeline(b, 1, 8) }
func BenchmarkE1b_Pipeline_FourMem(b *testing.B) { benchPipeline(b, 4, 8) }

// --- E2: wrapper overhead vs static table ---------------------------------

func e2Trace() *trace.Trace {
	return trace.Generate(trace.GenConfig{
		Seed: 21, Events: 8000, Slots: 32, NumSM: 1,
		MinDim: 8, MaxDim: 256, DType: bus.U32,
		Mix:         trace.Mix{Alloc: 1, Read: 45, Write: 30, ReadBurst: 12, WriteBurst: 12},
		PtrArithPct: 25,
	})
}

func benchTrace(b *testing.B, kind config.MemKind, tr *trace.Trace, mode trace.Mode, memBytes uint32) {
	b.Helper()
	var total uint64
	for i := 0; i < b.N; i++ {
		r, _, err := experiments.RunTrace(nil, config.SystemConfig{}, kind, tr, mode, memBytes)
		if err != nil {
			b.Fatal(err)
		}
		total += r.Cycles
	}
	reportSimSpeed(b, total)
}

func BenchmarkE2_WrapperRW(b *testing.B) {
	benchTrace(b, config.MemWrapper, e2Trace(), trace.ModeDynamic, 0)
}

func BenchmarkE2_StaticRW(b *testing.B) {
	benchTrace(b, config.MemStatic, e2Trace(), trace.ModeStatic, 0)
}

// --- E3: wrapper vs detailed in-simulation allocator ----------------------

func e3Trace(slots int) *trace.Trace {
	return trace.Generate(trace.GenConfig{
		Seed: 31, Events: 4000, Slots: slots, NumSM: 1,
		MinDim: 8, MaxDim: 128, DType: bus.U32,
		Mix: trace.Mix{Alloc: 30, Free: 28, Read: 21, Write: 21},
	})
}

func BenchmarkE3_WrapperChurn(b *testing.B) {
	benchTrace(b, config.MemWrapper, e3Trace(64), trace.ModeDynamic, 1<<22)
}

func BenchmarkE3_HeapsimChurn(b *testing.B) {
	benchTrace(b, config.MemHeapSim, e3Trace(64), trace.ModeDynamic, 1<<22)
}

// --- E4: delay-parameter sensitivity (host cost must stay flat) -----------

func BenchmarkE4_DelaySensitivity(b *testing.B) {
	tr := trace.Generate(trace.GenConfig{
		Seed: 41, Events: 5000, Slots: 16, NumSM: 1,
		MinDim: 4, MaxDim: 64, DType: bus.U32, Mix: trace.DefaultMix(),
	})
	for _, d := range []uint32{1, 16, 64} {
		b.Run(fmt.Sprintf("rwdelay=%d", d), func(b *testing.B) {
			delays := core.DefaultDelays()
			delays.Read, delays.Write = d, d
			var total uint64
			for i := 0; i < b.N; i++ {
				sys, err := config.Build(config.SystemConfig{
					Masters: 1, Memories: 1, MemKind: config.MemWrapper, WrapperDelays: &delays,
				})
				if err != nil {
					b.Fatal(err)
				}
				if err := sys.AddProcs(trace.ReplayTask(tr, trace.ModeDynamic, nil)); err != nil {
					b.Fatal(err)
				}
				if _, err := sys.Kernel.RunUntil(sys.ProcsDone, 1<<40); err != nil {
					b.Fatal(err)
				}
				total += sys.Kernel.Cycle()
			}
			reportSimSpeed(b, total)
		})
	}
}

// --- EV: event-driven kernel vs lockstep -----------------------------------

// benchEV runs the EV idle-heavy workload (high-latency wrapper, mixed
// trace) in one scheduling mode; the pair quantifies the idle-skip win.
func benchEV(b *testing.B, lockstep bool) {
	b.Helper()
	var total uint64
	for i := 0; i < b.N; i++ {
		r, _, err := experiments.RunEV(nil, config.SystemConfig{Lockstep: lockstep}, 4000)
		if err != nil {
			b.Fatal(err)
		}
		total += r.Cycles
	}
	reportSimSpeed(b, total)
}

func BenchmarkEV_Lockstep(b *testing.B)    { benchEV(b, true) }
func BenchmarkEV_EventDriven(b *testing.B) { benchEV(b, false) }

// --- PAR: sharded parallel tick engine --------------------------------------

// benchPAR sweeps the worker count on a CPU-bound E1-class configuration
// (ISSs retire an instruction every cycle, so idle-skip cannot help and
// only parallel ticking can). workers=1 is the sequential reference;
// speedup requires host cores (the -cpu flag / GOMAXPROCS governs how
// many the pool can actually use).
func benchPAR(b *testing.B, nISS, nMem int) {
	b.Helper()
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			benchGSMISSMode(b, nISS, nMem, 10, config.SystemConfig{Workers: w})
		})
	}
}

func BenchmarkPAR_FourISS_FourMem(b *testing.B) { benchPAR(b, 4, 4) }
func BenchmarkPAR_FourISS_OneMem(b *testing.B)  { benchPAR(b, 4, 1) }

// BenchmarkPAR_PlainISS is the pre-optimization reference: the same 4×4
// configuration on the sequential kernel with the ISS fast paths
// (instruction batching, decode cache) disabled. The gap to
// PAR_FourISS_FourMem/workers=1 is the single-thread interpreter win;
// the workers=1 → workers=4 gap (CI-gated via benchjson -speedup) is
// the parallel win on top of it.
func BenchmarkPAR_PlainISS(b *testing.B) {
	benchGSMISSMode(b, 4, 4, 10, config.SystemConfig{Workers: 1, DisableISSBatch: true, DisableISSDecodeCache: true})
}

// --- E5: degradation curves ------------------------------------------------

func BenchmarkE5_MemSweep(b *testing.B) {
	for _, m := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("mems=%d", m), func(b *testing.B) { benchGSMISS(b, 4, m, 8) })
	}
}

func BenchmarkE5_ISSSweep(b *testing.B) {
	for _, n := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("isses=%d", n), func(b *testing.B) { benchGSMISS(b, n, 1, 8) })
	}
}

// --- E6: live dynamic data sweep -------------------------------------------

func BenchmarkE6_LiveSet(b *testing.B) {
	for _, target := range []uint32{1 << 14, 1 << 18, 1 << 22} {
		b.Run(fmt.Sprintf("bytes=%d", target), func(b *testing.B) {
			const bufBytes = 1 << 12
			n := int(target / bufBytes)
			if n == 0 {
				n = 1
			}
			var total uint64
			for i := 0; i < b.N; i++ {
				task := func(ctx *smapi.Ctx) {
					m := ctx.Mem(0)
					vs := make([]uint32, 0, n)
					for j := 0; j < n; j++ {
						v, code := m.Malloc(bufBytes/4, bus.U32)
						if code != bus.OK {
							panic(code)
						}
						if code := m.Write(v, uint32(j)); code != bus.OK {
							panic(code)
						}
						vs = append(vs, v)
					}
					for _, v := range vs {
						if code := m.Free(v); code != bus.OK {
							panic(code)
						}
					}
				}
				sys, err := config.Build(config.SystemConfig{
					Masters: 1, Memories: 1, MemKind: config.MemWrapper,
					MemBytes: target + bufBytes,
				})
				if err != nil {
					b.Fatal(err)
				}
				if err := sys.AddProcs(task); err != nil {
					b.Fatal(err)
				}
				if _, err := sys.Kernel.RunUntil(sys.ProcsDone, 1<<40); err != nil {
					b.Fatal(err)
				}
				total += sys.Kernel.Cycle()
			}
			reportSimSpeed(b, total)
		})
	}
}

// --- E7: pointer arithmetic ------------------------------------------------

func BenchmarkE7_PtrArith(b *testing.B) {
	for _, slots := range []int{10, 1000} {
		for _, pct := range []int{0, 100} {
			b.Run(fmt.Sprintf("slots=%d/arith=%d%%", slots, pct), func(b *testing.B) {
				tr := experiments.PtrArithTrace(slots, 6000, pct, 71)
				benchTrace(b, config.MemWrapper, tr, trace.ModeDynamic, 1<<26)
			})
		}
	}
}

// --- E8: reservation contention ---------------------------------------------

func BenchmarkE8_Reservation(b *testing.B) {
	for _, pes := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("pes=%d", pes), func(b *testing.B) {
			var total uint64
			for i := 0; i < b.N; i++ {
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
					for s := 0; s < 50; s++ {
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
				sys, err := config.Build(config.SystemConfig{
					Masters: pes + 1, Memories: 1, MemKind: config.MemWrapper,
				})
				if err != nil {
					b.Fatal(err)
				}
				if err := sys.AddProcs(tasks...); err != nil {
					b.Fatal(err)
				}
				if _, err := sys.Kernel.RunUntil(sys.ProcsDone, 1<<40); err != nil {
					b.Fatal(err)
				}
				total += sys.Kernel.Cycle()
			}
			reportSimSpeed(b, total)
		})
	}
}

// --- A1: interconnect ablation ----------------------------------------------

func benchInterconnect(b *testing.B, ic config.InterconnectKind) {
	b.Helper()
	var total uint64
	for i := 0; i < b.N; i++ {
		sys, err := config.Build(config.SystemConfig{
			Masters: 4, Memories: 4, MemKind: config.MemWrapper, Interconnect: ic,
		})
		if err != nil {
			b.Fatal(err)
		}
		var progs [][]byte
		for j := 0; j < 4; j++ {
			p, err := isa.Assemble(workload.GSMKernelSource(workload.GSMKernelConfig{
				Frames: 8, SM: j, Seed: uint32(j + 1),
			}))
			if err != nil {
				b.Fatal(err)
			}
			progs = append(progs, p.Code)
		}
		if err := sys.AddCPUs(progs...); err != nil {
			b.Fatal(err)
		}
		if _, err := sys.Kernel.RunUntil(sys.CPUsHalted, 1<<40); err != nil {
			b.Fatal(err)
		}
		total += sys.Kernel.Cycle()
	}
	reportSimSpeed(b, total)
}

func BenchmarkA1_SharedBus(b *testing.B) { benchInterconnect(b, config.InterBus) }
func BenchmarkA1_Crossbar(b *testing.B)  { benchInterconnect(b, config.InterCrossbar) }

// --- A2: pointer-table lookup ablation ---------------------------------------

func BenchmarkA2_TableLookup(b *testing.B) {
	for _, n := range []int{10, 100, 10000} {
		for _, linear := range []bool{true, false} {
			name := fmt.Sprintf("n=%d/binary", n)
			if linear {
				name = fmt.Sprintf("n=%d/linear", n)
			}
			b.Run(name, func(b *testing.B) {
				tbl := core.NewPointerTable(0, nil)
				tbl.Linear = linear
				for i := 0; i < n; i++ {
					if _, code := tbl.Alloc(16, bus.U32); code != bus.OK {
						b.Fatal(code)
					}
				}
				span := uint32(n) * 64
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					tbl.Resolve(uint32(i*2654435761) % span)
				}
			})
		}
	}
}

// --- Alloc: allocation-policy engine -----------------------------------------

// BenchmarkAlloc replays the E9 adversarial churn (hole comb) against
// each allocation policy at the allocator level. ns/op is the host cost
// of one full script; "accpalloc" is the simulated cost model — metered
// metadata accesses per allocation, the quantity heapsim turns into
// cycles. First-fit's accpalloc is dominated by the comb walk; buddy
// and segregated stay near-flat (see EXPERIMENTS.md E9).
func BenchmarkAlloc(b *testing.B) {
	o := experiments.Options{Quick: true}
	ops := experiments.E9Workload(o)
	arena := experiments.E9Arena(o)
	for _, kind := range alloc.Kinds() {
		b.Run(fmt.Sprintf("policy=%s", kind), func(b *testing.B) {
			var accesses, allocs uint64
			for i := 0; i < b.N; i++ {
				r, err := experiments.RunChurn(kind, arena, ops)
				if err != nil {
					b.Fatal(err)
				}
				accesses += r.Accesses
				allocs += r.Allocs
			}
			if allocs > 0 {
				b.ReportMetric(float64(accesses)/float64(allocs), "accpalloc")
			}
		})
	}
}

// --- micro-benchmarks for the substrates --------------------------------------

// BenchmarkMicro_KernelModuleScaling isolates the per-module per-cycle
// cost that produces E1's degradation: idle wrapper modules on a kernel.
func BenchmarkMicro_KernelModuleScaling(b *testing.B) {
	for _, mods := range []int{1, 4, 8, 16} {
		b.Run(fmt.Sprintf("wrappers=%d", mods), func(b *testing.B) {
			sys, err := config.Build(config.SystemConfig{
				Masters: 1, Memories: mods, MemKind: config.MemWrapper,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := sys.Kernel.Step(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMicro_WrapperScalarOp measures one complete scalar read
// transaction against an otherwise idle wrapper.
func BenchmarkMicro_WrapperScalarOp(b *testing.B) {
	sys, err := config.Build(config.SystemConfig{Masters: 1, Memories: 1, MemKind: config.MemWrapper})
	if err != nil {
		b.Fatal(err)
	}
	link := sys.MasterPorts[0]
	link.Issue(bus.Request{Op: bus.OpAlloc, SM: 0, Dim: 64, DType: bus.U32})
	var vptr uint32
	for {
		if err := sys.Kernel.Step(); err != nil {
			b.Fatal(err)
		}
		if resp, ok := link.Response(); ok {
			vptr = resp.VPtr
			break
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		link.Issue(bus.Request{Op: bus.OpRead, SM: 0, VPtr: vptr})
		for {
			if err := sys.Kernel.Step(); err != nil {
				b.Fatal(err)
			}
			if _, ok := link.Response(); ok {
				break
			}
		}
	}
}

// BenchmarkMicro_GSMEncode prices one codec frame (native).
func BenchmarkMicro_GSMEncode(b *testing.B) {
	pcm := gsm.Synth(gsm.FrameSamples*8, 42)
	enc := gsm.NewEncoder()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := (i % 8) * gsm.FrameSamples
		enc.Encode(pcm[f : f+gsm.FrameSamples])
	}
}

// BenchmarkMicro_Assemble prices assembling the GSM kernel program.
func BenchmarkMicro_Assemble(b *testing.B) {
	src := workload.GSMKernelSource(workload.GSMKernelConfig{Frames: 10, SM: 0, Seed: 1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := isa.Assemble(src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMicro_ISSInstructionRate measures raw ISS throughput
// (instructions per host second) on a compute-only loop.
func BenchmarkMicro_ISSInstructionRate(b *testing.B) {
	prog, err := isa.Assemble(`
		li   r1, 1000000000
	loop:	sub  r1, r1, #1
		cmp  r1, #0
		bne  loop
		hlt
	`)
	if err != nil {
		b.Fatal(err)
	}
	sys, err := config.Build(config.SystemConfig{Masters: 1, Memories: 1})
	if err != nil {
		b.Fatal(err)
	}
	if err := sys.AddCPUs(prog.Code); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sys.Kernel.Step(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(sys.CPUs[0].Icount)/b.Elapsed().Seconds(), "instr/s")
}

// --- E10 / MLP: split transactions & memory-level parallelism -------------

// benchMLP runs the E10 copy workload; the "simcycles" metric records
// the simulated cycle count (the quantity the depth sweep improves) so
// the bench baseline tracks protocol efficiency alongside host speed.
func benchMLP(b *testing.B, depth int, split bool, inter config.InterconnectKind) {
	b.Helper()
	elems := experiments.E10Elems(experiments.Options{})
	var total, cycles uint64
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunMLP(nil, config.SystemConfig{OutstandingDepth: depth, SplitBus: split},
			experiments.E10Streams(), elems, inter)
		if err != nil {
			b.Fatal(err)
		}
		total += r.Cycles
		cycles = r.Cycles
	}
	reportSimSpeed(b, total)
	b.ReportMetric(float64(cycles), "simcycles")
}

func BenchmarkMLP(b *testing.B) {
	for _, tc := range []struct {
		name  string
		depth int
		split bool
		inter config.InterconnectKind
	}{
		{"bus/occupied/depth=1", 1, false, config.InterBus},
		{"bus/split/depth=1", 1, true, config.InterBus},
		{"bus/split/depth=4", 4, true, config.InterBus},
		{"xbar/split/depth=4", 4, true, config.InterCrossbar},
	} {
		b.Run(tc.name, func(b *testing.B) { benchMLP(b, tc.depth, tc.split, tc.inter) })
	}
}

// --- E11: coherent cache hierarchy ----------------------------------------

// benchCache replays the E11 coherence/locality workload (quick size,
// the exact TestE11CacheAcceptance scenario). The deterministic
// "simcycles" metric lets benchjson gate protocol regressions
// host-independently.
func benchCache(b *testing.B, w experiments.CacheWorkload, cached bool) {
	b.Helper()
	var total, cycles uint64
	for i := 0; i < b.N; i++ {
		r, _, err := experiments.RunCache(nil, config.SystemConfig{}, w, cached, config.InterBus)
		if err != nil {
			b.Fatal(err)
		}
		total += r.Cycles
		cycles = r.Cycles
	}
	reportSimSpeed(b, total)
	b.ReportMetric(float64(cycles), "simcycles")
}

func BenchmarkCache(b *testing.B) {
	locality, sharing := experiments.E11Workload(experiments.Options{Quick: true})
	for _, tc := range []struct {
		name   string
		w      experiments.CacheWorkload
		cached bool
	}{
		{"locality/uncached", locality, false},
		{"locality/coherent-l1", locality, true},
		{"sharing/uncached", sharing, false},
		{"sharing/coherent-l1", sharing, true},
	} {
		b.Run(tc.name, func(b *testing.B) { benchCache(b, tc.w, tc.cached) })
	}
}

// --- E12: shared L2, DRAM timing & way partitioning -----------------------

// benchL2 replays the E12 asymmetric-working-set workload (quick size)
// through the shared inclusive L2. The deterministic "simcycles" metric
// gates the L2 pipeline, the DRAM bank model and the UCP repartitioner
// against timing regressions.
func benchL2(b *testing.B, w experiments.E12Workload, part cache.PartitionKind, m config.SystemConfig) {
	b.Helper()
	var total, cycles uint64
	for i := 0; i < b.N; i++ {
		r, _, err := experiments.RunE12(nil, m, w, part)
		if err != nil {
			b.Fatal(err)
		}
		total += r.TotalCycles
		cycles = r.TotalCycles
	}
	reportSimSpeed(b, total)
	b.ReportMetric(float64(cycles), "simcycles")
}

func BenchmarkL2(b *testing.B) {
	w := experiments.E12Params(experiments.Options{Quick: true})
	for _, tc := range []struct {
		name string
		part cache.PartitionKind
		m    config.SystemConfig
	}{
		{"static/lru", cache.PartNone, config.SystemConfig{}},
		{"static/ucp", cache.PartUCP, config.SystemConfig{}},
		{"dram-open/ucp", cache.PartUCP, config.SystemConfig{MemKind: config.MemDRAM}},
		{"dram-close/swp", cache.PartSWP, config.SystemConfig{MemKind: config.MemDRAM, DRAMClosePage: true}},
	} {
		b.Run(tc.name, func(b *testing.B) { benchL2(b, w, tc.part, tc.m) })
	}
}

// --- WarmBoot: restore-and-run vs cold run -------------------------------

// BenchmarkWarmBoot measures the warm-boot saving the WB experiment
// reports: "cold" simulates the GSM workload from cycle 0, "resume"
// restores a half-way snapshot and simulates only the remainder. The
// gap between the two is the warm-up cost a snapshot-fanned sweep
// avoids paying per configuration.
func BenchmarkWarmBoot(b *testing.B) {
	// The WB experiment's platform and software as a service leg.
	leg := experiments.LegSpec{Workload: "gsm", ISSes: 4, Memories: 1, Frames: 10}
	r, ctx := experiments.SimRunner{}, context.Background()
	ref, err := r.RunLeg(ctx, leg, nil)
	if err != nil {
		b.Fatal(err)
	}
	total := ref.Cycles
	snap, err := r.Warmup(ctx, leg, total/2)
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		warm []byte
	}{{"cold", nil}, {"resume", snap}} {
		b.Run(tc.name, func(b *testing.B) {
			var cycles uint64
			for i := 0; i < b.N; i++ {
				res, err := r.RunLeg(ctx, leg, tc.warm)
				if err != nil {
					b.Fatal(err)
				}
				cycles += res.SimCycles()
			}
			reportSimSpeed(b, cycles)
		})
	}
}

// --- Service: jobs/sec through the full HTTP + store path ----------------

// BenchmarkServiceThroughput measures end-to-end job throughput of the
// simulation service on a tiny config: POST over HTTP, pool-fanned
// simulation, result-store write, poll to completion. Seeds advance
// per iteration so every leg actually simulates (a cache hit would
// measure the store, not the service). The simcycles/s metric is
// deterministic per leg — the same seeds always simulate the same
// cycles — so regressions in it are service overhead, not workload
// noise.
func BenchmarkServiceThroughput(b *testing.B) {
	store, err := service.OpenStore(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	srv, err := service.New(service.Config{
		Store:  store,
		Logger: slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Close()

	post := func(spec service.SweepSpec) string {
		body, err := json.Marshal(spec)
		if err != nil {
			b.Fatal(err)
		}
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			b.Fatalf("POST = %d", resp.StatusCode)
		}
		var out map[string]string
		json.NewDecoder(resp.Body).Decode(&out)
		return out["id"]
	}
	poll := func(id string) service.JobView {
		for {
			resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
			if err != nil {
				b.Fatal(err)
			}
			var v service.JobView
			err = json.NewDecoder(resp.Body).Decode(&v)
			resp.Body.Close()
			if err != nil {
				b.Fatal(err)
			}
			switch v.State {
			case service.StateDone:
				return v
			case service.StateFailed, service.StateCanceled:
				b.Fatalf("job %s: %s (%s)", id, v.State, v.Error)
			}
			time.Sleep(200 * time.Microsecond)
		}
	}

	b.ResetTimer()
	var cycles uint64
	for i := 0; i < b.N; i++ {
		v := poll(post(service.SweepSpec{
			Name: "bench",
			Legs: []experiments.LegSpec{
				{Name: "a", Workload: "gsm", ISSes: 1, Memories: 1, Frames: 1, Seed: uint32(1 + 2*i)},
				{Name: "b", Workload: "gsm", ISSes: 1, Memories: 1, Frames: 1, Seed: uint32(2 + 2*i)},
			},
		}))
		for _, leg := range v.Legs {
			cycles += leg.SimCycles()
		}
	}
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(float64(b.N)/s, "jobs/s")
	}
	reportSimSpeed(b, cycles)
}
