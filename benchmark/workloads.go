package main

import (
	"fmt"

	"repro/internal/alloc"
	"repro/internal/bus"
	"repro/internal/cache"
	"repro/internal/config"
	"repro/internal/isa"
	"repro/internal/smapi"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Workload sizes. They are constants of the benchmark, calibrated once at
// the commit that added it so that one rep takes 60–100 ms of host time,
// and never adjusted at run time: a rep is the same work on every commit.
// The reduced sizes feed the set-up lockstep-equivalence check only.
const (
	gsmFrames        = 80
	gsmFramesReduced = 2

	dynEvents        = 5500 // per PE
	dynEventsReduced = 600
	dynMemBytes      = 1 << 21
	churnSlots       = 256
	rwSlots          = 2048

	sweepWords        = 128
	sweepIters        = 18
	sweepItersReduced = 1

	l2ThrashLines   = 64
	l2ReuseLines    = 12
	l2Passes        = 90
	l2PassesReduced = 2
	l2RoundsPerPass = 36 // reuse rounds per thrash pass, so both PEs finish together
	l2MemBytes      = 8192
	l2ThrashBase    = 4096
	l2LineBytes     = 64

	runLimit         = 2_000_000_000 // cycles; no workload comes near it
	setupRounds      = 5             // setup_s is their median
	warmupReps       = 3
	minTimedReps     = 10
	tracedRepsWanted = 10
)

// simCase is one workload's generated input: the platform to build and
// how to attach software to it. A rep builds a fresh system from it.
type simCase struct {
	cfg config.SystemConfig
	// attach puts the programs or tasks on a freshly built system. The
	// returned check runs after RunUntil (exit codes, replay errors) and
	// image after DrainCaches (exact memory contents); either may be nil.
	attach func(sys *config.System, tr *tracer, parent *span, rep int) (attached, error)
	// done is the completion predicate handed to RunUntil.
	done func(sys *config.System) func() bool
}

type attached struct {
	assemble float64 // ms spent in isa.Assemble
	check    func(sys *config.System) error
	image    func(sys *config.System) error
}

// simWorkload names a simulation workload and generates its inputs from
// the seed. reduced selects the small size of the lockstep check.
type simWorkload struct {
	name, why string
	size      map[string]int
	gen       func(seed int64, reduced bool) *simCase
}

func pick(reduced bool, full, small int) int {
	if reduced {
		return small
	}
	return full
}

// issAttach assembles one source per ISS and attaches the CPUs; every
// ISS must exit with code 0.
func issAttach(srcs []string, image func(*config.System) error) func(*config.System, *tracer, *span, int) (attached, error) {
	return func(sys *config.System, tr *tracer, parent *span, rep int) (attached, error) {
		progs := make([][]byte, len(srcs))
		sp := tr.start("isa.Assemble", parent, rep, 0)
		for i, src := range srcs {
			p, err := isa.Assemble(src)
			if err != nil {
				return attached{}, fmt.Errorf("assemble iss %d: %w", i, err)
			}
			progs[i] = p.Code
		}
		asm := ms(sp.end())
		sp = tr.start("config.AddCPUs", parent, rep, 0)
		err := sys.AddCPUs(progs...)
		sp.end()
		if err != nil {
			return attached{}, err
		}
		return attached{assemble: asm, image: image, check: func(sys *config.System) error {
			for i, cpu := range sys.CPUs {
				if cpu.ExitCode() != 0 {
					return fmt.Errorf("iss %d exited %#x", i, cpu.ExitCode())
				}
			}
			return nil
		}}, nil
	}
}

func cpusHalted(sys *config.System) func() bool { return sys.CPUsHalted }
func procsDone(sys *config.System) func() bool  { return sys.ProcsDone }
func addProcs(sys *config.System, tr *tracer, parent *span, rep int, tasks []smapi.Task) error {
	sp := tr.start("config.AddProcs", parent, rep, 0)
	defer sp.end()
	return sys.AddProcs(tasks...)
}

// traceAttach replays one trace per native PE; every event must execute
// without an in-band error.
func traceAttach(traces []*trace.Trace, mode trace.Mode) func(*config.System, *tracer, *span, int) (attached, error) {
	return func(sys *config.System, tr *tracer, parent *span, rep int) (attached, error) {
		stats := make([]trace.ReplayStats, len(traces))
		tasks := make([]smapi.Task, len(traces))
		for i, t := range traces {
			tasks[i] = trace.ReplayTask(t, mode, &stats[i])
		}
		if err := addProcs(sys, tr, parent, rep, tasks); err != nil {
			return attached{}, err
		}
		return attached{check: func(*config.System) error {
			for i := range stats {
				if stats[i].Errors != 0 || stats[i].Executed != len(traces[i].Events) {
					return fmt.Errorf("pe %d replayed %d of %d events with %d errors (last %v)",
						i, stats[i].Executed, len(traces[i].Events), stats[i].Errors, stats[i].LastErr)
				}
			}
			return nil
		}}, nil
	}
}

// dynTraces generates the four per-PE traces of the dynmem workloads.
func dynTraces(seed int64, events, slots int, mix trace.Mix, ptrArith int) []*trace.Trace {
	traces := make([]*trace.Trace, 4)
	for i := range traces {
		traces[i] = trace.Generate(trace.GenConfig{
			Seed: seed*4 + int64(i), Events: events, Slots: slots, NumSM: 4,
			MinDim: 8, MaxDim: 256, DType: bus.U32, Mix: mix, PtrArithPct: ptrArith,
		})
	}
	return traces
}

var rwMix = trace.Mix{Alloc: 1, Read: 45, Write: 30, ReadBurst: 12, WriteBurst: 12}

func peekWord(peek func(uint32) byte, addr uint32) uint32 {
	return uint32(peek(addr)) | uint32(peek(addr+1))<<8 | uint32(peek(addr+2))<<16 | uint32(peek(addr+3))<<24
}

// sweepSeed keeps every value the sweep kernel writes (word index + SEED)
// within a byte: the ISS bridge stores scalars as U8, so larger values
// fail the kernel's own readback.
func sweepSeed(seed int64, iss int) uint32 { return uint32(seed%64) + uint32(16*(iss+1)) }

// l2Tasks are the E12-shaped pair: PE0 streams l2ThrashLines fresh lines
// per pass (no reuse), PE1 read-modify-writes the heads of l2ReuseLines
// lines round-robin. Every word has one writer, so the drained image is
// exact.
func l2Tasks(passes int) []smapi.Task {
	rounds := passes * l2RoundsPerPass
	thrash := func(ctx *smapi.Ctx) {
		m := ctx.Mem(0)
		for pass := 0; pass < passes; pass++ {
			for i := 0; i < l2ThrashLines; i++ {
				if _, code := m.ReadAs(l2ThrashBase+uint32(l2LineBytes*i), bus.U32); code != bus.OK {
					panic(code)
				}
			}
		}
	}
	reuse := func(ctx *smapi.Ctx) {
		m := ctx.Mem(0)
		for r := 0; r < rounds; r++ {
			addr := uint32(r%l2ReuseLines) * l2LineBytes
			v, code := m.ReadAs(addr, bus.U32)
			if code != bus.OK {
				panic(code)
			}
			if want := uint32(r / l2ReuseLines); v != want {
				panic(fmt.Sprintf("reuse line %#x = %#x in round %d, want %#x", addr, v, r, want))
			}
			if code := m.WriteAs(addr, v+1, bus.U32); code != bus.OK {
				panic(code)
			}
		}
	}
	return []smapi.Task{thrash, reuse}
}

func l2Image(passes int) func(*config.System) error {
	rounds := passes * l2RoundsPerPass
	return func(sys *config.System) error {
		peek := sys.DRAMs[0].Peek
		for i := 0; i < l2ReuseLines; i++ {
			want := uint32(rounds / l2ReuseLines)
			if i < rounds%l2ReuseLines {
				want++
			}
			if got := peekWord(peek, uint32(l2LineBytes*i)); got != want {
				return fmt.Errorf("reuse line %d head = %#x, want %#x", i, got, want)
			}
		}
		for i := 0; i < l2ThrashLines; i++ {
			if got := peekWord(peek, l2ThrashBase+uint32(l2LineBytes*i)); got != 0 {
				return fmt.Errorf("streamed line %d head = %#x, want 0", i, got)
			}
		}
		return nil
	}
}

// gsmCase is the paper's E1 platform: four ISSes running the GSM traffic
// kernel against the given number of wrapper memories on an occupied bus.
func gsmCase(seed int64, frames, memories int) *simCase {
	srcs := make([]string, 4)
	for i := range srcs {
		srcs[i] = workload.GSMKernelSource(workload.GSMKernelConfig{
			Frames: frames, SM: i % memories, Seed: uint32(seed)*4 + uint32(i) + 1,
		})
	}
	return &simCase{
		cfg:    config.SystemConfig{Masters: 4, Memories: memories, MemKind: config.MemWrapper, Workers: 1},
		attach: issAttach(srcs, nil),
		done:   cpusHalted,
	}
}

// simWorkloads are the five simulation workloads, in report order.
var simWorkloads = []simWorkload{
	{
		name: "iss_gsm",
		why:  "paper's E1 platform (4 ISS x 4 wrappers, GSM kernel): ISS and kernel step dominate, memories idle, so a memory-system change must show no move here",
		size: map[string]int{"isses": 4, "memories": 4, "frames": gsmFrames},
		gen: func(seed int64, reduced bool) *simCase {
			return gsmCase(seed, pick(reduced, gsmFrames, gsmFramesReduced), 4)
		},
	},
	{
		name: "dynmem_churn",
		why:  "malloc/free stress through the wrapper (pointer-table insert/delete, segregated placement, host allocator): the paper's contribution, no ISS, no cache",
		size: map[string]int{"pes": 4, "memories": 4, "events_per_pe": dynEvents, "slots": churnSlots, "mem_bytes": dynMemBytes},
		gen: func(seed int64, reduced bool) *simCase {
			traces := dynTraces(seed, pick(reduced, dynEvents, dynEventsReduced), churnSlots,
				trace.Mix{Alloc: 30, Free: 28, Read: 21, Write: 21}, 0)
			return &simCase{
				cfg: config.SystemConfig{Masters: 4, Memories: 4, MemKind: config.MemWrapper, Workers: 1,
					MemBytes: dynMemBytes, AllocPolicy: alloc.Segregated},
				attach: traceAttach(traces, trace.ModeDynamic),
				done:   procsDone,
			}
		},
	},
	{
		name: "dynmem_rw",
		why:  "same wrapper layer used the other way: translate + scalar/burst data path over a large live table; a table change that helps churn and hurts lookup shows here",
		size: map[string]int{"pes": 4, "memories": 4, "events_per_pe": dynEvents, "slots": rwSlots, "mem_bytes": dynMemBytes},
		gen: func(seed int64, reduced bool) *simCase {
			traces := dynTraces(seed, pick(reduced, dynEvents, dynEventsReduced), rwSlots, rwMix, 50)
			return &simCase{
				cfg: config.SystemConfig{Masters: 4, Memories: 4, MemKind: config.MemWrapper, Workers: 1,
					MemBytes: dynMemBytes},
				attach: traceAttach(traces, trace.ModeDynamic),
				done:   procsDone,
			}
		},
	},
	{
		name: "coherent_l1",
		why:  "4 ISSes falsely sharing every line of one static memory through MESI L1s: the slowest spot, both the L1 hit path and the snoop-invalidate path run; wrapper absent",
		size: map[string]int{"isses": 4, "memories": 1, "words": sweepWords, "iterations": sweepIters},
		gen: func(seed int64, reduced bool) *simCase {
			srcs := make([]string, 4)
			for i := range srcs {
				srcs[i] = workload.SweepKernelSource(workload.SweepKernelConfig{
					Iterations: pick(reduced, sweepIters, sweepItersReduced), SM: 0,
					Base: 4 * i, Stride: 16, Words: sweepWords, Seed: sweepSeed(seed, i),
				})
			}
			image := func(sys *config.System) error {
				peek := sys.Statics[0].Peek
				for i := 0; i < 4; i++ {
					for k := 0; k < sweepWords; k++ {
						addr := uint32(4*i + 16*k)
						if got, want := peekWord(peek, addr), uint32(k)+sweepSeed(seed, i); got != want {
							return fmt.Errorf("iss %d word %d = %#x, want %#x", i, k, got, want)
						}
					}
				}
				return nil
			}
			return &simCase{
				cfg: config.SystemConfig{Masters: 4, Memories: 1, MemKind: config.MemStatic, Workers: 1,
					MemBytes: 16 * sweepWords, Cache: true, Coherent: true},
				attach: issAttach(srcs, image),
				done:   cpusHalted,
			}
		},
	},
	{
		name: "l2_dram",
		why:  "stream vs reuse loop behind a 4x4 inclusive L2 with UCP over banked DRAM on a split bus: the only workload where MSHRs, back-invalidation, the bank FSM and split ports do the work",
		size: map[string]int{"pes": 2, "thrash_lines": l2ThrashLines, "reuse_lines": l2ReuseLines, "passes": l2Passes,
			"reuse_rounds": l2Passes * l2RoundsPerPass},
		gen: func(_ int64, reduced bool) *simCase {
			passes := pick(reduced, l2Passes, l2PassesReduced)
			return &simCase{
				cfg: config.SystemConfig{Masters: 2, Memories: 1, MemKind: config.MemDRAM, Workers: 1,
					MemBytes: l2MemBytes, Cache: true, Coherent: true, CacheSets: 2, CacheWays: 1,
					L2: true, L2Sets: 4, L2Ways: 4, L2LineBytes: l2LineBytes,
					Partition: cache.PartUCP, UCPPeriod: 128,
					DRAMRefreshPeriod: 4096, DRAMRefreshCycles: 64,
					SplitBus: true, OutstandingDepth: 4},
				attach: func(sys *config.System, tr *tracer, parent *span, rep int) (attached, error) {
					if err := addProcs(sys, tr, parent, rep, l2Tasks(passes)); err != nil {
						return attached{}, err
					}
					return attached{image: l2Image(passes)}, nil
				},
				done: procsDone,
			}
		},
	},
}
