package experiments

import (
	"context"
	"fmt"
	"time"

	"repro/internal/alloc"
	"repro/internal/bus"
	"repro/internal/cache"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/dma"
	"repro/internal/gsm"
	"repro/internal/heapsim"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/smapi"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Options tunes a suite invocation.
type Options struct {
	// Quick shrinks workloads for smoke runs (CI, tests).
	Quick bool
	// Base is the platform description every measured system starts
	// from: each experiment copies it, sets the axes it sizes or sweeps
	// itself (masters, memories, memory kind, and whatever its table
	// varies) and leaves the rest as given — so a scheduler, protocol,
	// allocator or cache setting made here (see
	// config.SystemConfig.BindFlags) applies to the whole suite. The
	// flat-memory experiments (E11, E12) run on the banked DRAM model
	// when Base.MemKind is MemDRAM and on the static table otherwise.
	Base config.SystemConfig
	// Checkpoint, when non-empty, makes the WB experiment write its
	// shared warm-up snapshot to this file.
	Checkpoint string
	// Restore, when non-empty, makes the WB experiment load its shared
	// warm-up snapshot from this file instead of simulating the warm-up
	// phase. An incompatible file fails loudly on the first restore.
	Restore string
	// Ctx, when non-nil, makes every measured run cancellable: a run
	// aborts with Ctx.Err() at the next chunk boundary after
	// cancellation. Nil keeps runs uninterruptible.
	Ctx context.Context
}

func (o Options) pick(full, quick int) int {
	if o.Quick {
		return quick
	}
	return full
}

// flatKind is the cacheable flat memory kind a base configuration
// selects: the banked DRAM timing model when it names it, the plain
// static table otherwise.
func flatKind(base config.SystemConfig) config.MemKind {
	if base.MemKind == config.MemDRAM {
		return config.MemDRAM
	}
	return config.MemStatic
}

// flatPeek returns a byte-peek over the system's flat memory module sm,
// whichever cacheable kind (static, DRAM) the mode selected.
func flatPeek(sys *config.System, sm int) func(uint32) byte {
	if len(sys.DRAMs) > 0 {
		return sys.DRAMs[sm].Peek
	}
	return sys.Statics[sm].Peek
}

// RunGSMISS builds the paper's configuration — nISS armlet ISSs running
// the GSM traffic kernel against nMem wrapper memories — on the base
// platform, runs it to completion and returns the measured result.
func RunGSMISS(ctx context.Context, base config.SystemConfig, nISS, nMem, frames int) (stats.RunResult, error) {
	progs, err := workload.ISSImages("gsm", nISS, nMem, frames, 1)
	if err != nil {
		return stats.RunResult{}, err
	}
	base.Masters, base.Memories, base.MemKind = nISS, nMem, config.MemWrapper
	sys, wall, err := simulation{cfg: base, progs: progs}.run(ctx)
	if err != nil {
		return stats.RunResult{}, err
	}
	return stats.RunResult{
		Name:   fmt.Sprintf("%d ISS / %d mem", nISS, nMem),
		Cycles: sys.Kernel.Cycle(),
		Wall:   wall,
	}, nil
}

// measureGSMISS runs RunGSMISS with one discarded warmup run and then
// takes the best of `reps` measured runs, suppressing host scheduling
// noise (the measured quantity, cycles per host second, is a wall-clock
// rate).
func measureGSMISS(ctx context.Context, base config.SystemConfig, nISS, nMem, frames, reps int) (stats.RunResult, error) {
	if _, err := RunGSMISS(ctx, base, nISS, nMem, frames); err != nil { // warmup
		return stats.RunResult{}, err
	}
	var best stats.RunResult
	for i := 0; i < reps; i++ {
		r, err := RunGSMISS(ctx, base, nISS, nMem, frames)
		if err != nil {
			return stats.RunResult{}, err
		}
		if i == 0 || r.Wall < best.Wall {
			best = r
		}
	}
	return best, nil
}

// E1 reproduces the paper's headline measurement: simulation speed of
// 4 ISSs + interconnect + 1 memory versus 4 ISSs + interconnect + 4
// memories under the GSM workload. The paper reports a 20% degradation.
func E1(o Options) (*stats.Table, error) {
	frames := o.pick(40, 4)
	reps := o.pick(3, 1)
	one, err := measureGSMISS(o.Ctx, o.Base, 4, 1, frames, reps)
	if err != nil {
		return nil, err
	}
	four, err := measureGSMISS(o.Ctx, o.Base, 4, 4, frames, reps)
	if err != nil {
		return nil, err
	}
	t := stats.NewTable(
		fmt.Sprintf("E1: GSM on 4 ISSs, 1 vs 4 wrapper memories (%d frames/ISS; paper: 20%% degradation)", frames),
		"config", "sim cycles", "wall", "cycles/s", "degradation")
	t.Add(one.Name, fmt.Sprint(one.Cycles), one.Wall.Round(time.Millisecond).String(), stats.SI(one.CyclesPerSec()), "-")
	t.Add(four.Name, fmt.Sprint(four.Cycles), four.Wall.Round(time.Millisecond).String(), stats.SI(four.CyclesPerSec()), stats.Pct(four.Degradation(one)))
	return t, nil
}

// RunGSMPipeline runs the bit-exact GSM codec pipeline on 4 native PEs
// against nMem wrapper memories and returns the measured result. This is
// the compiled-software variant of E1: computation executes natively
// while every frame hand-off is simulated cycle-true.
func RunGSMPipeline(ctx context.Context, base config.SystemConfig, nMem, frames int) (stats.RunResult, error) {
	tasks, res := gsm.BuildPipeline(gsm.PipelineConfig{
		Frames: frames, Seed: 42, NumSM: nMem,
	})
	base.Masters, base.Memories, base.MemKind = 4, nMem, config.MemWrapper
	sys, wall, err := simulation{cfg: base, tasks: tasks}.run(ctx)
	if err != nil {
		return stats.RunResult{}, err
	}
	if res.Frames != frames {
		return stats.RunResult{}, fmt.Errorf("pipeline delivered %d/%d frames", res.Frames, frames)
	}
	return stats.RunResult{
		Name:   fmt.Sprintf("pipeline / %d mem", nMem),
		Cycles: sys.Kernel.Cycle(),
		Wall:   wall,
	}, nil
}

// E1b is E1 with the native-PE codec pipeline instead of ISSs: the full
// bit-exact transcoder runs, frames move through dynamic shared memory,
// and the memory-count degradation is measured on that workload.
func E1b(o Options) (*stats.Table, error) {
	frames := o.pick(30, 4)
	one, err := RunGSMPipeline(o.Ctx, o.Base, 1, frames)
	if err != nil {
		return nil, err
	}
	four, err := RunGSMPipeline(o.Ctx, o.Base, 4, frames)
	if err != nil {
		return nil, err
	}
	t := stats.NewTable(
		fmt.Sprintf("E1b: bit-exact GSM pipeline on 4 native PEs, 1 vs 4 memories (%d frames)", frames),
		"config", "sim cycles", "wall", "cycles/s", "degradation")
	t.Add(one.Name, fmt.Sprint(one.Cycles), one.Wall.Round(time.Millisecond).String(), stats.SI(one.CyclesPerSec()), "-")
	t.Add(four.Name, fmt.Sprint(four.Cycles), four.Wall.Round(time.Millisecond).String(), stats.SI(four.CyclesPerSec()), stats.Pct(four.Degradation(one)))
	return t, nil
}

// E5 generalizes E1 into the full degradation curve: memory count sweep
// at 4 ISSs, and ISS count sweep at 1 memory.
func E5(o Options) ([]*stats.Table, error) {
	frames := o.pick(25, 3)
	reps := o.pick(3, 1)

	memT := stats.NewTable(
		"E5a: simulation speed vs number of wrapper memories (4 ISSs)",
		"memories", "sim cycles", "cycles/s", "degradation vs 1")
	var base stats.RunResult
	for _, m := range []int{1, 2, 4, 8} {
		r, err := measureGSMISS(o.Ctx, o.Base, 4, m, frames, reps)
		if err != nil {
			return nil, err
		}
		if m == 1 {
			base = r
			memT.Add("1", fmt.Sprint(r.Cycles), stats.SI(r.CyclesPerSec()), "-")
			continue
		}
		memT.Add(fmt.Sprint(m), fmt.Sprint(r.Cycles), stats.SI(r.CyclesPerSec()), stats.Pct(r.Degradation(base)))
	}

	peT := stats.NewTable(
		"E5b: simulation speed vs number of ISSs (1 memory)",
		"ISSs", "sim cycles", "cycles/s", "degradation vs 1")
	var peBase stats.RunResult
	for _, n := range []int{1, 2, 4, 8} {
		r, err := measureGSMISS(o.Ctx, o.Base, n, 1, frames, reps)
		if err != nil {
			return nil, err
		}
		if n == 1 {
			peBase = r
			peT.Add("1", fmt.Sprint(r.Cycles), stats.SI(r.CyclesPerSec()), "-")
			continue
		}
		peT.Add(fmt.Sprint(n), fmt.Sprint(r.Cycles), stats.SI(r.CyclesPerSec()), stats.Pct(r.Degradation(peBase)))
	}
	return []*stats.Table{memT, peT}, nil
}

// RunTrace replays a trace on a freshly built single-master system of
// the given memory kind on the base platform and returns the measured
// result.
func RunTrace(ctx context.Context, base config.SystemConfig, kind config.MemKind, tr *trace.Trace, mode trace.Mode, memBytes uint32) (stats.RunResult, *config.System, error) {
	if memBytes == 0 {
		memBytes = tr.StaticBytesNeeded()
		if memBytes < 1<<20 {
			memBytes = 1 << 20
		}
	}
	if base.Cache {
		// Cached static tables must be line-aligned.
		memBytes = (memBytes + 63) &^ 63
	}
	base.Masters, base.Memories, base.MemKind, base.MemBytes = 1, max(1, numSMs(tr)), kind, memBytes
	sys, wall, err := simulation{cfg: base, tasks: []smapi.Task{trace.ReplayTask(tr, mode, nil)}}.run(ctx)
	if err != nil {
		return stats.RunResult{}, nil, err
	}
	return stats.RunResult{Name: kind.String(), Cycles: sys.Kernel.Cycle(), Wall: wall}, sys, nil
}

func numSMs(tr *trace.Trace) int {
	max := 0
	for _, e := range tr.Events {
		if e.SM > max {
			max = e.SM
		}
	}
	return max + 1
}

// E2 measures the wrapper's host-side overhead against the static table
// memory on identical read/write traffic — the paper's claim (III).
func E2(o Options) (*stats.Table, error) {
	events := o.pick(60000, 2000)
	tr := trace.Generate(trace.GenConfig{
		Seed: 21, Events: events, Slots: 32, NumSM: 1,
		MinDim: 8, MaxDim: 256, DType: bus.U32,
		// Allocations happen (slots must exist) but never churn: no Free,
		// so both models see the same steady-state rw stream.
		Mix:         trace.Mix{Alloc: 1, Read: 45, Write: 30, ReadBurst: 12, WriteBurst: 12},
		PtrArithPct: 25,
	})
	wrap, _, err := RunTrace(o.Ctx, o.Base, config.MemWrapper, tr, trace.ModeDynamic, 0)
	if err != nil {
		return nil, err
	}
	stat, _, err := RunTrace(o.Ctx, o.Base, config.MemStatic, tr, trace.ModeStatic, 0)
	if err != nil {
		return nil, err
	}
	t := stats.NewTable(
		fmt.Sprintf("E2: wrapper vs static table on identical rw traffic (%d events)", events),
		"memory model", "sim cycles", "wall", "cycles/s", "host-side overhead")
	t.Add(stat.Name, fmt.Sprint(stat.Cycles), stat.Wall.Round(time.Millisecond).String(), stats.SI(stat.CyclesPerSec()), "-")
	t.Add(wrap.Name, fmt.Sprint(wrap.Cycles), wrap.Wall.Round(time.Millisecond).String(), stats.SI(wrap.CyclesPerSec()), stats.Pct(wrap.Degradation(stat)))
	return t, nil
}

// E3 compares the host-backed wrapper against the detailed in-simulation
// allocator (heapsim) on allocation-heavy workloads — the cost the
// paper's technique removes.
func E3(o Options) (*stats.Table, error) {
	events := o.pick(20000, 1500)
	t := stats.NewTable(
		fmt.Sprintf("E3: wrapper vs detailed allocator model, alloc/free churn (%d events)", events),
		"live slots", "wrapper sim cycles", "heapsim sim cycles", "slowdown", "wrapper wall", "heapsim wall")
	for _, slots := range []int{8, 64, 256} {
		tr := trace.Generate(trace.GenConfig{
			Seed: 31, Events: events, Slots: slots, NumSM: 1,
			MinDim: 8, MaxDim: 128, DType: bus.U32,
			Mix: trace.Mix{Alloc: 30, Free: 28, Read: 21, Write: 21},
		})
		wrap, _, err := RunTrace(o.Ctx, o.Base, config.MemWrapper, tr, trace.ModeDynamic, 1<<22)
		if err != nil {
			return nil, err
		}
		heap, _, err := RunTrace(o.Ctx, o.Base, config.MemHeapSim, tr, trace.ModeDynamic, 1<<22)
		if err != nil {
			return nil, err
		}
		t.Add(fmt.Sprint(slots),
			fmt.Sprint(wrap.Cycles), fmt.Sprint(heap.Cycles),
			fmt.Sprintf("%.2fx", float64(heap.Cycles)/float64(wrap.Cycles)),
			wrap.Wall.Round(time.Millisecond).String(), heap.Wall.Round(time.Millisecond).String())
	}
	return t, nil
}

// E4 demonstrates accuracy: identical cycle counts across repeated runs,
// and simulated latency that tracks the delay parameters exactly while
// host cost stays flat — claim (II).
func E4(o Options) ([]*stats.Table, error) {
	events := o.pick(20000, 2000)
	tr := trace.Generate(trace.GenConfig{
		Seed: 41, Events: events, Slots: 16, NumSM: 1,
		MinDim: 4, MaxDim: 64, DType: bus.U32, Mix: trace.DefaultMix(),
	})
	rep := stats.NewTable("E4a: determinism — identical seeded runs", "run", "sim cycles")
	var first uint64
	for i := 0; i < 3; i++ {
		r, _, err := RunTrace(o.Ctx, o.Base, config.MemWrapper, tr, trace.ModeDynamic, 0)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			first = r.Cycles
		}
		mark := "=="
		if r.Cycles != first {
			mark = "DIVERGED"
		}
		rep.Add(fmt.Sprintf("%d %s", i+1, mark), fmt.Sprint(r.Cycles))
	}

	sweep := stats.NewTable(
		"E4b: delay-parameter sweep — sim time scales, host time does not",
		"read/write delay", "sim cycles", "wall", "host ns per sim-cycle")
	for _, d := range []uint32{1, 4, 16, 64} {
		delays := core.DefaultDelays()
		delays.Read, delays.Write = d, d
		cfg := o.Base
		cfg.WrapperDelays = &delays
		r, _, err := RunTrace(o.Ctx, cfg, config.MemWrapper, tr, trace.ModeDynamic, 0)
		if err != nil {
			return nil, err
		}
		sweep.Add(fmt.Sprint(d), fmt.Sprint(r.Cycles), r.Wall.Round(time.Millisecond).String(),
			fmt.Sprintf("%.1f", float64(r.Wall.Nanoseconds())/float64(r.Cycles)))
	}
	return []*stats.Table{rep, sweep}, nil
}

// E6 shows claim (I): the wrapper supports huge dynamic data sets with
// host memory proportional to *live* data, while a static table pays its
// full capacity up front.
func E6(o Options) (*stats.Table, error) {
	t := stats.NewTable(
		"E6: live dynamic data sweep — host footprint and speed",
		"live set", "sim cycles", "cycles/s", "wrapper host bytes", "static table would need")
	targets := []uint32{1 << 12, 1 << 16, 1 << 20, 1 << 24}
	if o.Quick {
		targets = []uint32{1 << 12, 1 << 16}
	}
	const bufBytes = 1 << 12 // 4 KiB buffers of u32
	for _, target := range targets {
		n := int(target / bufBytes)
		if n == 0 {
			n = 1
		}
		task := func(ctx *smapi.Ctx) {
			m := ctx.Mem(0)
			vs := make([]uint32, 0, n)
			for i := 0; i < n; i++ {
				v, code := m.Malloc(bufBytes/4, bus.U32)
				if code != bus.OK {
					panic(code)
				}
				// Touch one element per buffer.
				if code := m.Write(v, uint32(i)); code != bus.OK {
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
		cfg := o.Base
		cfg.Masters, cfg.Memories, cfg.MemKind = 1, 1, config.MemWrapper
		cfg.MemBytes = target + bufBytes // capacity sized to the live set
		sys, wall, err := simulation{cfg: cfg, tasks: []smapi.Task{task}}.run(o.Ctx)
		if err != nil {
			return nil, err
		}
		cyc := sys.Kernel.Cycle()
		hostBytes := sys.Wrappers[0].Stats().HostBytes
		t.Add(fmt.Sprint(target), fmt.Sprint(cyc), stats.SI(stats.Rate(cyc, wall)),
			fmt.Sprint(hostBytes), fmt.Sprintf("%d (pre-allocated)", target))
	}
	return t, nil
}

// PtrArithTrace builds a trace that first fills every slot (so the
// pointer table really holds `slots` live allocations) and then issues
// pure read/write traffic with the requested interior-pointer rate.
func PtrArithTrace(slots, events, arithPct int, seed int64) *trace.Trace {
	const dim = 16
	tr := &trace.Trace{Slots: slots, DType: bus.U32, MaxDim: dim}
	for s := 0; s < slots; s++ {
		tr.Events = append(tr.Events, trace.Event{Op: bus.OpAlloc, Slot: s, Dim: dim})
	}
	rng := seed
	next := func() int64 {
		rng = rng*6364136223846793005 + 1442695040888963407
		return (rng >> 33) & 0x7FFFFFFF
	}
	for i := 0; i < events; i++ {
		ev := trace.Event{Slot: int(next()) % slots}
		if int(next())%100 < 60 {
			ev.Op = bus.OpRead
		} else {
			ev.Op = bus.OpWrite
			ev.Value = uint32(next())
		}
		if int(next())%100 < arithPct {
			ev.Offset = uint32(int(next())%dim) * 4
		}
		tr.Events = append(tr.Events, ev)
	}
	return tr
}

// E7 prices pointer arithmetic: interior-pointer accesses require a
// containing-range lookup in the pointer table.
func E7(o Options) (*stats.Table, error) {
	events := o.pick(30000, 2000)
	t := stats.NewTable(
		"E7: pointer-arithmetic cost (wrapper, binary lookup)",
		"live slots", "ptr-arith %", "wall", "probes/lookup", "host ns/event")
	for _, slots := range []int{10, 100, 1000} {
		for _, pct := range []int{0, 100} {
			tr := PtrArithTrace(slots, events, pct, 71)
			r, sys, err := RunTrace(o.Ctx, o.Base, config.MemWrapper, tr, trace.ModeDynamic, 1<<26)
			if err != nil {
				return nil, err
			}
			tbl := sys.Wrappers[0].Table()
			lookups := uint64(0)
			for _, c := range sys.Wrappers[0].Stats().Ops {
				lookups += c
			}
			probes := float64(tbl.Probes) / float64(max(lookups, 1))
			t.Add(fmt.Sprint(slots), fmt.Sprint(pct),
				r.Wall.Round(time.Millisecond).String(),
				fmt.Sprintf("%.1f", probes),
				fmt.Sprintf("%.0f", float64(r.Wall.Nanoseconds())/float64(events)))
		}
	}
	return t, nil
}

// E8 measures the reservation (coherence) protocol under contention:
// several PEs serialize on one hot buffer.
func E8(o Options) (*stats.Table, error) {
	sections := o.pick(300, 30)
	t := stats.NewTable(
		"E8: reservation semaphore under contention",
		"PEs", "sim cycles", "cycles/critical-section", "failed reserves")
	for _, pes := range []int{1, 2, 4, 8} {
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
			for i := 0; i < sections; i++ {
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
		for i := 0; i < pes; i++ {
			tasks = append(tasks, worker)
		}
		cfg := o.Base
		cfg.Masters, cfg.Memories, cfg.MemKind = pes+1, 1, config.MemWrapper
		sys, _, err := simulation{cfg: cfg, tasks: tasks}.run(o.Ctx)
		if err != nil {
			return nil, err
		}
		cyc := sys.Kernel.Cycle()
		failed := sys.Wrappers[0].Stats().Errors[bus.OpReserve]
		t.Add(fmt.Sprint(pes), fmt.Sprint(cyc),
			fmt.Sprintf("%.0f", float64(cyc)/float64(pes*sections)),
			fmt.Sprint(failed))
	}
	return t, nil
}

// A1 is the interconnect ablation: the E1 multi-memory configuration on
// the shared bus versus the crossbar.
func A1(o Options) (*stats.Table, error) {
	frames := o.pick(25, 3)
	t := stats.NewTable(
		"A1: interconnect ablation — 4 ISSs, 4 memories, GSM workload",
		"interconnect", "sim cycles", "wall", "cycles/s")
	for _, ic := range []config.InterconnectKind{config.InterBus, config.InterCrossbar} {
		cfg := o.Base
		cfg.Interconnect = ic
		r, err := RunGSMISS(o.Ctx, cfg, 4, 4, frames)
		if err != nil {
			return nil, err
		}
		t.Add(ic.String(), fmt.Sprint(r.Cycles), r.Wall.Round(time.Millisecond).String(), stats.SI(r.CyclesPerSec()))
	}
	return t, nil
}

// A2 is the pointer-table lookup ablation: linear versus binary search
// at increasing live-allocation counts, measured directly on the table.
func A2(o Options) (*stats.Table, error) {
	resolves := o.pick(200000, 10000)
	t := stats.NewTable(
		"A2: pointer-table lookup — linear vs binary search",
		"live allocations", "linear ns/lookup", "binary ns/lookup", "linear probes", "binary probes")
	for _, n := range []int{10, 100, 1000, 10000} {
		row := make([]string, 0, 5)
		row = append(row, fmt.Sprint(n))
		var probeCells []string
		for _, linear := range []bool{true, false} {
			tbl := core.NewPointerTable(0, nil)
			tbl.Linear = linear
			for i := 0; i < n; i++ {
				if _, code := tbl.Alloc(16, bus.U32); code != bus.OK {
					return nil, fmt.Errorf("setup alloc: %v", code)
				}
			}
			span := uint32(n) * 64
			start := time.Now()
			for i := 0; i < resolves; i++ {
				tbl.Resolve(uint32(i*2654435761) % span)
			}
			wall := time.Since(start)
			row = append(row, fmt.Sprintf("%.1f", float64(wall.Nanoseconds())/float64(resolves)))
			probeCells = append(probeCells, fmt.Sprintf("%.1f", float64(tbl.Probes)/float64(resolves)))
		}
		row = append(row, probeCells...)
		t.Add(row...)
	}
	return t, nil
}

// evDelays is the idle-heavy wrapper timing EV uses: a slow off-chip
// memory whose latencies leave the whole system counting down most
// cycles — exactly the span structure the event-driven kernel elides.
func evDelays() core.DelayParams {
	d := core.DefaultDelays()
	d.Read, d.Write = 64, 64
	d.Alloc, d.Free = 128, 64
	d.BurstBase, d.BurstPerElem = 32, 4
	return d
}

// RunEV runs the EV workload — one PE replaying a mixed trace against a
// high-latency wrapper — on the base platform and returns the measured
// result plus the kernel's scheduling counters.
func RunEV(ctx context.Context, base config.SystemConfig, events int) (stats.RunResult, sim.SchedStats, error) {
	tr := trace.Generate(trace.GenConfig{
		Seed: 91, Events: events, Slots: 24, NumSM: 1,
		MinDim: 8, MaxDim: 128, DType: bus.U32, Mix: trace.DefaultMix(),
	})
	delays := evDelays()
	base.WrapperDelays = &delays
	r, sys, err := RunTrace(ctx, base, config.MemWrapper, tr, trace.ModeDynamic, 0)
	if err != nil {
		return stats.RunResult{}, sim.SchedStats{}, err
	}
	r.Name = "event-driven"
	if base.Lockstep {
		r.Name = "lockstep"
	}
	return r, sys.Kernel.Sched(), nil
}

// EV measures the event-driven scheduler against lockstep on the
// idle-heavy configuration, verifying that both modes simulate the
// identical number of cycles and reporting the simulation-speed ratio.
// This is the kernel-side counterpart of the paper's speed results: the
// same cycle-true behavior, delivered in fewer host operations.
func EV(o Options) (*stats.Table, error) {
	events := o.pick(20000, 1500)
	reps := o.pick(3, 1)
	measure := func(lockstep bool) (stats.RunResult, sim.SchedStats, error) {
		cfg := config.SystemConfig{Lockstep: lockstep}
		if _, _, err := RunEV(o.Ctx, cfg, events); err != nil { // warmup
			return stats.RunResult{}, sim.SchedStats{}, err
		}
		var best stats.RunResult
		var sched sim.SchedStats
		for i := 0; i < reps; i++ {
			r, s, err := RunEV(o.Ctx, cfg, events)
			if err != nil {
				return stats.RunResult{}, sim.SchedStats{}, err
			}
			if i == 0 || r.Wall < best.Wall {
				best, sched = r, s
			}
		}
		return best, sched, nil
	}
	lock, lockSched, err := measure(true)
	if err != nil {
		return nil, err
	}
	ev, evSched, err := measure(false)
	if err != nil {
		return nil, err
	}
	if ev.Cycles != lock.Cycles {
		return nil, fmt.Errorf("EV: scheduler modes diverged: event-driven %d cycles, lockstep %d",
			ev.Cycles, lock.Cycles)
	}
	t := stats.NewTable(
		fmt.Sprintf("EV: lockstep vs event-driven kernel, idle-heavy wrapper (%d events; identical %d sim cycles)",
			events, lock.Cycles),
		"scheduler", "sim cycles", "wall", "cycles/s", "cycles skipped", "speedup")
	t.Add(lock.Name, fmt.Sprint(lock.Cycles), lock.Wall.Round(time.Millisecond).String(),
		stats.SI(lock.CyclesPerSec()), fmt.Sprintf("%d (%.1f%%)", lockSched.Skipped,
			100*float64(lockSched.Skipped)/float64(lock.Cycles)), "-")
	t.Add(ev.Name, fmt.Sprint(ev.Cycles), ev.Wall.Round(time.Millisecond).String(),
		stats.SI(ev.CyclesPerSec()), fmt.Sprintf("%d (%.1f%%)", evSched.Skipped,
			100*float64(evSched.Skipped)/float64(ev.Cycles)),
		fmt.Sprintf("%.2fx", ev.CyclesPerSec()/lock.CyclesPerSec()))
	return t, nil
}

// ChurnResult is one policy's measurement on an allocator churn
// workload (see RunChurn / E9).
type ChurnResult struct {
	Policy         alloc.Kind
	Allocs, Failed uint64
	Accesses       uint64  // total metered metadata accesses
	EarlyPerAlloc  float64 // accesses/alloc over the first quarter of ops
	LatePerAlloc   float64 // accesses/alloc over the last quarter
	FreeBlocks     int
	LargestFree    uint32
}

// Growth is the late/early accesses-per-alloc ratio: ~1 for policies
// whose cost is independent of fragmentation, >1 when alloc latency
// grows with the free-list state.
func (r ChurnResult) Growth() float64 {
	if r.EarlyPerAlloc == 0 {
		return 0
	}
	return r.LatePerAlloc / r.EarlyPerAlloc
}

// RunChurn replays an allocator workload (workload.Churn) against a
// heapsim.Heap under the given policy, at the allocator level — the
// per-operation metered access deltas *are* the simulated latencies
// HeapMem would charge (times WordLatency), so this measures the
// policies' cost model without simulating a whole platform around it.
func RunChurn(kind alloc.Kind, arenaBytes uint32, ops []workload.ChurnOp) (ChurnResult, error) {
	h, err := heapsim.NewHeapPolicy(arenaBytes, kind)
	if err != nil {
		return ChurnResult{}, err
	}
	slots := map[int]uint32{}
	quarter := len(ops) / 4
	var earlyAcc, lateAcc, earlyN, lateN uint64
	for i, op := range ops {
		if op.Free {
			if a, ok := slots[op.Slot]; ok {
				h.Free(a)
				delete(slots, op.Slot)
			}
			continue
		}
		before := h.Accesses
		a, ok := h.Alloc(op.Size, op.Zero)
		d := h.Accesses - before
		switch {
		case i < quarter:
			earlyAcc += d
			earlyN++
		case i >= len(ops)-quarter:
			lateAcc += d
			lateN++
		}
		if ok {
			slots[op.Slot] = a
		}
	}
	res := ChurnResult{
		Policy: kind, Allocs: h.Allocs, Failed: h.Failed, Accesses: h.Accesses,
		FreeBlocks: h.FreeBlocks(), LargestFree: h.LargestFree(),
	}
	if earlyN > 0 {
		res.EarlyPerAlloc = float64(earlyAcc) / float64(earlyN)
	}
	if lateN > 0 {
		res.LatePerAlloc = float64(lateAcc) / float64(lateN)
	}
	return res, nil
}

// E9Arena returns the arena size E9 runs against; the comb workload is
// sized to exhaust it and still spend most ops in steady churn.
// Exported so the acceptance test replays the identical scenario.
func E9Arena(o Options) uint32 { return uint32(o.pick(1<<18, 1<<14)) }

// E9Workload is the adversarial churn E9 measures: the hole-comb
// interleaving (see workload.ChurnComb).
func E9Workload(o Options) []workload.ChurnOp {
	return workload.Churn(workload.ChurnConfig{
		Seed: 91, Ops: o.pick(24000, 2400), Pattern: workload.ChurnComb,
		ArenaBytes: E9Arena(o),
	})
}

// E9 sweeps the allocation policies on the adversarial churn workload,
// reporting per-policy alloc latency (metered metadata accesses per
// allocation, early vs late in the run), its growth, and the final
// fragmentation. The acceptance claim: first-fit's (and best-fit's)
// alloc latency grows with the free-list length, while buddy and
// segregated stay near-flat on the same script.
func E9(o Options) (*stats.Table, error) {
	ops := E9Workload(o)
	t := stats.NewTable(
		fmt.Sprintf("E9: allocation policies under adversarial churn (%d ops, hole-comb)", len(ops)),
		"policy", "allocs", "denied", "mgr accesses", "acc/alloc early", "acc/alloc late", "growth", "free blocks", "largest free")
	for _, kind := range alloc.Kinds() {
		r, err := RunChurn(kind, E9Arena(o), ops)
		if err != nil {
			return nil, err
		}
		t.Add(kind.String(), fmt.Sprint(r.Allocs), fmt.Sprint(r.Failed), fmt.Sprint(r.Accesses),
			fmt.Sprintf("%.1f", r.EarlyPerAlloc), fmt.Sprintf("%.1f", r.LatePerAlloc),
			fmt.Sprintf("%.1fx", r.Growth()),
			fmt.Sprint(r.FreeBlocks), fmt.Sprint(r.LargestFree))
	}
	return t, nil
}

// RunMLP measures the split-transaction protocol's memory-level
// parallelism: `streams` DMA engines each copy `elems` 32-bit elements
// between a disjoint (source, destination) pair of wrapper memories —
// 2×streams memories in total — so every point of overlap the
// interconnect permits (read/write double-buffering within one engine,
// independent streams across engines, pipelined bursts into one memory)
// turns directly into fewer simulated cycles. Buffers are placed and
// verified host-side (the wrapper's functional path, zero simulated
// cycles), so the measured cycle count is pure transfer traffic.
func RunMLP(ctx context.Context, base config.SystemConfig, streams int, elems uint32, inter config.InterconnectKind) (stats.RunResult, error) {
	start := time.Now()
	sys, err := buildMLP(ctx, base, streams, elems, inter)
	if err != nil {
		return stats.RunResult{}, err
	}
	proto := "occupied"
	if base.SplitBus {
		proto = "split"
	}
	return stats.RunResult{
		Name:   fmt.Sprintf("%s/%s d=%d", inter, proto, base.OutstandingDepth),
		Cycles: sys.Kernel.Cycle(),
		Wall:   time.Since(start),
	}, nil
}

// buildMLP builds the MLP system, runs every stream's copy to
// completion, and verifies the destination buffers before returning the
// finished system (the differential harness snapshots it).
func buildMLP(ctx context.Context, base config.SystemConfig, streams int, elems uint32, inter config.InterconnectKind) (*config.System, error) {
	base.Masters, base.Memories, base.MemKind = streams, 2*streams, config.MemWrapper
	base.Interconnect, base.MemBytes = inter, elems*4+4096
	tr := core.Translator{}
	type stream struct {
		src, dst uint32
		eng      *dma.Engine
	}
	sts := make([]stream, streams)
	place := func(sys *config.System) error {
		for i := range sts {
			wSrc, wDst := sys.Wrappers[2*i], sys.Wrappers[2*i+1]
			src, code := wSrc.Table().Alloc(elems, bus.U32)
			if code != bus.OK {
				return fmt.Errorf("mlp: src alloc: %v", code)
			}
			dst, code := wDst.Table().Alloc(elems, bus.U32)
			if code != bus.OK {
				return fmt.Errorf("mlp: dst alloc: %v", code)
			}
			e, _, _ := wSrc.Table().Resolve(src)
			for j := uint32(0); j < elems; j++ {
				tr.WriteElem(e.Host, bus.U32, j, 0x5EED0000+uint32(i)<<16+j)
			}
			eng, err := sys.AddDMA(i, fmt.Sprintf("dma%d", i))
			if err != nil {
				return err
			}
			eng.Enqueue(dma.Descriptor{
				SrcSM: 2 * i, DstSM: 2*i + 1, SrcVPtr: src, DstVPtr: dst,
				Elems: elems, DType: bus.U32, Chunk: 32,
			})
			sts[i] = stream{src: src, dst: dst, eng: eng}
		}
		return nil
	}
	done := func() bool {
		for i := range sts {
			if !sts[i].eng.Idle() {
				return false
			}
		}
		return true
	}
	sys, _, err := simulation{cfg: base, attach: place, done: done}.run(ctx)
	if err != nil {
		return nil, err
	}
	for i := range sts {
		if d := sts[i].eng.Done(); len(d) != 1 || d[0].Err != bus.OK || d[0].Moved != elems {
			return nil, fmt.Errorf("mlp: stream %d outcome %+v", i, d)
		}
		e, _, _ := sys.Wrappers[2*i+1].Table().Resolve(sts[i].dst)
		for j := uint32(0); j < elems; j++ {
			if got, want := tr.ReadElem(e.Host, bus.U32, j), 0x5EED0000+uint32(i)<<16+j; got != want {
				return nil, fmt.Errorf("mlp: stream %d elem %d = %#x, want %#x", i, j, got, want)
			}
		}
	}
	return sys, nil
}

// CacheResult is one E11 measurement: the coherence/locality workload
// with or without private L1 caches.
type CacheResult struct {
	Cached bool
	Cycles uint64
	Wall   time.Duration
	// Aggregated over every cache (zero when uncached).
	Hits, Misses, Invalidations, Flushes, Writebacks uint64
}

// HitRate returns hits over cacheable accesses, by the cache package's
// own definition.
func (r CacheResult) HitRate() float64 {
	return cache.Stats{Hits: r.Hits, Misses: r.Misses}.HitRate()
}

// CacheWorkload parameterizes the E11 coherence/locality workload: pes
// native PEs against one static memory. Each PE first writes and then
// repeatedly sweeps a private line-aligned working set (PrivWords u32
// words, Sweeps read passes — the locality phase every private cache
// turns into hits), rewrites it, and finally enters a sharing phase: for
// SharedRounds rounds it writes its own word of a shared region and
// reads a neighbour's word. Neighbouring words share cache lines, so the
// sharing phase is a false-sharing invalidation storm — the adversarial
// case for the snoop protocol — while every word still has exactly one
// writer, which makes the final memory image exact and
// schedule-independent.
type CacheWorkload struct {
	PEs, PrivWords, Sweeps, SharedRounds int
}

// E11Workload returns the two E11 configurations: locality-heavy (the
// headline ≥1.5x claim) and sharing-heavy (the coherence stress).
func E11Workload(o Options) (locality, sharing CacheWorkload) {
	locality = CacheWorkload{PEs: 4, PrivWords: 64, Sweeps: o.pick(30, 6), SharedRounds: o.pick(40, 10)}
	sharing = CacheWorkload{PEs: 4, PrivWords: 16, Sweeps: o.pick(2, 1), SharedRounds: o.pick(400, 60)}
	return locality, sharing
}

const cacheSharedBytes = 64 // shared region: one u32 slot per PE, line-packed

func (w CacheWorkload) privBase(p int) uint32 {
	return uint32(cacheSharedBytes + p*w.PrivWords*4)
}

func (w CacheWorkload) memBytes() uint32 {
	n := uint32(cacheSharedBytes + w.PEs*w.PrivWords*4)
	return (n + 63) &^ 63
}

func (w CacheWorkload) task(p int) smapi.Task {
	return func(ctx *smapi.Ctx) {
		m := ctx.Mem(0)
		base := w.privBase(p)
		check := func(code bus.ErrCode) {
			if code != bus.OK {
				panic(code)
			}
		}
		for i := 0; i < w.PrivWords; i++ {
			check(m.WriteAs(base+uint32(4*i), uint32(p)<<24|uint32(i), bus.U32))
		}
		for s := 0; s < w.Sweeps; s++ {
			for i := 0; i < w.PrivWords; i++ {
				v, code := m.ReadAs(base+uint32(4*i), bus.U32)
				check(code)
				if v != uint32(p)<<24|uint32(i) {
					panic(fmt.Sprintf("pe%d: private word %d corrupted: %#x", p, i, v))
				}
			}
		}
		for i := 0; i < w.PrivWords; i++ {
			check(m.WriteAs(base+uint32(4*i), uint32(p)<<24|0x10000|uint32(i), bus.U32))
		}
		for r := 1; r <= w.SharedRounds; r++ {
			check(m.WriteAs(uint32(4*p), uint32(p)<<24|uint32(r), bus.U32))
			_, code := m.ReadAs(uint32(4*((p+1)%w.PEs)), bus.U32)
			check(code)
		}
	}
}

// verify checks the final memory image against the workload's exact
// expectation (single writer per word): every private word holds its
// rewrite value, every shared slot its owner's last round. peek reads
// one byte of the flat memory (static or DRAM).
func (w CacheWorkload) verify(peek func(uint32) byte) error {
	word := func(addr uint32) uint32 {
		return uint32(peek(addr)) | uint32(peek(addr+1))<<8 |
			uint32(peek(addr+2))<<16 | uint32(peek(addr+3))<<24
	}
	for p := 0; p < w.PEs; p++ {
		if got, want := word(uint32(4*p)), uint32(p)<<24|uint32(w.SharedRounds); got != want {
			return fmt.Errorf("shared slot %d = %#x, want %#x", p, got, want)
		}
		base := w.privBase(p)
		for i := 0; i < w.PrivWords; i++ {
			if got, want := word(base+uint32(4*i)), uint32(p)<<24|0x10000|uint32(i); got != want {
				return fmt.Errorf("pe%d private word %d = %#x, want %#x", p, i, got, want)
			}
		}
	}
	return nil
}

// RunCache runs the E11 workload cached (coherent private L1s) or
// uncached on the base platform, flushes the caches, verifies the final
// memory image and returns the measurement (cycles taken at workload
// completion, before the host-requested flush) plus the finished system
// for differential snapshots.
func RunCache(ctx context.Context, base config.SystemConfig, w CacheWorkload, cached bool, inter config.InterconnectKind) (CacheResult, *config.System, error) {
	base.Masters, base.Memories, base.MemKind = w.PEs, 1, flatKind(base)
	base.MemBytes, base.Interconnect = w.memBytes(), inter
	base.Cache, base.Coherent = cached || base.L2, cached || base.L2
	tasks := make([]smapi.Task, w.PEs)
	for p := range tasks {
		tasks[p] = w.task(p)
	}
	sys, wall, err := simulation{cfg: base, tasks: tasks}.run(ctx)
	if err != nil {
		return CacheResult{}, nil, err
	}
	res := CacheResult{Cached: cached, Cycles: sys.Kernel.Cycle(), Wall: wall}
	// Aggregate stats before the host-requested drain: FlushAll counts
	// its evictions as flushes/writebacks too, which would conflate the
	// terminal drain with genuine snoop-demand traffic.
	for _, c := range sys.Caches {
		st := c.Stats()
		res.Hits += st.Hits
		res.Misses += st.Misses
		res.Invalidations += st.SnoopInvalidations
		res.Flushes += st.SnoopFlushes
		res.Writebacks += st.Writebacks
	}
	if err := sys.DrainCaches(runLimit); err != nil {
		return CacheResult{}, nil, fmt.Errorf("cache drain: %w", err)
	}
	if err := w.verify(flatPeek(sys, 0)); err != nil {
		return CacheResult{}, nil, fmt.Errorf("cached=%v: %w", cached, err)
	}
	return res, sys, nil
}

// E11 measures the coherent cache hierarchy end-to-end: the
// coherence/locality workload with and without private L1s, on the
// locality-heavy and sharing-heavy configurations. The headline claim:
// private caches cut simulated cycles by ≥1.5x on the locality-heavy
// configuration (hits replace full interconnect round trips), while the
// sharing-heavy false-sharing storm stays correct under MESI snooping
// (verified final memory image) at a necessarily lower win.
func E11(o Options) (*stats.Table, error) {
	locality, sharing := E11Workload(o)
	t := stats.NewTable(
		fmt.Sprintf("E11: coherent private L1s — %d PEs, locality vs sharing phases (static memory, shared bus)", locality.PEs),
		"workload", "caches", "sim cycles", "wall", "hit rate", "invalidations", "snoop flushes", "speedup")
	for _, tc := range []struct {
		name string
		w    CacheWorkload
	}{{"locality-heavy", locality}, {"sharing-heavy", sharing}} {
		base, _, err := RunCache(o.Ctx, o.Base, tc.w, false, config.InterBus)
		if err != nil {
			return nil, err
		}
		t.Add(tc.name, "off", fmt.Sprint(base.Cycles), base.Wall.Round(time.Millisecond).String(), "-", "-", "-", "-")
		r, _, err := RunCache(o.Ctx, o.Base, tc.w, true, config.InterBus)
		if err != nil {
			return nil, err
		}
		t.Add(tc.name, "on", fmt.Sprint(r.Cycles), r.Wall.Round(time.Millisecond).String(),
			fmt.Sprintf("%.1f%%", 100*r.HitRate()), fmt.Sprint(r.Invalidations), fmt.Sprint(r.Flushes),
			fmt.Sprintf("%.2fx", float64(base.Cycles)/float64(r.Cycles)))
	}
	return t, nil
}

// E12Workload parameterizes the shared-L2 partitioning workload: two
// PEs with asymmetric working sets over one flat memory behind the
// inclusive L2. PE0 is a streaming thrasher (ThrashLines fresh 64-byte
// lines per pass, Passes passes — zero reuse, so extra L2 ways buy it
// nothing), PE1 a reuse-heavy loop over ReuseLines lines (3 per L2 set)
// touched round-robin for Rounds rounds. The loop's reuse distance
// exceeds what shared LRU can protect against the stream's insertions,
// but 3 dedicated ways hold it entirely — the gap UCP recovers. The
// reuse PE read-modify-writes its line heads (single writer per word),
// so the post-drain memory image is exact and schedule-independent.
type E12Workload struct {
	ThrashLines, Passes, ReuseLines, Rounds int
}

// E12Params returns the E12 configuration at the requested scale.
func E12Params(o Options) E12Workload {
	return E12Workload{ThrashLines: 64, Passes: o.pick(40, 6), ReuseLines: 12, Rounds: o.pick(1440, 240)}
}

func (w E12Workload) memBytes() uint32 { return 8192 }

// thrashBase places the stream in the memory's upper half, disjoint
// from the reuse loop's lines.
func (w E12Workload) thrashBase() uint32 { return 4096 }

func (w E12Workload) tasks() []smapi.Task {
	thrash := func(ctx *smapi.Ctx) {
		m := ctx.Mem(0)
		for pass := 0; pass < w.Passes; pass++ {
			for i := 0; i < w.ThrashLines; i++ {
				if _, code := m.ReadAs(w.thrashBase()+uint32(64*i), bus.U32); code != bus.OK {
					panic(code)
				}
			}
		}
	}
	reuse := func(ctx *smapi.Ctx) {
		m := ctx.Mem(0)
		for r := 0; r < w.Rounds; r++ {
			addr := uint32(r%w.ReuseLines) * 64
			v, code := m.ReadAs(addr, bus.U32)
			if code != bus.OK {
				panic(code)
			}
			if want := uint32(r / w.ReuseLines); v != want {
				panic(fmt.Sprintf("reuse line %#x = %#x in round %d, want %#x", addr, v, r, want))
			}
			if code := m.WriteAs(addr, v+1, bus.U32); code != bus.OK {
				panic(code)
			}
		}
	}
	return []smapi.Task{thrash, reuse}
}

// verify checks the exact post-drain image: every reuse line head
// counts its rounds, the streamed region stays zero.
func (w E12Workload) verify(peek func(uint32) byte) error {
	word := func(addr uint32) uint32 {
		return uint32(peek(addr)) | uint32(peek(addr+1))<<8 |
			uint32(peek(addr+2))<<16 | uint32(peek(addr+3))<<24
	}
	for i := 0; i < w.ReuseLines; i++ {
		want := uint32(w.Rounds / w.ReuseLines)
		if extra := w.Rounds % w.ReuseLines; i < extra {
			want++
		}
		if got := word(uint32(64 * i)); got != want {
			return fmt.Errorf("reuse line %d head = %#x, want %#x", i, got, want)
		}
	}
	for i := 0; i < w.ThrashLines; i++ {
		if got := word(w.thrashBase() + uint32(64*i)); got != 0 {
			return fmt.Errorf("streamed line %d head = %#x, want 0", i, got)
		}
	}
	return nil
}

// E12Result is one measured E12 leg.
type E12Result struct {
	Partition cache.PartitionKind
	// ReuseCycles is the cycle at which the reuse-heavy PE finished its
	// fixed work — the throughput metric UCP must recover. TotalCycles
	// is full-system completion.
	ReuseCycles, TotalCycles uint64
	L2                       cache.L2Stats
	DRAM                     mem.DRAMStats
	Wall                     time.Duration
}

// RunE12 runs the asymmetric two-PE workload behind the shared
// inclusive L2 under the given partition policy on the base platform
// (whose MemKind selects static or DRAM backing, see flatKind), drains
// the hierarchy and verifies the exact final image.
func RunE12(ctx context.Context, base config.SystemConfig, w E12Workload, part cache.PartitionKind) (E12Result, *config.System, error) {
	cfg := base
	cfg.L2, cfg.Cache, cfg.Coherent, cfg.Partition = true, true, true, part
	cfg.Masters, cfg.Memories, cfg.MemKind = 2, 1, flatKind(base)
	cfg.MemBytes = w.memBytes()
	// Tiny L1s so the reuse loop's traffic reaches the L2; a 4-set ×
	// 4-way L2 whose per-set capacity the two working sets fight over.
	cfg.CacheSets, cfg.CacheWays = 2, 1
	cfg.L2Sets, cfg.L2Ways, cfg.L2LineBytes = 4, 4, 64
	cfg.UCPPeriod = 128
	if cfg.MemKind == config.MemDRAM {
		// Periodic refresh on, so the E12 DRAM legs (and the scheduler
		// differential matrix over them) exercise the stall window.
		cfg.DRAMRefreshPeriod, cfg.DRAMRefreshCycles = 4096, 64
	}
	res := E12Result{Partition: part}
	// The reuse PE's finish is an observation on the way to full-system
	// completion, not a stop: a cycle hook records the first cycle after
	// which it is done — the cycle a run stopping there would end on.
	watchReuse := func(sys *config.System) error {
		sys.Kernel.AfterCycle(func(c uint64) {
			if res.ReuseCycles == 0 && sys.Procs[1].Done() {
				res.ReuseCycles = c + 1
			}
		})
		return nil
	}
	sys, wall, err := simulation{cfg: cfg, tasks: w.tasks(), attach: watchReuse}.run(ctx)
	if err != nil {
		return E12Result{}, nil, err
	}
	res.TotalCycles = sys.Kernel.Cycle()
	res.Wall = wall
	res.L2 = sys.L2.Stats()
	if len(sys.DRAMs) > 0 {
		res.DRAM = sys.DRAMs[0].Stats()
	}
	if err := sys.DrainCaches(runLimit); err != nil {
		return E12Result{}, nil, fmt.Errorf("drain: %w", err)
	}
	if err := w.verify(flatPeek(sys, 0)); err != nil {
		return E12Result{}, nil, fmt.Errorf("partition=%s: %w", part, err)
	}
	return res, sys, nil
}

// E12 measures shared-L2 way partitioning end-to-end: the asymmetric
// thrasher/reuse pair under no partitioning (shared LRU), static equal
// SWP masks, and utility-based UCP — on the static memory and again on
// the banked DRAM model (open-page). The headline claim: UCP finishes
// the reuse-heavy PE ≥1.5x sooner than unpartitioned LRU, because the
// utility monitors wall the zero-reuse stream into one way.
func E12(o Options) (*stats.Table, error) {
	w := E12Params(o)
	t := stats.NewTable(
		fmt.Sprintf("E12: shared-L2 way partitioning — stream (%d lines/pass) vs reuse loop (%d lines), 4-set × 4-way L2",
			w.ThrashLines, w.ReuseLines),
		"memory", "partition", "reuse-PE cycles", "total cycles", "wall", "L2 hit rate", "repartitions", "back-inv", "recovery")
	for _, kind := range []config.MemKind{config.MemStatic, config.MemDRAM} {
		var base uint64
		for _, part := range []cache.PartitionKind{cache.PartNone, cache.PartSWP, cache.PartUCP} {
			cfg := o.Base
			cfg.MemKind = kind
			r, _, err := RunE12(o.Ctx, cfg, w, part)
			if err != nil {
				return nil, err
			}
			rec := "-"
			if part == cache.PartNone {
				base = r.ReuseCycles
			} else {
				rec = fmt.Sprintf("%.2fx", float64(base)/float64(r.ReuseCycles))
			}
			t.Add(kind.String(), part.String(), fmt.Sprint(r.ReuseCycles), fmt.Sprint(r.TotalCycles),
				r.Wall.Round(time.Millisecond).String(),
				fmt.Sprintf("%.1f%%", 100*r.L2.HitRate()),
				fmt.Sprint(r.L2.Repartitions), fmt.Sprint(r.L2.BackInvalidations), rec)
		}
	}
	return t, nil
}

// E10Streams and E10Elems size the E10 workload; exported so the
// acceptance test replays the identical scenario.
func E10Streams() int { return 2 }

// E10Elems returns the per-stream element count.
func E10Elems(o Options) uint32 { return uint32(o.pick(4096, 768)) }

// E10 measures memory-level parallelism end-to-end: simulated cycles
// and host wall-clock of the MLP copy workload across outstanding depth
// ∈ {1,2,4,8} × interconnect {shared bus, crossbar} × allocation
// policy, all under the split-transaction protocol, with the occupied
// (pre-split) protocol at depth 1 as the reference row of each group.
// The headline claim: depth 4 on the split bus beats the
// single-outstanding protocol by ≥ 1.3× simulated cycles on the
// multi-memory configuration, because the DMA engines double-buffer
// reads against writes and the bus interleaves the streams' address and
// response phases.
func E10(o Options) (*stats.Table, error) {
	elems := E10Elems(o)
	streams := E10Streams()
	policies := []alloc.Kind{o.Base.AllocPolicy}
	if !o.Quick && o.Base.AllocPolicy == alloc.Default {
		policies = []alloc.Kind{alloc.Default, alloc.Segregated}
	}
	t := stats.NewTable(
		fmt.Sprintf("E10: memory-level parallelism — %d DMA streams × %d elems over %d memories",
			streams, elems, 2*streams),
		"interconnect", "protocol", "alloc", "depth", "sim cycles", "wall", "speedup vs d=1")
	for _, inter := range []config.InterconnectKind{config.InterBus, config.InterCrossbar} {
		for _, pol := range policies {
			cfg := o.Base
			cfg.AllocPolicy = pol
			// Reference: the occupied single-outstanding protocol.
			cfg.OutstandingDepth, cfg.SplitBus = 1, false
			ref, err := RunMLP(o.Ctx, cfg, streams, elems, inter)
			if err != nil {
				return nil, err
			}
			t.Add(inter.String(), "occupied", pol.String(), "1",
				fmt.Sprint(ref.Cycles), ref.Wall.Round(time.Millisecond).String(), "-")
			var base stats.RunResult
			for _, depth := range []int{1, 2, 4, 8} {
				cfg.OutstandingDepth, cfg.SplitBus = depth, true
				r, err := RunMLP(o.Ctx, cfg, streams, elems, inter)
				if err != nil {
					return nil, err
				}
				speed := "-"
				if depth == 1 {
					base = r
				} else {
					speed = fmt.Sprintf("%.2fx", float64(base.Cycles)/float64(r.Cycles))
				}
				t.Add(inter.String(), "split", pol.String(), fmt.Sprint(depth),
					fmt.Sprint(r.Cycles), r.Wall.Round(time.Millisecond).String(), speed)
			}
		}
	}
	return t, nil
}
