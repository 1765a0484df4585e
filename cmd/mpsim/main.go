// Command mpsim is the co-simulation driver: it builds an MPSoC from
// command-line flags (masters × interconnect × shared memories), runs a
// workload, and prints the activity statistics of every component.
//
// Examples:
//
//	mpsim -isses 4 -memories 4 -workload gsm -frames 20
//	mpsim -isses 2 -memories 1 -workload traffic -iters 100
//	mpsim -pes 1 -memories 2 -workload trace -events 5000 -memkind heapsim
//	mpsim -isses 1 -memories 1 -workload gsm -frames 1 -vcd wave.vcd
//	mpsim -isses 2 -memkind dram -l2 -partition ucp -workload sweep -split -depth 4
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"

	"repro/internal/bus"
	"repro/internal/config"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "mpsim:", err)
		os.Exit(1)
	}
}

func run() error {
	var cfg config.SystemConfig
	resolve := cfg.BindFlags(flag.CommandLine)
	var (
		isses    = flag.Int("isses", 0, "number of ISS masters (armlet CPUs)")
		pes      = flag.Int("pes", 0, "number of native PE masters (trace replay)")
		wl       = flag.String("workload", "gsm", "workload: gsm | traffic | sweep | trace (sweep is the scalar cacheable sweep for flat memories: static, dram)")
		frames   = flag.Int("frames", 10, "gsm: frames per ISS")
		iters    = flag.Int("iters", 50, "traffic, sweep: iterations per ISS")
		events   = flag.Int("events", 10000, "trace: events per PE")
		seed     = flag.Int64("seed", 1, "workload seed")
		vcdPath  = flag.String("vcd", "", "write a VCD waveform of the interconnect handshake")
		profile  = flag.Bool("profile", false, "report host time per module (explains simulation-speed degradation)")
		limit    = flag.Uint64("limit", 2_000_000_000, "cycle budget")
		ckpt     = flag.Uint64("checkpoint", 0, "write a snapshot after this many cycles, then keep running")
		ckptFile = flag.String("checkpoint-file", "mpsim.snap", "path the -checkpoint snapshot is written to")
		restore  = flag.String("restore", "", "resume from a snapshot file instead of starting at cycle 0 (ISS workloads only; scheduler flags may differ from the saving run)")
		cpuprof  = flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
		memprof  = flag.String("memprofile", "", "write a pprof heap profile at exit to this file")
	)
	flag.Parse()
	resolve()

	// SIGINT/SIGTERM cancel the simulation at the next chunk boundary;
	// run() then returns through its defers, so -cpuprofile/-memprofile
	// (and any -vcd waveform) flush even on Ctrl-C. A second signal
	// kills immediately.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	go func() {
		<-ctx.Done()
		stopSignals()
	}()

	if *cpuprof != "" {
		f, err := os.Create(*cpuprof)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if *memprof != "" {
		defer func() {
			f, err := os.Create(*memprof)
			if err != nil {
				fmt.Fprintln(os.Stderr, "mpsim:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "mpsim:", err)
			}
		}()
	}

	if *isses == 0 && *pes == 0 {
		*isses = 4
	}
	if *isses > 0 && *pes > 0 {
		return fmt.Errorf("choose either -isses or -pes")
	}
	cfg.Masters = *isses + *pes

	var sys *config.System
	var err error
	if *restore != "" {
		// Resume: the snapshot carries the programs and all state; the
		// flags must describe a state-compatible system (scheduler knobs
		// may differ — that is the warm-boot contract, see docs/SNAPSHOT.md).
		data, rerr := os.ReadFile(*restore)
		if rerr != nil {
			return rerr
		}
		sys, err = config.RestoreSystem(cfg, data)
		if err != nil {
			return fmt.Errorf("restore %s: %w", *restore, err)
		}
		fmt.Printf("mpsim: restored %s (%d KiB) at cycle %d\n", *restore, len(data)/1024, sys.Kernel.Cycle())
	} else {
		sys, err = config.Build(cfg)
		if err != nil {
			return err
		}
	}

	// Run header: every number printed below is attributable to this
	// configuration.
	fmt.Printf("mpsim: %d masters × %d memories; %s\n\n", cfg.Masters, cfg.Memories, cfg.Describe())

	var doneFn func() bool
	switch {
	case *restore != "":
		if len(sys.CPUs) == 0 {
			return fmt.Errorf("restored snapshot has no CPUs to run")
		}
		doneFn = sys.CPUsHalted
	case *isses > 0:
		work := *iters
		if *wl == "gsm" {
			work = *frames
		}
		progs, err := workload.ISSImages(*wl, *isses, cfg.Memories, work, uint32(*seed))
		if err != nil {
			return err
		}
		if err := sys.AddCPUs(progs...); err != nil {
			return err
		}
		doneFn = sys.CPUsHalted
	default:
		if *wl != "trace" {
			return fmt.Errorf("workload %q needs -isses masters", *wl)
		}
		mode := trace.ModeDynamic
		if cfg.MemKind == config.MemStatic || cfg.MemKind == config.MemDRAM {
			mode = trace.ModeStatic
		}
		for i := 0; i < *pes; i++ {
			tr := trace.Generate(trace.GenConfig{
				Seed: *seed + int64(i), Events: *events, Slots: 16, NumSM: cfg.Memories,
				MinDim: 4, MaxDim: 128, DType: bus.U32, Mix: trace.DefaultMix(), PtrArithPct: 20,
			})
			if err := sys.AddProcs(trace.ReplayTask(tr, mode, nil)); err != nil {
				return err
			}
		}
		doneFn = sys.ProcsDone
	}

	if *vcdPath != "" {
		f, err := os.Create(*vcdPath)
		if err != nil {
			return err
		}
		defer f.Close()
		vcd := sim.NewVCD(f, "1ns")
		for i, w := range sys.Wrappers {
			w := w
			vcd.AddVar("mem", fmt.Sprintf("%s_live", w.Name()), 16, func() uint64 {
				return uint64(w.Table().Len())
			})
			_ = i
		}
		st := func() uint64 { return sys.Inter.Stats().Transactions }
		vcd.AddVar("bus", "transactions", 32, st)
		sys.Kernel.AfterCycle(vcd.Sample)
		defer vcd.Flush()
	}

	if *profile {
		sys.Kernel.EnableProfiling()
	}
	if *ckpt > 0 {
		if err := sys.Kernel.RunCtx(ctx, *ckpt); err != nil {
			return fmt.Errorf("checkpoint warm-up: %w", err)
		}
		data, err := sys.Snapshot()
		if err != nil {
			return fmt.Errorf("checkpoint: %w", err)
		}
		if err := os.WriteFile(*ckptFile, data, 0o644); err != nil {
			return err
		}
		fmt.Printf("mpsim: checkpoint at cycle %d: wrote %d KiB to %s\n",
			sys.Kernel.Cycle(), len(data)/1024, *ckptFile)
	}
	startCycle := sys.Kernel.Cycle()
	start := time.Now()
	if _, err := sys.Kernel.RunUntilCtx(ctx, doneFn, *limit); err != nil {
		if ctx.Err() != nil {
			return fmt.Errorf("interrupted at cycle %d (profiles flushed)", sys.Kernel.Cycle())
		}
		return fmt.Errorf("simulation: %w", err)
	}
	wall := time.Since(start)
	cycles := sys.Kernel.Cycle() - startCycle

	sched := sys.Kernel.Sched()
	mode := "event-driven"
	if sched.Lockstep {
		mode = "lockstep"
	}
	fmt.Printf("simulated %d cycles in %v (%s cycles/s; %s scheduler, %d cycles skipped in %d spans)\n\n",
		cycles, wall.Round(time.Millisecond), stats.SI(stats.Rate(cycles, wall)),
		mode, sched.Skipped, sched.Spans)

	for i, cpu := range sys.CPUs {
		fmt.Printf("iss%d: exit=%#x instructions=%d stall-cycles=%d\n",
			i, cpu.ExitCode(), cpu.Icount, cpu.StallCycles)
		if out := cpu.Console(); out != "" {
			fmt.Printf("iss%d console: %q\n", i, out)
		}
	}
	if len(sys.CPUs) > 0 {
		fmt.Println()
	}

	ist := sys.Inter.Stats()
	it := stats.NewTable("interconnect", "metric", "value")
	it.Add("transactions", fmt.Sprint(ist.Transactions))
	it.Add("words moved", fmt.Sprint(ist.Words))
	it.Add("busy cycles", fmt.Sprint(ist.BusyCycles))
	it.Add("bad sm_addr", fmt.Sprint(ist.NoSlave))
	fmt.Println(it)

	mt := stats.NewTable("memories", "module", "allocs", "frees", "reads", "writes", "bursts", "errors")
	for _, w := range sys.Wrappers {
		st := w.Stats()
		var errs uint64
		for _, e := range st.Errors {
			errs += e
		}
		mt.Add(w.Name(), fmt.Sprint(st.Ops[bus.OpAlloc]), fmt.Sprint(st.Ops[bus.OpFree]),
			fmt.Sprint(st.Ops[bus.OpRead]), fmt.Sprint(st.Ops[bus.OpWrite]),
			fmt.Sprint(st.Ops[bus.OpReadBurst]+st.Ops[bus.OpWriteBurst]), fmt.Sprint(errs))
	}
	for _, r := range sys.Statics {
		st := r.Stats()
		var errs uint64
		for _, e := range st.Errors {
			errs += e
		}
		mt.Add(r.Name(), "-", "-", fmt.Sprint(st.Ops[bus.OpRead]), fmt.Sprint(st.Ops[bus.OpWrite]),
			fmt.Sprint(st.Ops[bus.OpReadBurst]+st.Ops[bus.OpWriteBurst]), fmt.Sprint(errs))
	}
	for _, h := range sys.Heaps {
		st := h.Stats()
		var errs uint64
		for _, e := range st.Errors {
			errs += e
		}
		mt.Add(h.Name(), fmt.Sprint(st.Ops[bus.OpAlloc]), fmt.Sprint(st.Ops[bus.OpFree]),
			fmt.Sprint(st.Ops[bus.OpRead]), fmt.Sprint(st.Ops[bus.OpWrite]),
			fmt.Sprint(st.Ops[bus.OpReadBurst]+st.Ops[bus.OpWriteBurst]), fmt.Sprint(errs))
	}
	for _, d := range sys.DRAMs {
		st := d.Stats()
		var errs uint64
		for _, e := range st.Errors {
			errs += e
		}
		mt.Add(d.Name(), "-", "-", fmt.Sprint(st.Ops[bus.OpRead]), fmt.Sprint(st.Ops[bus.OpWrite]),
			fmt.Sprint(st.Ops[bus.OpReadBurst]+st.Ops[bus.OpWriteBurst]), fmt.Sprint(errs))
	}
	fmt.Println(mt)

	if len(sys.DRAMs) > 0 {
		dt := stats.NewTable("DRAM banks", "module", "row hits", "row misses", "row conflicts", "refresh stalls", "stall cycles")
		for _, d := range sys.DRAMs {
			st := d.Stats()
			dt.Add(d.Name(), fmt.Sprint(st.RowHits), fmt.Sprint(st.RowMisses),
				fmt.Sprint(st.RowConflicts), fmt.Sprint(st.RefreshStalls), fmt.Sprint(st.RefreshStallCycles))
		}
		fmt.Println(dt)
	}

	if len(sys.Caches) > 0 {
		ct := stats.NewTable("L1 caches", "cache", "hits", "misses", "hit rate", "refills", "writebacks", "snoop inv", "snoop flush", "bypassed")
		for _, c := range sys.Caches {
			st := c.Stats()
			ct.Add(c.Name(), fmt.Sprint(st.Hits), fmt.Sprint(st.Misses),
				fmt.Sprintf("%.1f%%", 100*st.HitRate()), fmt.Sprint(st.Refills),
				fmt.Sprint(st.Writebacks), fmt.Sprint(st.SnoopInvalidations),
				fmt.Sprint(st.SnoopFlushes), fmt.Sprint(st.Bypassed))
		}
		fmt.Println(ct)
	}

	if sys.L2 != nil {
		st := sys.L2.Stats()
		lt := stats.NewTable("shared L2", "metric", "value")
		lt.Add("hits", fmt.Sprint(st.Hits))
		lt.Add("misses", fmt.Sprint(st.Misses))
		lt.Add("hit rate", fmt.Sprintf("%.1f%%", 100*st.HitRate()))
		lt.Add("refills", fmt.Sprint(st.Refills))
		lt.Add("writebacks", fmt.Sprint(st.Writebacks))
		lt.Add("back-invalidations", fmt.Sprint(st.BackInvalidations))
		lt.Add("dirty merges", fmt.Sprint(st.DirtyMerges))
		lt.Add("repartitions", fmt.Sprint(st.Repartitions))
		lt.Add("bypassed", fmt.Sprint(st.Bypassed))
		fmt.Println(lt)
	}

	if *profile {
		var total time.Duration
		rep := sys.Kernel.ProfileReport()
		for _, r := range rep {
			total += r.Time
		}
		pt := stats.NewTable("host time per module (profiled run)", "module", "time", "share")
		for _, r := range rep {
			pt.Add(r.Name, r.Time.Round(time.Microsecond).String(),
				fmt.Sprintf("%.1f%%", 100*float64(r.Time)/float64(total)))
		}
		fmt.Println(pt)
	}
	return nil
}
