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

	"repro/internal/alloc"
	"repro/internal/bus"
	"repro/internal/cache"
	"repro/internal/config"
	"repro/internal/isa"
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
	var (
		isses    = flag.Int("isses", 0, "number of ISS masters (armlet CPUs)")
		pes      = flag.Int("pes", 0, "number of native PE masters (trace replay)")
		memories = flag.Int("memories", 1, "number of shared memory modules")
		memkind  = flag.String("memkind", "wrapper", "memory model: wrapper | static | heapsim | dram")
		inter    = flag.String("interconnect", "bus", "interconnect: bus | crossbar")
		wl       = flag.String("workload", "gsm", "workload: gsm | traffic | sweep | trace (sweep is the scalar cacheable sweep for flat memories: static, dram)")
		frames   = flag.Int("frames", 10, "gsm: frames per ISS")
		iters    = flag.Int("iters", 50, "traffic: iterations per ISS")
		events   = flag.Int("events", 10000, "trace: events per PE")
		seed     = flag.Int64("seed", 1, "workload seed")
		vcdPath  = flag.String("vcd", "", "write a VCD waveform of the interconnect handshake")
		profile  = flag.Bool("profile", false, "report host time per module (explains simulation-speed degradation)")
		lockstep = flag.Bool("lockstep", false, "pin the kernel to lockstep stepping (default: event-driven idle-skip)")
		workers  = flag.Int("workers", 1, "tick-phase parallelism: modules sharded across this many concurrent workers (0 = GOMAXPROCS, 1 = sequential)")
		policy   = flag.String("alloc", "default", "allocation policy: default | first-fit | best-fit | buddy | segregated (heapsim metadata allocator / wrapper virtual placement)")
		depth    = flag.Int("depth", 1, "per-port outstanding-transaction depth (credit pool; 1 = classic single-outstanding)")
		split    = flag.Bool("split", false, "split-transaction interconnect: address phase releases the bus, responses re-arbitrate")
		ooo      = flag.Bool("ooo", false, "deliver completions out of order (default: in issue order)")
		cacheOn  = flag.Bool("cache", false, "front every master with a private write-back L1 cache (MESI-snooped when -coherent)")
		coherent = flag.Bool("coherent", true, "attach the L1s to a MESI snoop domain (only meaningful with -cache)")
		l1sets   = flag.Int("l1sets", 0, "L1 sets (0 = default 64)")
		l1ways   = flag.Int("l1ways", 0, "L1 ways (0 = default 2)")
		l1line   = flag.Uint("l1line", 0, "L1 line size in bytes (0 = default 32)")
		mshrs    = flag.Int("mshrs", 0, "L1 miss-status-holding registers (0 = default 4)")
		l2on     = flag.Bool("l2", false, "interpose a shared inclusive L2 between interconnect and memory (implies -cache -coherent)")
		l2sets   = flag.Int("l2sets", 0, "L2 sets (0 = default 64)")
		l2ways   = flag.Int("l2ways", 0, "L2 ways (0 = default 8)")
		l2line   = flag.Uint("l2line", 0, "L2 line size in bytes (0 = default 64)")
		l2mshrs  = flag.Int("l2mshrs", 0, "L2 miss-status-holding registers (0 = default 8)")
		partit   = flag.String("partition", "none", "L2 way partitioning: none | swp | ucp")
		ucpPer   = flag.Uint64("ucp-period", 0, "demand accesses between UCP repartitions (0 = default)")
		dbanks   = flag.Int("dram-banks", 0, "DRAM banks (0 = default 8)")
		drow     = flag.Uint("dram-rowbytes", 0, "DRAM row-buffer bytes per bank (0 = default 1024)")
		dclose   = flag.Bool("dram-close-page", false, "DRAM close-page policy (default: open-page row buffers)")
		drefp    = flag.Uint64("dram-refresh-period", 0, "cycles between DRAM refresh epochs (0 = refresh off)")
		drefc    = flag.Uint("dram-refresh-cycles", 0, "cycles a bank stalls per refresh epoch")
		limit    = flag.Uint64("limit", 2_000_000_000, "cycle budget")
		ckpt     = flag.Uint64("checkpoint", 0, "write a snapshot after this many cycles, then keep running")
		ckptFile = flag.String("checkpoint-file", "mpsim.snap", "path the -checkpoint snapshot is written to")
		restore  = flag.String("restore", "", "resume from a snapshot file instead of starting at cycle 0 (ISS workloads only; scheduler flags may differ from the saving run)")
		cpuprof  = flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
		memprof  = flag.String("memprofile", "", "write a pprof heap profile at exit to this file")
	)
	flag.Parse()
	if *workers == 0 {
		*workers = runtime.GOMAXPROCS(0)
	}

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

	var kind config.MemKind
	switch *memkind {
	case "wrapper":
		kind = config.MemWrapper
	case "static":
		kind = config.MemStatic
	case "heapsim":
		kind = config.MemHeapSim
	case "dram":
		kind = config.MemDRAM
	default:
		return fmt.Errorf("unknown -memkind %q", *memkind)
	}
	var ic config.InterconnectKind
	switch *inter {
	case "bus":
		ic = config.InterBus
	case "crossbar":
		ic = config.InterCrossbar
	default:
		return fmt.Errorf("unknown -interconnect %q", *inter)
	}

	allocKind, err := alloc.ParseKind(*policy)
	if err != nil {
		return err
	}
	var part cache.PartitionKind
	switch *partit {
	case "none":
		part = cache.PartNone
	case "swp":
		part = cache.PartSWP
	case "ucp":
		part = cache.PartUCP
	default:
		return fmt.Errorf("unknown -partition %q", *partit)
	}
	if *l2on {
		// The L2's inclusion machinery back-invalidates L1 lines through
		// the MESI domain, so an L2 always implies coherent L1s.
		*cacheOn, *coherent = true, true
	}

	masters := *isses + *pes
	cfg := config.SystemConfig{
		Masters: masters, Memories: *memories, MemKind: kind, Interconnect: ic,
		AllocPolicy: allocKind, Lockstep: *lockstep, Workers: *workers,
		OutstandingDepth: *depth, SplitBus: *split, OutOfOrder: *ooo,
		Cache: *cacheOn, Coherent: *cacheOn && *coherent,
		CacheSets: *l1sets, CacheWays: *l1ways, CacheLineBytes: uint32(*l1line), CacheMSHRs: *mshrs,
		L2: *l2on, L2Sets: *l2sets, L2Ways: *l2ways, L2LineBytes: uint32(*l2line), L2MSHRs: *l2mshrs,
		Partition: part, UCPPeriod: *ucpPer,
		DRAMBanks: *dbanks, DRAMRowBytes: uint32(*drow), DRAMClosePage: *dclose,
		DRAMRefreshPeriod: *drefp, DRAMRefreshCycles: uint32(*drefc),
	}
	var sys *config.System
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
	// scheduler configuration.
	schedMode := "event-driven"
	if *lockstep {
		schedMode = "lockstep"
	}
	proto := "occupied"
	if *split {
		proto = "split"
	}
	order := "in-order"
	if *ooo {
		order = "out-of-order"
	}
	cacheDesc := "uncached"
	if len(sys.Caches) > 0 {
		coh := "private"
		if sys.Domain != nil {
			coh = "MESI-coherent"
		}
		cacheDesc = fmt.Sprintf("%s L1 ×%d (%dB lines)", coh, len(sys.Caches), sys.Caches[0].LineBytes())
	}
	if sys.L2 != nil {
		cacheDesc += fmt.Sprintf(" + shared inclusive L2 (%s partitioning)", *partit)
	}
	if kind == config.MemDRAM {
		page := "open-page"
		if *dclose {
			page = "close-page"
		}
		cacheDesc += fmt.Sprintf("; banked DRAM (%s)", page)
	}
	fmt.Printf("mpsim: %d masters × %s × %d %s memories (alloc %s); %s; %s protocol × depth=%d × %s; scheduler %s × workers=%d (host GOMAXPROCS %d, NumCPU %d)\n\n",
		masters, ic, *memories, kind, allocKind, cacheDesc, proto, *depth, order, schedMode, sys.Kernel.Workers(), runtime.GOMAXPROCS(0), runtime.NumCPU())

	var doneFn func() bool
	switch {
	case *restore != "":
		if len(sys.CPUs) == 0 {
			return fmt.Errorf("restored snapshot has no CPUs to run")
		}
		doneFn = sys.CPUsHalted
	case *isses > 0:
		var progs [][]byte
		for i := 0; i < *isses; i++ {
			var src string
			switch *wl {
			case "gsm":
				src = workload.GSMKernelSource(workload.GSMKernelConfig{
					Frames: *frames, SM: i % *memories, Seed: uint32(*seed) + uint32(i),
				})
			case "traffic":
				src = workload.TrafficKernelSource(workload.TrafficKernelConfig{
					Iterations: *iters, SM: i % *memories,
				})
			case "sweep":
				// Interleaved word ranges: ISS i owns words i, i+n, i+2n, …
				// — neighbouring ISSs falsely share every cache line.
				src = workload.SweepKernelSource(workload.SweepKernelConfig{
					Iterations: *iters, SM: i % *memories,
					Base: 4 * i, Stride: 4 * *isses, Words: 64,
					Seed: uint32(*seed) + uint32(16*(i+1)),
				})
			default:
				return fmt.Errorf("workload %q needs -pes masters", *wl)
			}
			p, err := isa.Assemble(src)
			if err != nil {
				return fmt.Errorf("assemble iss %d: %w", i, err)
			}
			progs = append(progs, p.Code)
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
		if kind == config.MemStatic || kind == config.MemDRAM {
			mode = trace.ModeStatic
		}
		for i := 0; i < *pes; i++ {
			tr := trace.Generate(trace.GenConfig{
				Seed: *seed + int64(i), Events: *events, Slots: 16, NumSM: *memories,
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
	fmt.Printf("simulated %d cycles in %v (%s cycles/s; %s scheduler × workers=%d, %d cycles skipped in %d spans)\n\n",
		cycles, wall.Round(time.Millisecond), stats.SI(stats.Rate(cycles, wall)),
		mode, sched.Workers, sched.Skipped, sched.Spans)

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
