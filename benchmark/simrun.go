package main

import (
	"fmt"
	"maps"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/config"
	"repro/internal/trace"
)

// Layers the kernel's per-module profile rows are grouped into. Each is
// one internal/ package's modules: iss (CPUs), proc (smapi PEs), l1 and
// l2 (cache), bus (the interconnect), wrapper (core) and mem (static and
// DRAM tables).
var tickLayers = []string{"iss", "proc", "l1", "l2", "bus", "wrapper", "mem"}

// layerOf maps every kernel module of sys to its layer by identity.
func layerOf(sys *config.System) map[string]string {
	m := map[string]string{sys.Inter.Name(): "bus"}
	for _, c := range sys.CPUs {
		m[c.Name()] = "iss"
	}
	for _, p := range sys.Procs {
		m[p.Name()] = "proc"
	}
	for _, c := range sys.Caches {
		m[c.Name()] = "l1"
	}
	if sys.L2 != nil {
		m[sys.L2.Name()] = "l2"
	}
	for _, w := range sys.Wrappers {
		m[w.Name()] = "wrapper"
	}
	for _, r := range sys.Statics {
		m[r.Name()] = "mem"
	}
	for _, d := range sys.DRAMs {
		m[d.Name()] = "mem"
	}
	return m
}

// repResult is one rep: a fresh system built, run to completion, drained
// and verified.
type repResult struct {
	// counters are the exact simulated results; every rep of a run must
	// reproduce rep 0's.
	counters map[string]uint64

	rep, run                       time.Duration // whole rep; inside RunUntil
	build, attach, assemble, drain float64       // ms
	tick                           map[string]time.Duration
	tickTotal                      time.Duration
}

func (r repResult) cycles() uint64 { return r.counters["sim_cycles"] }

// counters collects the exact per-rep counts from the modules' Stats.
func counters(sys *config.System) map[string]uint64 {
	c := map[string]uint64{"sim_cycles": sys.Kernel.Cycle()}
	sched := sys.Kernel.Sched()
	c["sim.stepped_cycles"], c["sim.skipped_cycles"], c["sim.skip_spans"] = sched.Stepped, sched.Skipped, sched.Spans
	for _, cpu := range sys.CPUs {
		c["iss.instructions"] += cpu.Icount
	}
	bs := sys.Inter.Stats()
	c["bus.transactions"], c["bus.words"], c["bus.busy_cycles"] = bs.Transactions, bs.Words, bs.BusyCycles
	for _, l1 := range sys.Caches {
		s := l1.Stats()
		c["l1.hits"] += s.Hits
		c["l1.misses"] += s.Misses
		c["l1.writebacks"] += s.Writebacks
		c["l1.snoop_invalidations"] += s.SnoopInvalidations
	}
	if sys.L2 != nil {
		s := sys.L2.Stats()
		c["l2.hits"], c["l2.misses"] = s.Hits, s.Misses
		c["l2.back_invalidations"], c["l2.repartitions"] = s.BackInvalidations, s.Repartitions
	}
	for _, d := range sys.DRAMs {
		s := d.Stats()
		c["dram.row_hits"] += s.RowHits
		c["dram.row_misses"] += s.RowMisses
		c["dram.row_conflicts"] += s.RowConflicts
		c["dram.refresh_stall_cycles"] += s.RefreshStallCycles
	}
	for _, w := range sys.Wrappers {
		s := w.Stats()
		for _, n := range s.Ops {
			c["wrapper.ops"] += n
		}
		c["wrapper.busy_cycles"] += s.BusyCycles
		c["wrapper.host_allocs"] += s.HostAllocs
		c["core.table_live_max"] += uint64(w.Table().HighWater)
		c["alloc.placement_accesses"] += w.Table().PlacementAccesses()
	}
	for _, p := range sys.Procs {
		c["proc.ops_issued"] += p.OpsIssued
		c["proc.wait_cycles"] += p.WaitCycles
	}
	return c
}

// schedCounters are the counters that legitimately differ between the
// lockstep and event-driven schedulers.
var schedCounters = []string{"sim.stepped_cycles", "sim.skipped_cycles", "sim.skip_spans"}

// runRep executes one rep of c. profile turns on the kernel's per-module
// timing (the traced pass); lockstep pins the reference scheduler.
func runRep(c *simCase, tr *tracer, rep int, profile, lockstep bool) (repResult, error) {
	var r repResult
	root := tr.start("rep", nil, rep, 0)
	cfg := c.cfg
	cfg.Lockstep = lockstep

	sp := tr.start("config.Build", root, rep, 0)
	sys, err := config.Build(cfg)
	r.build = ms(sp.end())
	if err != nil {
		return r, err
	}
	sp = tr.start("attach", root, rep, 0)
	att, err := c.attach(sys, tr, sp, rep)
	r.attach = ms(sp.end())
	r.assemble = att.assemble
	if err != nil {
		return r, err
	}
	if profile {
		sys.Kernel.EnableProfiling()
	}

	sp = tr.start("Kernel.RunUntil", root, rep, 0)
	_, err = sys.Kernel.RunUntil(c.done(sys), runLimit)
	r.run = sp.end()
	if err != nil {
		return r, fmt.Errorf("run: %w", err)
	}
	// Counters are read at workload completion: the host-requested drain
	// below adds flush traffic that is not the workload's.
	r.counters = counters(sys)
	if profile {
		layers := layerOf(sys)
		r.tick = map[string]time.Duration{}
		for _, row := range sys.Kernel.ProfileReport() {
			layer, ok := layers[row.Name]
			if !ok {
				return r, fmt.Errorf("module %q belongs to no layer", row.Name)
			}
			r.tick[layer] += row.Time
			r.tickTotal += row.Time
		}
	}
	if att.check != nil {
		if err := att.check(sys); err != nil {
			return r, err
		}
	}

	sp = tr.start("config.DrainCaches", root, rep, 0)
	err = sys.DrainCaches(runLimit)
	r.drain = ms(sp.end())
	if err != nil {
		return r, err
	}
	if att.image != nil {
		sp = tr.start("verify", root, rep, 0)
		err = att.image(sys)
		sp.end()
		if err != nil {
			return r, fmt.Errorf("memory image: %w", err)
		}
	}
	r.rep = root.end()
	return r, nil
}

// checkLockstep runs the reduced-size case under both schedulers and
// requires cycle-for-cycle agreement on every counter the scheduler may
// not change.
func checkLockstep(w simWorkload, seed int64, tr *tracer) error {
	c := w.gen(seed, true)
	ev, err := runRep(c, tr, -1, false, false)
	if err != nil {
		return fmt.Errorf("event-driven (reduced): %w", err)
	}
	ls, err := runRep(c, tr, -1, false, true)
	if err != nil {
		return fmt.Errorf("lockstep (reduced): %w", err)
	}
	for _, k := range schedCounters {
		delete(ev.counters, k)
		delete(ls.counters, k)
	}
	if !maps.Equal(ev.counters, ls.counters) {
		return fmt.Errorf("lockstep diverges from event-driven: %v vs %v", ls.counters, ev.counters)
	}
	return nil
}

// simSetup is everything before the first timed rep: input generation,
// the lockstep check and the discarded warm-up reps. It returns the
// generated case, the reference rep all later reps must reproduce, and
// the input-generation time in ms.
func simSetup(w simWorkload, seed int64, warmups int, tr *tracer) (*simCase, repResult, float64, error) {
	sp := tr.start("gen", nil, -1, 0)
	c := w.gen(seed, false)
	genMS := ms(sp.end())
	if err := checkLockstep(w, seed, tr); err != nil {
		return nil, repResult{}, 0, err
	}
	var ref repResult
	for i := 0; i < warmups; i++ {
		r, err := runRep(c, tr, -1, false, false)
		if err != nil {
			return nil, repResult{}, 0, fmt.Errorf("warm-up rep: %w", err)
		}
		if i == 0 {
			ref = r
		} else if !maps.Equal(r.counters, ref.counters) {
			return nil, repResult{}, 0, fmt.Errorf("warm-up rep %d does not reproduce rep 0", i)
		}
	}
	return c, ref, genMS, nil
}

// repLoop runs reps until the time budget is spent (and at least minReps),
// checking each against ref. A rep that fails its check counts in failed
// and contributes no timing.
func repLoop(c *simCase, ref repResult, tr *tracer, budget time.Duration, minReps int, profile bool, firstRep int) (ok []repResult, failed int, firstErr error) {
	deadline := time.Now().Add(budget)
	for i := 0; i < minReps || time.Now().Before(deadline); i++ {
		r, err := runRep(c, tr, firstRep+i, profile, false)
		if err == nil && !maps.Equal(r.counters, ref.counters) {
			err = fmt.Errorf("rep %d does not reproduce rep 0: %v vs %v", firstRep+i, r.counters, ref.counters)
		}
		if err != nil {
			failed++
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		r.counters = nil // equal to ref's; keep the benchmark's own heap small
		ok = append(ok, r)
	}
	return ok, failed, firstErr
}

func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// peakRSSMB is the process's peak resident set (VmHWM): the memory the
// host had to find. MemStats.Sys, which the issue named, moves in 4 MB
// heap-arena steps with collector timing and spread 11-14% between
// identical runs; the resident peak spreads a few percent. (getrusage's
// ru_maxrss will not do: under `go run` it starts at the go command's own
// peak, which the child inherits across exec.) Where /proc is missing it
// falls back to MemStats.Sys.
func peakRSSMB() float64 {
	if data, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				if kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(v, "kB")), 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.Sys) / (1 << 20)
}

// userCPU is the process's user-mode CPU time so far.
func userCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano())
}

func column(reps []repResult, f func(repResult) float64) []float64 {
	v := make([]float64, len(reps))
	for i, r := range reps {
		v[i] = f(r)
	}
	return v
}

func repMS(r repResult) float64 { return ms(r.rep) }

// runSim measures one simulation workload. Untraced it produces the
// end-to-end metrics; traced it produces the per-layer ones, from an
// untraced stretch (host speeds, the tracing-overhead base) followed by
// profiled reps.
func runSim(w simWorkload, o options, tr *tracer) (*result, error) {
	res := newResult(w.name, w.size)

	// Set-up runs setupRounds times so that setup_s is a median; the last
	// round's products feed the timed reps.
	var (
		c      *simCase
		ref    repResult
		genMS  float64
		setups []float64
	)
	for i := 0; i < o.setupRounds; i++ {
		start := time.Now()
		var err error
		c, ref, genMS, err = simSetup(w, o.seed, o.warmups, tr)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}

	budget := o.budget()
	if o.traced {
		budget = budget * 4 / 10
	}
	runtime.GC()
	m0 := mallocs()
	reps, failed, firstErr := repLoop(c, ref, tr, budget, o.minReps, false, 0)
	m1 := mallocs()
	res.attempted, res.failed, res.err = len(reps)+failed, failed, firstErr
	if len(reps) == 0 {
		return res, nil
	}
	walls := column(reps, repMS)
	res.counters = ref.counters
	cycles := float64(ref.cycles())
	cyclesPerS := func(r repResult) float64 { return ratio(cycles, r.run.Seconds()) }

	if !o.traced {
		res.e2e("setup_s", median(setups), "s", len(setups))
		res.e2e("sim_cycles_per_s", median(column(reps, cyclesPerS)), "1/s", len(reps))
		res.e2e("rep_host_ms", median(walls), "ms", len(reps))
		res.e2e("host_allocs_per_kcycle", ratio(float64(m1-m0), float64(res.attempted)*cycles/1000), "1/kcycle", res.attempted)
		res.e2e("host_mem_mb", peakRSSMB(), "MB", 1)
		return res, nil
	}

	prof, pfailed, perr := repLoop(c, ref, tr, o.budget()-budget, min(o.minReps, tracedRepsWanted), true, len(reps))
	res.attempted += len(prof) + pfailed
	res.failed += pfailed
	if res.err == nil {
		res.err = perr
	}
	if len(prof) == 0 {
		return res, nil
	}
	simLayers(res, ref, reps, prof, genMS)
	if err := simExtras(w, o, c, res, tr); err != nil {
		return nil, err
	}
	return res, nil
}

// simLayers fills the per-layer metrics of a simulation workload from
// the untraced reps (host speeds) and the profiled reps (tick times).
func simLayers(res *result, ref repResult, reps, prof []repResult, genMS float64) {
	for name, v := range ref.counters {
		res.layer(name, float64(v), "count", 1)
	}
	n, pn := len(reps), len(prof)
	runNS := median(column(reps, func(r repResult) float64 { return float64(r.run.Nanoseconds()) }))
	res.layer("rep_wall_ms_p50", median(column(reps, repMS)), "ms", n)
	res.layer("rep_wall_ms_p90", percentile(column(reps, repMS), 90), "ms", n)
	res.layer("trace.overhead_ratio", ratio(median(column(prof, repMS)), median(column(reps, repMS))), "ratio", pn)
	res.layer("sim.ns_per_stepped_cycle", ratio(runNS, float64(ref.counters["sim.stepped_cycles"])), "ns", n)
	res.layer("iss.instr_per_s", ratio(float64(ref.counters["iss.instructions"]), runNS/1e9), "1/s", n)
	res.layer("iss.ipc", ratio(float64(ref.counters["iss.instructions"]), float64(ref.cycles())), "ratio", 1)
	res.layer("l1.hit_ratio", ratio(float64(ref.counters["l1.hits"]), float64(ref.counters["l1.hits"]+ref.counters["l1.misses"])), "ratio", 1)

	// Tick time per layer, and the kernel's own share: what RunUntil
	// spent outside every module's Tick (commit, NextWake scans, skips,
	// and the profiler's clock reads).
	profRun := median(column(prof, func(r repResult) float64 { return ms(r.run) }))
	for _, layer := range tickLayers {
		t := median(column(prof, func(r repResult) float64 { return ms(r.tick[layer]) }))
		res.layer(layer+".tick_ms", t, "ms", pn)
		res.layer(layer+".tick_share", ratio(t, profRun), "ratio", pn)
	}
	over := median(column(prof, func(r repResult) float64 { return ms(r.run - r.tickTotal) }))
	res.layer("sim.kernel_overhead_ms", over, "ms", pn)
	res.layer("sim.kernel_overhead_share", ratio(over, profRun), "ratio", pn)
	res.layer("bus.ns_per_txn", ratio(res.perLayer["bus.tick_ms"].Value*1e6, float64(ref.counters["bus.transactions"])), "ns", pn)
	res.layer("wrapper.ns_per_op", ratio(res.perLayer["wrapper.tick_ms"].Value*1e6, float64(ref.counters["wrapper.ops"])), "ns", pn)

	res.layer("gen.trace_ms", genMS, "ms", 1)
	res.layer("isa.assemble_ms", median(column(prof, func(r repResult) float64 { return r.assemble })), "ms", pn)
	res.layer("config.build_ms", median(column(prof, func(r repResult) float64 { return r.build })), "ms", pn)
	res.layer("config.attach_ms", median(column(prof, func(r repResult) float64 { return r.attach })), "ms", pn)
	res.layer("config.drain_ms", median(column(prof, func(r repResult) float64 { return r.drain })), "ms", pn)
}

// simExtras adds the paper's two headline ratios and the wrapper-layer
// direct probes on the workloads they belong to.
func simExtras(w simWorkload, o options, c *simCase, res *result, tr *tracer) error {
	medianRun := func(c *simCase, n int) (float64, error) {
		var runs []float64
		for i := 0; i < n; i++ {
			r, err := runRep(c, tr, -1, false, false)
			if err != nil {
				return 0, err
			}
			runs = append(runs, ratio(float64(r.cycles()), r.run.Seconds()))
		}
		return median(runs), nil
	}
	switch w.name {
	case "iss_gsm":
		// E1: what adding dynamic memories costs the co-simulation.
		n := min(o.minReps, 10)
		s1, err := medianRun(gsmCase(o.seed, gsmFrames, 1), n)
		if err != nil {
			return fmt.Errorf("e1 one-memory leg: %w", err)
		}
		s4, err := medianRun(c, n)
		if err != nil {
			return fmt.Errorf("e1 four-memory leg: %w", err)
		}
		res.layer("paper.e1_degradation_pct", 100*(1-ratio(s4, s1)), "%", n)
	case "dynmem_churn":
		res.layer("alloc.op_ns", probeAllocOp(), "ns", probeIters)
	case "dynmem_rw":
		res.layer("core.table_resolve_ns", probeTableResolve(), "ns", probeIters)
		// E2: the wrapper against a static table on the same trace.
		traces := dynTraces(o.seed, dynEvents, rwSlots, rwMix, 50)
		static := &simCase{cfg: c.cfg, attach: traceAttach(traces, trace.ModeStatic), done: procsDone}
		static.cfg.MemKind = config.MemStatic
		static.cfg.MemBytes = traces[0].StaticBytesNeeded()
		var ws, ss []float64
		for i := 0; i < min(o.minReps, 10); i++ {
			rw, err := runRep(c, tr, -1, false, false)
			if err != nil {
				return err
			}
			rs, err := runRep(static, tr, -1, false, false)
			if err != nil {
				return fmt.Errorf("static replay: %w", err)
			}
			ws, ss = append(ws, ms(rw.run)), append(ss, ms(rs.run))
		}
		res.layer("paper.wrapper_vs_static_ratio", ratio(median(ws), median(ss)), "ratio", len(ws))
	}
	return nil
}
