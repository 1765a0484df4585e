// Command experiments regenerates every table and figure of the
// reproduction (see DESIGN.md §5 and EXPERIMENTS.md). Without flags it
// runs the full suite; -run selects specific experiments and -quick
// shrinks workloads for a fast smoke pass.
//
// Usage:
//
//	experiments [-quick] [-run e1,e2,a2] [-workers n] [-alloc buddy]
//	experiments -run wb -checkpoint warm.snap   # persist the warm-up snapshot
//	experiments -run wb -restore warm.snap      # sweep from a saved snapshot
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"

	"repro/internal/alloc"
	"repro/internal/cache"
	"repro/internal/experiments"
	"repro/internal/stats"
)

// profiles owns the pprof lifecycle so that every exit path — flag
// errors, failed experiments, clean completion — flushes through the
// same helper instead of special-casing deferred cleanup around
// os.Exit (which skips defers).
type profiles struct {
	cpuFile *os.File
	memPath string
}

func (p *profiles) startCPU(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return err
	}
	p.cpuFile = f
	return nil
}

// exit flushes any active profiles and terminates with code; a failed
// heap-profile write turns a clean exit into a failing one.
func (p *profiles) exit(code int) {
	if p.cpuFile != nil {
		pprof.StopCPUProfile()
		p.cpuFile.Close()
	}
	if p.memPath != "" {
		f, err := os.Create(p.memPath)
		if err == nil {
			runtime.GC()
			err = pprof.WriteHeapProfile(f)
			f.Close()
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			if code == 0 {
				code = 1
			}
		}
	}
	os.Exit(code)
}

func main() {
	quick := flag.Bool("quick", false, "shrink workloads for a fast smoke run")
	run := flag.String("run", "all", "comma-separated experiment ids (e1,e1b,e2,e3,e4,e5,e6,e7,e8,e9,e10,e11,e12,ev,par,wb,a1,a2) or 'all'")
	lockstep := flag.Bool("lockstep", false, "pin every measured kernel to lockstep stepping (EV always compares both)")
	workers := flag.Int("workers", 1, "tick-phase parallelism for every measured kernel (0 = GOMAXPROCS, 1 = sequential; PAR sweeps its own counts)")
	allocFlag := flag.String("alloc", "default", "allocation policy for every measured memory: default | first-fit | best-fit | buddy | segregated (E9 sweeps all)")
	depth := flag.Int("depth", 1, "per-port outstanding-transaction depth for every measured system (E10 sweeps its own depths)")
	split := flag.Bool("split", false, "run every measured interconnect in split-transaction mode (E10 sweeps both protocols)")
	ooo := flag.Bool("ooo", false, "deliver completions out of order on every measured master port (default: in issue order)")
	cacheOn := flag.Bool("cache", false, "front every measured master with a coherent private L1 cache (E11 sweeps cached vs uncached)")
	l2On := flag.Bool("l2", false, "interpose the shared inclusive L2 on every measured cacheable system (E12 sweeps its partition policies)")
	partit := flag.String("partition", "none", "L2 way partitioning with -l2: none | swp | ucp")
	dram := flag.Bool("dram", false, "swap flat static memories for the banked DRAM timing model (E12 sweeps static vs DRAM)")
	closePage := flag.Bool("close-page", false, "DRAM close-page row policy with -dram (default: open-page)")
	checkpoint := flag.String("checkpoint", "", "wb: write the shared warm-up snapshot to this file")
	restore := flag.String("restore", "", "wb: restore the shared warm-up snapshot from this file instead of simulating the warm-up")
	cpuprof := flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
	memprof := flag.String("memprofile", "", "write a pprof heap profile at exit to this file")
	flag.Parse()
	if *workers == 0 {
		*workers = runtime.GOMAXPROCS(0)
	}

	// SIGINT/SIGTERM cancel in-flight runs through the context; the
	// suite then exits through prof.exit, so -cpuprofile/-memprofile
	// flush even on Ctrl-C. A second signal kills immediately (default
	// disposition restored once the first one fires).
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	go func() {
		<-ctx.Done()
		stopSignals()
	}()

	prof := &profiles{memPath: *memprof}
	policy, err := alloc.ParseKind(*allocFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		prof.exit(2)
	}
	if *cpuprof != "" {
		if err := prof.startCPU(*cpuprof); err != nil {
			fmt.Fprintln(os.Stderr, err)
			prof.exit(2)
		}
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
		fmt.Fprintf(os.Stderr, "unknown -partition %q\n", *partit)
		prof.exit(2)
	}

	opts := experiments.Options{Quick: *quick, Lockstep: *lockstep, Workers: *workers,
		Alloc: policy, Depth: *depth, Split: *split, OOO: *ooo, Cache: *cacheOn,
		L2: *l2On, Partition: part, DRAM: *dram, ClosePage: *closePage,
		Checkpoint: *checkpoint, Restore: *restore, Ctx: ctx}

	// Run header: the tables below are attributable to this scheduler
	// configuration — including the completion-delivery order, so the
	// header reports the full port configuration mpsim prints.
	mode := "event-driven"
	if *lockstep {
		mode = "lockstep"
	}
	proto := "occupied"
	if *split {
		proto = "split"
	}
	order := "in-order"
	if *ooo {
		order = "out-of-order"
	}
	caches := "uncached"
	if *cacheOn {
		caches = "coherent L1"
	}
	if *l2On {
		caches = fmt.Sprintf("coherent L1 + shared L2 (%s partitioning)", *partit)
	}
	if *dram {
		page := "open-page"
		if *closePage {
			page = "close-page"
		}
		caches += fmt.Sprintf(" × %s DRAM", page)
	}
	fmt.Printf("experiments: scheduler %s × workers=%d × alloc=%s × port depth=%d × %s protocol × %s × %s (host GOMAXPROCS %d, NumCPU %d)\n\n",
		mode, *workers, policy, *depth, proto, order, caches, runtime.GOMAXPROCS(0), runtime.NumCPU())
	selected := map[string]bool{}
	for _, id := range strings.Split(*run, ",") {
		selected[strings.TrimSpace(strings.ToLower(id))] = true
	}
	want := func(id string) bool { return selected["all"] || selected[id] }

	type exp struct {
		id  string
		run func(experiments.Options) ([]*stats.Table, error)
	}
	one := func(f func(experiments.Options) (*stats.Table, error)) func(experiments.Options) ([]*stats.Table, error) {
		return func(o experiments.Options) ([]*stats.Table, error) {
			t, err := f(o)
			if err != nil {
				return nil, err
			}
			return []*stats.Table{t}, nil
		}
	}
	suite := []exp{
		{"e1", one(experiments.E1)},
		{"e1b", one(experiments.E1b)},
		{"e2", one(experiments.E2)},
		{"e3", one(experiments.E3)},
		{"e4", experiments.E4},
		{"e5", experiments.E5},
		{"e6", one(experiments.E6)},
		{"e7", one(experiments.E7)},
		{"e8", one(experiments.E8)},
		{"e9", one(experiments.E9)},
		{"e10", one(experiments.E10)},
		{"e11", one(experiments.E11)},
		{"e12", one(experiments.E12)},
		{"ev", one(experiments.EV)},
		{"par", one(experiments.PAR)},
		{"wb", one(experiments.WB)},
		{"a1", one(experiments.A1)},
		{"a2", one(experiments.A2)},
	}

	failed := false
	for _, e := range suite {
		if !want(e.id) {
			continue
		}
		tables, err := e.run(opts)
		if err != nil {
			if errors.Is(err, context.Canceled) || ctx.Err() != nil {
				fmt.Fprintf(os.Stderr, "%s: interrupted; flushing profiles\n", e.id)
				prof.exit(130)
			}
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.id, err)
			failed = true
			continue
		}
		for _, t := range tables {
			fmt.Println(t)
		}
	}
	if failed {
		prof.exit(1)
	}
	prof.exit(0)
}
