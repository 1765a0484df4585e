// Command experiments regenerates every table and figure of the
// reproduction (see EXPERIMENTS.md and README.md). Without flags it
// runs the full suite; -run selects specific experiments and -quick
// shrinks workloads for a fast smoke pass.
//
// Usage:
//
//	experiments [-quick] [-run e1,e2,a2] [-workers n] [-alloc buddy] [-memkind dram]
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
	"slices"
	"strings"
	"syscall"

	"repro/internal/config"
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

// one adapts a single-table experiment to the suite's signature.
func one(f func(experiments.Options) (*stats.Table, error)) func(experiments.Options) ([]*stats.Table, error) {
	return func(o experiments.Options) ([]*stats.Table, error) {
		t, err := f(o)
		if err != nil {
			return nil, err
		}
		return []*stats.Table{t}, nil
	}
}

// suite is every experiment in print order; -run selects from its ids.
var suite = []struct {
	id  string
	run func(experiments.Options) ([]*stats.Table, error)
}{
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

func main() {
	ids := make([]string, len(suite))
	for i, e := range suite {
		ids[i] = e.id
	}
	// The platform flags set the base every measured system starts from;
	// each experiment overrides the axes it sizes or sweeps itself.
	var base config.SystemConfig
	resolve := base.BindFlags(flag.CommandLine)
	quick := flag.Bool("quick", false, "shrink workloads for a fast smoke run")
	run := flag.String("run", "all", "comma-separated experiment ids ("+strings.Join(ids, ",")+") or 'all'")
	checkpoint := flag.String("checkpoint", "", "wb: write the shared warm-up snapshot to this file")
	restore := flag.String("restore", "", "wb: restore the shared warm-up snapshot from this file instead of simulating the warm-up")
	cpuprof := flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
	memprof := flag.String("memprofile", "", "write a pprof heap profile at exit to this file")
	flag.Parse()
	resolve()

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
	selected := map[string]bool{}
	for _, id := range strings.Split(*run, ",") {
		id = strings.TrimSpace(strings.ToLower(id))
		if id != "all" && !slices.Contains(ids, id) {
			fmt.Fprintf(os.Stderr, "unknown experiment %q in -run (want 'all' or any of %s)\n", id, strings.Join(ids, ","))
			prof.exit(2)
		}
		selected[id] = true
	}
	if *cpuprof != "" {
		if err := prof.startCPU(*cpuprof); err != nil {
			fmt.Fprintln(os.Stderr, err)
			prof.exit(2)
		}
	}

	opts := experiments.Options{Quick: *quick, Base: base,
		Checkpoint: *checkpoint, Restore: *restore, Ctx: ctx}

	// Run header: the tables below are attributable to this base
	// configuration.
	fmt.Printf("experiments: %s\n\n", base.Describe())

	failed := false
	for _, e := range suite {
		if !selected["all"] && !selected[e.id] {
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
