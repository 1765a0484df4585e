// Command benchmark is the repository's benchmark: eight named workloads,
// end-to-end host-speed metrics from an untraced pass, and per-layer host
// time and exact counters from a traced pass. BENCHMARK.json names every
// metric and the bound by which it may worsen; README.md explains the
// workloads and which layer should move which metric.
//
//	go run ./benchmark                                  # every workload, untraced then traced
//	go run ./benchmark -workload iss_gsm -trace 0       # one pass; last line is the result JSON
//	go run ./benchmark -compare a.json b.json           # A/A or parent-vs-change table
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
)

const specPath = "BENCHMARK.json"

// namedWorkload is either kind of workload behind one face.
type namedWorkload struct {
	name, why string
	run       func(o options, tr *tracer) (*result, error)
}

func allWorkloads() []namedWorkload {
	var ws []namedWorkload
	for _, w := range simWorkloads {
		ws = append(ws, namedWorkload{w.name, w.why, func(o options, tr *tracer) (*result, error) { return runSim(w, o, tr) }})
	}
	for _, w := range svcWorkloads {
		ws = append(ws, namedWorkload{w.name, w.why, func(o options, tr *tracer) (*result, error) { return runSvc(w, o, tr) }})
	}
	return ws
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run only this workload (default: all)")
	seed := fs.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 0, "timed seconds per pass (default: run_seconds of BENCHMARK.json)")
	pass := fs.String("trace", "", "0: untraced pass, end-to-end metrics; 1: traced pass, per-layer metrics (default: both)")
	out := fs.String("out", "benchmark/out", "directory for the result JSON, the span file and scratch space")
	compare := fs.Bool("compare", false, "compare two result files (or comma-separated sets of them) against the bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	spec, err := loadSpec(specPath)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: run from the repository root: %v\n", err)
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchmark: -compare needs two result files (or comma-separated sets)")
			return 2
		}
		return compareFiles(spec, fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if *seconds <= 0 {
		*seconds = float64(spec.RunSeconds)
	}

	var passes []string
	switch *pass {
	case "":
		passes = []string{"0", "1"}
	case "0", "1":
		passes = []string{*pass}
	default:
		fmt.Fprintf(stderr, "benchmark: -trace %q: want 0 or 1\n", *pass)
		return 2
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 2
	}
	// One load shape for every workload: two host threads (the shared
	// box has two cores), sequential ticking.
	runtime.GOMAXPROCS(2)
	o := options{seed: *seed, seconds: *seconds, setupRounds: setupRounds, warmups: warmupReps, minReps: minTimedReps}
	file := &resultFile{Host: host(o), Seed: *seed, Seconds: *seconds, Workloads: map[string]*workloadOut{}}

	if *name == "" || len(passes) > 1 {
		return runEach(*name, passes, *out, file, stdout, stderr)
	}
	for _, w := range allWorkloads() {
		if w.name == *name {
			return runOne(w, o, passes[0] == "1", *out, file, spec, stdout, stderr)
		}
	}
	fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", *name)
	return 2
}

func passFile(out, kind, workload, pass string) string {
	return filepath.Join(out, fmt.Sprintf("%s-%s-trace%s.json", kind, workload, pass))
}

// runOne measures one pass of one workload in this process and prints its
// table, then the result line the benchmark contract asks for.
func runOne(w namedWorkload, o options, traced bool, out string, file *resultFile, spec *benchSpec, stdout, stderr io.Writer) int {
	o.traced = traced
	o.workDir = filepath.Join(out, fmt.Sprintf("work-%d", os.Getpid()))
	if err := os.MkdirAll(o.workDir, 0o755); err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 2
	}
	defer os.RemoveAll(o.workDir)

	tr := newTracer(traced)
	res, err := w.run(o, tr)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.name, err)
		return 1
	}
	pass := "0"
	if traced {
		pass = "1"
		if err := writeJSON(passFile(out, "spans", w.name, pass), tr.chromeTrace()); err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
	}
	file.add(res)
	if err := writeJSON(passFile(out, "result", w.name, pass), file); err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	res.print(stdout, traced)
	line := res.line(spec, traced)
	data, _ := json.Marshal(line) // plain numbers and strings: cannot fail
	fmt.Fprintf(stdout, "%s\n", data)
	if !line.Correct {
		return 1
	}
	return 0
}

// runEach runs every selected workload and pass in a process of its own,
// as the benchmark driver does, so that one workload's heap and collector
// state never reach the next, and merges their result files.
func runEach(only string, passes []string, out string, file *resultFile, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 2
	}
	code := 0
	for _, w := range allWorkloads() {
		if only != "" && only != w.name {
			continue
		}
		for _, pass := range passes {
			cmd := exec.Command(exe, "-workload", w.name, "-trace", pass, "-out", out,
				"-seed", fmt.Sprint(file.Seed), "-seconds", fmt.Sprint(file.Seconds))
			cmd.Stdout, cmd.Stderr = stdout, stderr
			if err := cmd.Run(); err != nil {
				fmt.Fprintf(stderr, "benchmark: %s -trace %s: %v\n", w.name, pass, err)
				code = 1
				continue
			}
			set, err := loadSet(passFile(out, "result", w.name, pass))
			if err != nil {
				fmt.Fprintf(stderr, "benchmark: %v\n", err)
				return 1
			}
			file.Host = set[0].Host
			for name, wl := range set[0].Workloads {
				file.merge(name, wl)
			}
		}
	}
	if len(file.Workloads) == 0 {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", only)
		return 2
	}
	if err := writeJSON(filepath.Join(out, "result.json"), file); err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	return code
}
