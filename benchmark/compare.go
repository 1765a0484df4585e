package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// loadSet reads a comma-separated set of result files.
func loadSet(arg string) ([]*resultFile, error) {
	var set []*resultFile
	for _, path := range strings.Split(arg, ",") {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var f resultFile
		if err := json.Unmarshal(data, &f); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		set = append(set, &f)
	}
	return set, nil
}

// setMedian is the median over the set's runs of one end-to-end metric.
func setMedian(set []*resultFile, workload, name string) (float64, bool) {
	var v []float64
	for _, f := range set {
		if w := f.Workloads[workload]; w != nil {
			if m, ok := w.EndToEnd[name]; ok {
				v = append(v, m.Value)
			}
		}
	}
	return median(v), len(v) > 0
}

// compareFiles prints, for every workload and end-to-end metric, set a's
// and set b's medians, how much worse b is, and the bound; it requires the
// exact counters to agree when the seeds do. It returns 1 when b is worse
// than a beyond a bound or a counter differs.
func compareFiles(spec *benchSpec, argA, argB string, stdout, stderr io.Writer) int {
	a, errA := loadSet(argA)
	b, errB := loadSet(argB)
	if err := errors.Join(errA, errB); err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 2
	}
	return compareSets(spec, a, b, stdout)
}

func compareSets(spec *benchSpec, a, b []*resultFile, w io.Writer) int {
	code := 0
	fmt.Fprintf(w, "%-14s %-24s %14s %14s %9s %7s\n", "workload", "metric", "a", "b", "worse by", "bound")
	for _, wl := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			va, okA := setMedian(a, wl.Name, m.Name)
			vb, okB := setMedian(b, wl.Name, m.Name)
			if !okA || !okB {
				continue
			}
			// worse is b's regression as a share of a, whichever way is better.
			worse := ratio(vb-va, va)
			if m.Better == "higher" {
				worse = -worse
			}
			bound, verdict := 0.0, ""
			if m.Bound != nil {
				bound = *m.Bound
			}
			if worse > bound {
				verdict = "  BEYOND BOUND"
				code = 1
			}
			fmt.Fprintf(w, "%-14s %-24s %14.4f %14.4f %+8.2f%% %6.0f%%%s\n",
				wl.Name, m.Name, va, vb, 100*worse, 100*bound, verdict)
		}
	}

	// A deterministic simulator repeats its simulated results exactly, so
	// with equal seeds every counter of every run must agree.
	ref := a[0]
	others := append(append([]*resultFile(nil), a[1:]...), b...)
	for _, f := range others {
		if f.Seed != ref.Seed {
			fmt.Fprintf(w, "seeds differ (%d vs %d): exact counters not compared\n", ref.Seed, f.Seed)
			return code
		}
	}
	for _, f := range others {
		for _, wl := range spec.Workloads {
			ca, cb := ref.Workloads[wl.Name], f.Workloads[wl.Name]
			if ca == nil || cb == nil {
				continue
			}
			names := make([]string, 0, len(ca.Counters))
			for n := range ca.Counters {
				names = append(names, n)
			}
			sort.Strings(names)
			for _, n := range names {
				if ca.Counters[n] != cb.Counters[n] {
					fmt.Fprintf(w, "%-14s %-24s %14d %14d  EXACT COUNTER DIFFERS\n", wl.Name, n, ca.Counters[n], cb.Counters[n])
					code = 1
				}
			}
		}
	}
	if code == 0 {
		fmt.Fprintln(w, "every end-to-end metric within its bound; exact counters identical")
	}
	return code
}
