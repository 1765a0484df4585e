package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metric is one reported number. N is the sample count behind it (the
// reps under a median or percentile; 1 for an exact count).
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
}

// result is one workload's pass: untraced (end-to-end metrics) or traced
// (per-layer metrics).
type result struct {
	workload string
	size     map[string]int

	attempted, failed int
	err               error // first failed check, for the report

	endToEnd map[string]metric
	perLayer map[string]metric
	counters map[string]uint64
}

func newResult(workload string, size map[string]int) *result {
	return &result{workload: workload, size: size, endToEnd: map[string]metric{}, perLayer: map[string]metric{}}
}

func (r *result) e2e(name string, v float64, unit string, n int) {
	r.endToEnd[name] = metric{Value: v, Unit: unit, N: n}
}

func (r *result) layer(name string, v float64, unit string, n int) {
	r.perLayer[name] = metric{Value: v, Unit: unit, N: n}
}

// options are the knobs of one run. Everything but seed and seconds is
// fixed by main; tests shrink the rest to stay fast.
type options struct {
	seed        int64
	seconds     float64
	traced      bool
	setupRounds int
	warmups     int
	minReps     int
	workDir     string // scratch space for the service workloads' store
}

func (o options) budget() time.Duration { return time.Duration(o.seconds * float64(time.Second)) }

// driverLine is the last line of standard output of a single-workload
// pass: exactly the keys the benchmark contract names.
type driverLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]driverValue `json:"metrics"`
}

type driverValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// line renders the pass for the driver, with every metric the spec lists
// for this pass present (a layer a workload does not have reports 0).
func (r *result) line(spec *benchSpec, traced bool) driverLine {
	l := driverLine{Correct: r.failed == 0 && r.attempted > 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]driverValue{}}
	listed, got := spec.EndToEnd, r.endToEnd
	if traced {
		listed, got = spec.PerLayer, r.perLayer
	}
	for _, m := range listed {
		l.Metrics[m.Name] = driverValue{Value: got[m.Name].Value, Unit: m.Unit}
	}
	return l
}

// print writes the pass as a table: every metric by name, with its unit
// and the sample count behind it.
func (r *result) print(w io.Writer, traced bool) {
	pass, metrics := "untraced: end-to-end", r.endToEnd
	if traced {
		pass, metrics = "traced: per-layer", r.perLayer
	}
	fmt.Fprintf(w, "== %s (%s)  ops_attempted=%d ops_failed=%d\n", r.workload, pass, r.attempted, r.failed)
	if r.err != nil {
		fmt.Fprintf(w, "   first failure: %v\n", r.err)
	}
	names := make([]string, 0, len(metrics))
	for n := range metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := metrics[n]
		fmt.Fprintf(w, "   %-32s %16.4f %-9s n=%d\n", n, m.Value, m.Unit, m.N)
	}
}

// benchSpec is BENCHMARK.json: the metric names, units and bounds every
// later change is judged by.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// resultFile is what -out receives: every pass that ran, stamped with
// the host it ran on.
type resultFile struct {
	Host      hostInfo                `json:"host"`
	Seed      int64                   `json:"seed"`
	Seconds   float64                 `json:"seconds"`
	Workloads map[string]*workloadOut `json:"workloads"`
}

type workloadOut struct {
	Size      map[string]int    `json:"size"`
	Attempted int               `json:"ops_attempted"`
	Failed    int               `json:"ops_failed"`
	EndToEnd  map[string]metric `json:"end_to_end,omitempty"`
	PerLayer  map[string]metric `json:"per_layer,omitempty"`
	Counters  map[string]uint64 `json:"counters,omitempty"`
}

func (f *resultFile) add(r *result) {
	f.merge(r.workload, &workloadOut{Size: r.size, Attempted: r.attempted, Failed: r.failed,
		EndToEnd: r.endToEnd, PerLayer: r.perLayer, Counters: r.counters})
}

// merge folds one pass of a workload into the file: the untraced pass
// brings the end-to-end metrics, the traced pass the per-layer ones.
func (f *resultFile) merge(name string, pass *workloadOut) {
	w := f.Workloads[name]
	if w == nil {
		w = &workloadOut{Size: pass.Size}
		f.Workloads[name] = w
	}
	w.Attempted += pass.Attempted
	w.Failed += pass.Failed
	if len(pass.EndToEnd) > 0 {
		w.EndToEnd = pass.EndToEnd
	}
	if len(pass.PerLayer) > 0 {
		w.PerLayer = pass.PerLayer
	}
	if pass.Counters != nil {
		w.Counters = pass.Counters
	}
}

// hostInfo is the metadata every result file carries, so that two files
// are only ever compared knowingly.
type hostInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	SetupReps  int    `json:"setup_rounds"`
	Warmups    int    `json:"warmup_reps"`
	MinReps    int    `json:"min_timed_reps"`
}

func host(o options) hostInfo {
	h := hostInfo{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		CPUModel: "unknown", Commit: "unknown",
		SetupReps: o.setupRounds, Warmups: o.warmups, MinReps: o.minReps,
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	// Only in a git work tree: the benchmark driver's checkout is not one.
	if _, err := os.Stat(".git"); err == nil {
		if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			h.Commit = strings.TrimSpace(string(out))
		}
	}
	return h
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
