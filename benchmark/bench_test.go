package main

import (
	"io"
	"math"
	"path/filepath"
	"regexp"
	"testing"
)

func TestPercentile(t *testing.T) {
	v := []float64{5, 1, 4, 2, 3}
	for _, tc := range []struct{ p, want float64 }{{0, 1}, {50, 3}, {100, 5}, {25, 2}, {90, 4.6}} {
		if got := percentile(v, tc.p); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("percentile(%v, %v) = %v, want %v", v, tc.p, got, tc.want)
		}
	}
	if v[0] != 5 {
		t.Error("percentile sorted its argument in place")
	}
	if got := median([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Errorf("median of an even count = %v, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median of nothing = %v, want 0", got)
	}
}

// smokeOptions shrink a run to one set-up round and one timed rep (the
// service workloads run one job per client).
func smokeOptions(t *testing.T, traced bool) options {
	return options{seed: 2, seconds: 0, traced: traced, setupRounds: 1, warmups: 1, minReps: 1, workDir: t.TempDir()}
}

// TestSmoke runs both passes of every workload once on a second seed:
// the correctness gate must pass, every profiled module must belong to a
// layer and the layers' tick times plus the kernel's own time must add up
// to the time inside RunUntil, and BENCHMARK.json must list exactly the
// workloads and metrics the benchmark emits.
func TestSmoke(t *testing.T) {
	spec, err := loadSpec(filepath.Join("..", specPath))
	if err != nil {
		t.Fatal(err)
	}
	nameOK := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	if n := len(spec.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(spec.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	listed := map[string]bool{}
	for _, m := range append(append([]specMetric(nil), spec.EndToEnd...), spec.PerLayer...) {
		if !nameOK.MatchString(m.Name) {
			t.Errorf("metric name %q is not a legal name", m.Name)
		}
		if listed[m.Name] {
			t.Errorf("metric %q listed twice", m.Name)
		}
		listed[m.Name] = true
	}
	for _, m := range spec.EndToEnd {
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("end-to-end metric %q needs a bound in (0, 0.25]", m.Name)
		}
	}

	all := allWorkloads()
	if len(all) != len(spec.Workloads) {
		t.Fatalf("%d workloads, BENCHMARK.json lists %d", len(all), len(spec.Workloads))
	}
	emitted := map[string]bool{}
	for i, w := range all {
		if sw := spec.Workloads[i]; sw.Name != w.name || sw.Why != w.why || !nameOK.MatchString(w.name) {
			t.Errorf("workload %d is %q (%q), BENCHMARK.json has %q (%q)", i, w.name, w.why, sw.Name, sw.Why)
		}
		for _, traced := range []bool{false, true} {
			res, err := w.run(smokeOptions(t, traced), newTracer(traced))
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if res.failed != 0 || res.attempted == 0 {
				t.Errorf("%s traced=%v: %d of %d ops failed: %v", w.name, traced, res.failed, res.attempted, res.err)
			}
			if !traced {
				for _, m := range spec.EndToEnd {
					if got, ok := res.endToEnd[m.Name]; !ok || got.Value <= 0 {
						t.Errorf("%s: end-to-end metric %q = %v, want a positive value", w.name, m.Name, got.Value)
					}
				}
				if len(res.endToEnd) != len(spec.EndToEnd) {
					t.Errorf("%s emits %d end-to-end metrics, BENCHMARK.json lists %d", w.name, len(res.endToEnd), len(spec.EndToEnd))
				}
				continue
			}
			for name := range res.perLayer {
				emitted[name] = true
				if !listed[name] {
					t.Errorf("%s emits per-layer metric %q, which BENCHMARK.json does not list", w.name, name)
				}
			}
			if _, profiled := res.perLayer["sim.kernel_overhead_ms"]; profiled {
				sum := res.perLayer["sim.kernel_overhead_ms"].Value
				for _, layer := range tickLayers {
					sum += res.perLayer[layer+".tick_ms"].Value
				}
				// One profiled rep, so the medians are that rep's values
				// and the identity is exact up to rounding.
				run := res.perLayer["sim.kernel_overhead_ms"].Value / res.perLayer["sim.kernel_overhead_share"].Value
				if math.Abs(sum-run) > 0.01*run {
					t.Errorf("%s: layers + kernel = %.3f ms, RunUntil took %.3f ms", w.name, sum, run)
				}
			}
		}
	}
	for _, m := range spec.PerLayer {
		if !emitted[m.Name] {
			t.Errorf("no workload emits per-layer metric %q", m.Name)
		}
	}
}

// TestCompare checks the A/A tool's verdicts on hand-made result files.
func TestCompare(t *testing.T) {
	spec, err := loadSpec(filepath.Join("..", specPath))
	if err != nil {
		t.Fatal(err)
	}
	file := func(speed float64, cycles uint64) *resultFile {
		return &resultFile{Seed: 1, Workloads: map[string]*workloadOut{"iss_gsm": {
			EndToEnd: map[string]metric{"sim_cycles_per_s": {Value: speed, Unit: "1/s", N: 1}},
			Counters: map[string]uint64{"sim_cycles": cycles},
		}}}
	}
	for _, tc := range []struct {
		name string
		b    *resultFile
		want int
	}{
		{"equal", file(100, 7), 0},
		{"faster", file(150, 7), 0},
		{"within bound", file(95, 7), 0},
		{"beyond bound", file(80, 7), 1},
		{"counter differs", file(100, 8), 1},
	} {
		if got := compareSets(spec, []*resultFile{file(100, 7)}, []*resultFile{tc.b}, io.Discard); got != tc.want {
			t.Errorf("%s: compare = %d, want %d", tc.name, got, tc.want)
		}
	}
}
