package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/experiments"
)

// fakeRunner is a deterministic in-memory Runner for API tests: instant
// legs, counted runs, optional blocking (for cancel tests) and panics
// (for isolation tests).
type fakeRunner struct {
	runs    atomic.Int32
	warmups atomic.Int32
	// block, when non-nil, makes RunLeg wait for ctx cancellation —
	// simulating a long leg.
	block bool
	// panicName makes the leg with this name panic.
	panicName string
}

func (f *fakeRunner) RunLeg(ctx context.Context, leg experiments.LegSpec, warm []byte) (experiments.LegResult, error) {
	if leg.Name == f.panicName {
		panic("synthetic leg crash")
	}
	if f.block {
		<-ctx.Done()
		return experiments.LegResult{}, ctx.Err()
	}
	f.runs.Add(1)
	var start uint64
	if warm != nil {
		start = 100
	}
	return experiments.LegResult{
		Name: leg.Name, StartCycle: start, Cycles: 1000,
		Instructions: 500, Stats: map[string]uint64{"inter.transactions": 7},
	}, nil
}

func (f *fakeRunner) Warmup(ctx context.Context, leg experiments.LegSpec, cycles uint64) ([]byte, error) {
	f.warmups.Add(1)
	return []byte("fake snapshot bytes"), nil
}

// newTestServer wires a Server over a temp store and an httptest
// frontend. runner nil uses the real simulator.
func newTestServer(t *testing.T, runner experiments.Runner) (*Server, *httptest.Server) {
	t.Helper()
	store, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{
		Runner: runner,
		Store:  store,
		Logger: slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close() })
	return srv, ts
}

func postJob(t *testing.T, ts *httptest.Server, spec SweepSpec) (id string, status int) {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]string
	json.NewDecoder(resp.Body).Decode(&out)
	return out["id"], resp.StatusCode
}

func getJob(t *testing.T, ts *httptest.Server, id string) JobView {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v JobView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

// pollJob polls until the job reaches a terminal state.
func pollJob(t *testing.T, ts *httptest.Server, id string) JobView {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		v := getJob(t, ts, id)
		switch v.State {
		case StateDone, StateFailed, StateCanceled:
			return v
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s did not settle", id)
	return JobView{}
}

// metricValue scrapes one (possibly labeled) metric from /metrics.
func metricValue(t *testing.T, ts *httptest.Server, metric string) float64 {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	re := regexp.MustCompile("(?m)^" + regexp.QuoteMeta(metric) + " ([0-9.e+-]+)$")
	m := re.FindSubmatch(body)
	if m == nil {
		t.Fatalf("metric %q not found in:\n%s", metric, body)
	}
	v, err := strconv.ParseFloat(string(m[1]), 64)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestSubmitPollLifecycle(t *testing.T) {
	f := &fakeRunner{}
	_, ts := newTestServer(t, f)

	id, code := postJob(t, ts, SweepSpec{
		Name: "sweep",
		Legs: []experiments.LegSpec{{Name: "a"}, {Name: "b", Lockstep: true}},
	})
	if code != http.StatusAccepted {
		t.Fatalf("POST = %d, want 202", code)
	}
	v := pollJob(t, ts, id)
	if v.State != StateDone {
		t.Fatalf("state = %s (%s), want done", v.State, v.Error)
	}
	if len(v.Legs) != 2 {
		t.Fatalf("legs = %d, want 2", len(v.Legs))
	}
	for _, leg := range v.Legs {
		if leg.State != StateDone || leg.Source != SourceSimulated {
			t.Errorf("leg %q: state %s source %s", leg.Name, leg.State, leg.Source)
		}
		if leg.Cycles != 1000 {
			t.Errorf("leg %q: cycles %d", leg.Name, leg.Cycles)
		}
	}
	if got := f.runs.Load(); got != 2 {
		t.Errorf("runner ran %d legs, want 2", got)
	}

	// The identical sweep resubmitted: both legs served from the store,
	// zero additional simulations.
	id2, _ := postJob(t, ts, SweepSpec{
		Name: "sweep again",
		Legs: []experiments.LegSpec{{Name: "a"}, {Name: "b", Lockstep: true}},
	})
	v2 := pollJob(t, ts, id2)
	if v2.State != StateDone {
		t.Fatalf("resubmit state = %s (%s)", v2.State, v2.Error)
	}
	for _, leg := range v2.Legs {
		if leg.Source != SourceStore {
			t.Errorf("resubmitted leg %q source = %s, want store", leg.Name, leg.Source)
		}
	}
	if got := f.runs.Load(); got != 2 {
		t.Errorf("resubmit simulated legs: runner ran %d total, want still 2", got)
	}

	// result.json artifact exists for the finished job.
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/artifacts/result.json")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("artifact GET = %d", resp.StatusCode)
	}
}

func TestSubmitRejectsMalformed(t *testing.T) {
	_, ts := newTestServer(t, &fakeRunner{})
	// An over-long body is refused unread past the cap — whatever it
	// would have decoded to (this one is a syntactically fine sweep
	// padded with whitespace).
	oversized := `{"legs": [{}]` + strings.Repeat(" ", maxSubmitBytes) + `}`
	for name, tc := range map[string]struct {
		body string
		want int
	}{
		"not json":        {"{{{", http.StatusBadRequest},
		"unknown field":   {`{"legz": []}`, http.StatusBadRequest},
		"no legs":         {`{"legs": []}`, http.StatusBadRequest},
		"bad workload":    {`{"legs": [{"workload": "quake"}]}`, http.StatusBadRequest},
		"bad alloc":       {`{"legs": [{"alloc": "yolo"}]}`, http.StatusBadRequest},
		"bad partition":   {`{"legs": [{"partition": "diag"}]}`, http.StatusBadRequest},
		"l2 on gsm":       {`{"legs": [{"workload": "gsm", "l2": true}]}`, http.StatusBadRequest},
		"dram on gsm":     {`{"legs": [{"workload": "gsm", "dram": true}]}`, http.StatusBadRequest},
		"negative frames": {`{"legs": [{"frames": -4}]}`, http.StatusBadRequest},
		"verify w/o warm": {`{"legs": [{}], "verify_cold": true}`, http.StatusBadRequest},
		"retired workers": {`{"legs": [{"workers": 4}]}`, http.StatusBadRequest},
		"oversized body":  {oversized, http.StatusRequestEntityTooLarge},
	} {
		t.Run(name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != tc.want {
				b, _ := io.ReadAll(resp.Body)
				t.Fatalf("status = %d, want %d (%s)", resp.StatusCode, tc.want, b)
			}
		})
	}
	if got := metricValue(t, ts, "mpsimd_jobs_rejected_total"); got != 12 {
		t.Errorf("rejected_total = %v, want 12", got)
	}
}

func TestUnknownJob404s(t *testing.T) {
	_, ts := newTestServer(t, &fakeRunner{})
	for _, path := range []string{
		"/v1/jobs/nope",
		"/v1/jobs/nope/artifacts/",
		"/v1/jobs/nope/artifacts/result.json",
	} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s = %d, want 404", path, resp.StatusCode)
		}
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/nope", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("DELETE unknown = %d, want 404", resp.StatusCode)
	}
}

// TestResultArtifactBeforeWrite covers the window between runJob
// settling a job and result.json landing in the store: a poller that
// sees "done" and fetches the artifact at once must get the file's
// exact bytes, not a 404.
func TestResultArtifactBeforeWrite(t *testing.T) {
	srv, ts := newTestServer(t, &fakeRunner{})
	id, _ := postJob(t, ts, SweepSpec{Legs: []experiments.LegSpec{{Name: "a"}}})
	pollJob(t, ts, id)
	var want []byte
	for deadline := time.Now().Add(10 * time.Second); want == nil; {
		want, _ = srv.store.GetArtifact(id, "result.json")
		if time.Now().After(deadline) {
			t.Fatal("result.json never written")
		}
		time.Sleep(time.Millisecond)
	}
	// Put the store back into the state it has just before runJob's write.
	if err := os.Remove(filepath.Join(srv.store.root, "jobs", id, "result.json")); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/artifacts/result.json")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	got, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK || !bytes.Equal(got, want) {
		t.Errorf("GET result.json before write = %d %q, want 200 %q", resp.StatusCode, got, want)
	}
}

func TestArtifactNameTraversalRejected(t *testing.T) {
	f := &fakeRunner{}
	_, ts := newTestServer(t, f)
	id, _ := postJob(t, ts, SweepSpec{Legs: []experiments.LegSpec{{Name: "a"}}})
	pollJob(t, ts, id)
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/artifacts/..%2F..%2Fsecrets")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Fatal("traversal artifact name served")
	}
}

func TestCancelMidSweep(t *testing.T) {
	f := &fakeRunner{block: true}
	_, ts := newTestServer(t, f)
	id, _ := postJob(t, ts, SweepSpec{Name: "long", Legs: []experiments.LegSpec{{Name: "slow"}}})

	// Wait until it is running, then cancel.
	deadline := time.Now().Add(10 * time.Second)
	for getJob(t, ts, id).State != StateRunning && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("DELETE = %d, want 202", resp.StatusCode)
	}
	v := pollJob(t, ts, id)
	if v.State != StateCanceled {
		t.Fatalf("state after cancel = %s, want canceled", v.State)
	}
	for _, leg := range v.Legs {
		if leg.State != StateCanceled {
			t.Errorf("leg %q state = %s, want canceled", leg.Name, leg.State)
		}
	}
	// Canceling a finished job is a harmless no-op.
	req, _ = http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if getJob(t, ts, id).State != StateCanceled {
		t.Error("second DELETE changed terminal state")
	}
}

func TestPanickingLegFailsJobNotServer(t *testing.T) {
	f := &fakeRunner{panicName: "crash"}
	_, ts := newTestServer(t, f)
	// Distinct seeds: cache keys ignore names, and a store hit on the
	// healthy leg's key would let the crash leg skip simulating.
	id, _ := postJob(t, ts, SweepSpec{Legs: []experiments.LegSpec{{Name: "crash", Seed: 7}, {Name: "fine"}}})
	v := pollJob(t, ts, id)
	if v.State != StateFailed {
		t.Fatalf("state = %s, want failed", v.State)
	}
	var crashed, fine *LegStatus
	for i := range v.Legs {
		switch v.Legs[i].Name {
		case "crash":
			crashed = &v.Legs[i]
		case "fine":
			fine = &v.Legs[i]
		}
	}
	if crashed == nil || crashed.State != StateFailed || !strings.Contains(crashed.Error, "synthetic leg crash") {
		t.Errorf("crashed leg: %+v", crashed)
	}
	if fine == nil || fine.State != StateDone {
		t.Errorf("healthy leg did not finish: %+v", fine)
	}

	// The server survived: healthz answers and a fresh job succeeds.
	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after panic: %v %v", resp, err)
	}
	resp.Body.Close()
	id2, _ := postJob(t, ts, SweepSpec{Legs: []experiments.LegSpec{{Name: "fine"}}})
	if v2 := pollJob(t, ts, id2); v2.State != StateDone {
		t.Errorf("post-panic job state = %s", v2.State)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	f := &fakeRunner{}
	_, ts := newTestServer(t, f)
	id, _ := postJob(t, ts, SweepSpec{Legs: []experiments.LegSpec{{Name: "a"}}})
	pollJob(t, ts, id)
	id2, _ := postJob(t, ts, SweepSpec{Legs: []experiments.LegSpec{{Name: "a"}}})
	pollJob(t, ts, id2)

	if got := metricValue(t, ts, "mpsimd_jobs_submitted_total"); got != 2 {
		t.Errorf("submitted = %v, want 2", got)
	}
	if got := metricValue(t, ts, `mpsimd_jobs{state="done"}`); got != 2 {
		t.Errorf("done gauge = %v, want 2", got)
	}
	if got := metricValue(t, ts, `mpsimd_legs_total{source="simulated"}`); got != 1 {
		t.Errorf("simulated legs = %v, want 1", got)
	}
	if got := metricValue(t, ts, `mpsimd_legs_total{source="store"}`); got != 1 {
		t.Errorf("store legs = %v, want 1", got)
	}
	if got := metricValue(t, ts, "mpsimd_sim_cycles_total"); got != 1000 {
		t.Errorf("sim cycles = %v, want 1000", got)
	}
}

// TestServerConcurrentSubmitsAndCancels is the service-level race
// exercise: many goroutines submitting, polling and canceling at once
// (run under -race by the CI race job).
func TestServerConcurrentSubmitsAndCancels(t *testing.T) {
	f := &fakeRunner{}
	_, ts := newTestServer(t, f)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			id, code := postJob(t, ts, SweepSpec{
				Name: fmt.Sprintf("concurrent-%d", i),
				Legs: []experiments.LegSpec{{Name: "a"}, {Name: "b", Seed: uint32(i + 1)}},
			})
			if code != http.StatusAccepted {
				t.Errorf("POST = %d", code)
				return
			}
			if i%4 == 0 {
				req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
				if resp, err := http.DefaultClient.Do(req); err == nil {
					resp.Body.Close()
				}
			}
			v := pollJob(t, ts, id)
			if v.State == StateFailed {
				t.Errorf("job %s failed: %s", id, v.Error)
			}
		}(i)
	}
	wg.Wait()
}

// TestEndToEndWarmBootBitIdentity runs the acceptance-criteria demo
// against the real simulator: a warm-booted leg resumes from a stored
// snapshot and must land bit-identical (cycles, instructions, stats) on
// its cold reference; resubmitting the sweep is served entirely from
// the result store with zero additional simulation.
func TestEndToEndWarmBootBitIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("real simulation")
	}
	_, ts := newTestServer(t, nil) // nil runner = real experiments.SimRunner

	spec := SweepSpec{
		Name: "e2e",
		Legs: []experiments.LegSpec{
			{Name: "ev", Workload: "gsm", ISSes: 2, Memories: 1, Frames: 2},
			{Name: "lockstep", Workload: "gsm", ISSes: 2, Memories: 1, Frames: 2, Lockstep: true},
		},
		WarmupCycles: 2000,
		VerifyCold:   true,
	}
	id, code := postJob(t, ts, spec)
	if code != http.StatusAccepted {
		t.Fatalf("POST = %d", code)
	}
	v := pollJob(t, ts, id)
	if v.State != StateDone {
		t.Fatalf("state = %s (%s)", v.State, v.Error)
	}
	for _, leg := range v.Legs {
		if leg.Source != SourceWarmBoot {
			t.Errorf("leg %q source = %s, want warm-boot", leg.Name, leg.Source)
		}
		if !leg.Verified {
			t.Errorf("leg %q not verified against its cold reference", leg.Name)
		}
		if leg.StartCycle != 2000 {
			t.Errorf("leg %q resumed at cycle %d, want 2000", leg.Name, leg.StartCycle)
		}
	}
	// Both scheduler variants are observably identical: same final
	// cycle count and stats (the warm-boot compatibility class at work —
	// they even shared one warm-up snapshot).
	if !v.Legs[0].LegResult.Identical(v.Legs[1].LegResult) {
		t.Errorf("scheduler variants diverged: %+v vs %+v", v.Legs[0].LegResult, v.Legs[1].LegResult)
	}
	simulatedBefore := metricValue(t, ts, `mpsimd_legs_total{source="simulated"}`)
	warmBefore := metricValue(t, ts, `mpsimd_legs_total{source="warm-boot"}`)

	// Resubmit: everything from the store, nothing simulated.
	id2, _ := postJob(t, ts, spec)
	v2 := pollJob(t, ts, id2)
	if v2.State != StateDone {
		t.Fatalf("resubmit state = %s (%s)", v2.State, v2.Error)
	}
	for _, leg := range v2.Legs {
		if leg.Source != SourceStore {
			t.Errorf("resubmitted leg %q source = %s, want store", leg.Name, leg.Source)
		}
		if !leg.Verified {
			t.Errorf("resubmitted leg %q lost verification", leg.Name)
		}
	}
	if after := metricValue(t, ts, `mpsimd_legs_total{source="simulated"}`); after != simulatedBefore {
		t.Errorf("resubmit simulated %v extra legs", after-simulatedBefore)
	}
	if after := metricValue(t, ts, `mpsimd_legs_total{source="warm-boot"}`); after != warmBefore {
		t.Errorf("resubmit warm-booted %v extra legs", after-warmBefore)
	}
}

// TestVCDLegProducesArtifact asks the real simulator for a waveform and
// fetches it through the artifact endpoint.
func TestVCDLegProducesArtifact(t *testing.T) {
	if testing.Short() {
		t.Skip("real simulation")
	}
	_, ts := newTestServer(t, nil)
	id, _ := postJob(t, ts, SweepSpec{
		Legs: []experiments.LegSpec{{Name: "wave", Workload: "gsm", ISSes: 1, Memories: 1, Frames: 1, VCD: true}},
	})
	v := pollJob(t, ts, id)
	if v.State != StateDone {
		t.Fatalf("state = %s (%s)", v.State, v.Error)
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/artifacts/leg0.vcd")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK || !bytes.Contains(body, []byte("$timescale")) {
		t.Fatalf("VCD artifact: status %d, body %.80q", resp.StatusCode, body)
	}
}
