package main

import (
	"bufio"
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
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/experiments"
	"repro/internal/service"
)

// Service workload sizes: legs are kept to a few milliseconds so that
// HTTP decode, the pool, the store and snapshot restore are a visible
// share of a job.
const (
	svcClients     = 2
	svcWorkers     = 2
	svcPoll        = 100 * time.Microsecond
	svcGSMFrames   = 2
	svcSweepFrames = 6
	svcSweepSeeds  = 160 // the sweep kernel's values (index + seed) must fit a byte
	svcHitSet      = 32  // distinct jobs populated, then resubmitted round-robin
	svcWarmFrames  = 4
	svcWarmCycles  = 13000 // about half of a svcWarmFrames cold run
	svcVerifyJobs  = 5     // warm jobs run with verify_cold in set-up
	svcWarmupJobs  = 3

	// Jobs per epoch, sized so that an epoch takes about a quarter of a
	// second on each workload.
	svcColdEpoch = 24
	svcHitEpoch  = 192
	svcWarmEpoch = 64
)

// svcWorkload is one phase of the sweep service under closed-loop load:
// svcClients clients each POST a job, poll it to done every svcPoll, and
// only then submit the next.
//
// The timed unit is an epoch, the service's counterpart of a simulation
// rep: a fresh server over the workload's store runs epochJobs jobs and is
// closed. The server keeps every job it ever ran, so on one long-lived
// server the cost of a job rises with the number already done (by a
// quarter over 5000 hit jobs) and a time-bound loop would measure a
// different mix on a faster machine; an epoch is the same work every time.
type svcWorkload struct {
	name, why string
	size      map[string]int
	epochJobs int
	// setupScale multiplies the set-up rounds: a service set-up is short
	// and all wall-clock, so setup_s is the median of more of them.
	setupScale int
	// job returns the k-th job of the run; source is where every leg's
	// result must come from.
	job    func(seed int64, k int) service.SweepSpec
	source string
}

func gsmLeg(seed int64, n int, frames int) experiments.LegSpec {
	return experiments.LegSpec{Workload: "gsm", ISSes: 1, Memories: 1, Frames: frames,
		Seed: uint32(seed)*1_000_003 + uint32(n) + 1}
}

// sweepLeg cycles through the kernel's small seed range. To keep a leg
// from repeating within a run at unchanged cost, ucp_period serves as a
// nonce: it is ignored without an L2 but is part of the config hash, and
// so of the leg's result-store key.
func sweepLeg(seed int64, n int) experiments.LegSpec {
	q := int(seed%97)*41 + n
	return experiments.LegSpec{Workload: "sweep", ISSes: 2, Memories: 1, Cache: true,
		Frames: svcSweepFrames, Seed: uint32(1 + q%svcSweepSeeds), UCPPeriod: uint64(1 + q/svcSweepSeeds)}
}

// coldJob is four small legs on fresh seeds: every one must simulate.
func coldJob(seed int64, k int) service.SweepSpec {
	return service.SweepSpec{Name: "cold", Legs: []experiments.LegSpec{
		gsmLeg(seed, 2*k, svcGSMFrames), gsmLeg(seed, 2*k+1, svcGSMFrames),
		sweepLeg(seed, 2*k), sweepLeg(seed, 2*k+1),
	}}
}

// warmJob is two legs of one warm-boot compatibility class — the same
// fresh workload under the event-driven and the lockstep scheduler — so
// one warm-up is simulated, snapshotted, persisted, and restored twice.
func warmJob(seed int64, k int) service.SweepSpec {
	ev := gsmLeg(seed, k, svcWarmFrames)
	ls := ev
	ls.Lockstep = true
	return service.SweepSpec{Name: "warm", Legs: []experiments.LegSpec{ev, ls}, WarmupCycles: svcWarmCycles}
}

var svcWorkloads = []svcWorkload{
	{
		name:      "service_cold",
		why:       "sweep service, every leg on a fresh seed: HTTP decode, pool, simulate, store write; the only workloads where the job path matters at all",
		size:      map[string]int{"clients": svcClients, "workers": svcWorkers, "legs_per_job": 4, "gsm_frames": svcGSMFrames, "sweep_frames": svcSweepFrames, "epoch_jobs": svcColdEpoch},
		epochJobs: svcColdEpoch, setupScale: 3,
		job:    coldJob,
		source: service.SourceSimulated,
	},
	{
		name:      "service_hit",
		why:       "the identical jobs resubmitted: nothing simulates, so job latency is all HTTP, pool and result-store lookup",
		size:      map[string]int{"clients": svcClients, "workers": svcWorkers, "legs_per_job": 4, "distinct_jobs": svcHitSet, "epoch_jobs": svcHitEpoch},
		epochJobs: svcHitEpoch, setupScale: 2,
		job:    func(seed int64, k int) service.SweepSpec { return coldJob(seed, k%svcHitSet) },
		source: service.SourceStore,
	},
	{
		name:      "service_warm",
		why:       "warm-boot jobs: one warm-up per job simulated, snapshotted, persisted and restored twice, so snapshot encode/restore and the snapshot store carry the job",
		size:      map[string]int{"clients": svcClients, "workers": svcWorkers, "legs_per_job": 2, "gsm_frames": svcWarmFrames, "warmup_cycles": svcWarmCycles, "epoch_jobs": svcWarmEpoch},
		epochJobs: svcWarmEpoch, setupScale: 3,
		job:    warmJob,
		source: service.SourceWarmBoot,
	},
}

// harness is an in-process sweep server behind an HTTP test server.
type harness struct {
	srv *service.Server
	ts  *httptest.Server
	cl  *http.Client
}

func startHarness(store *service.Store) (*harness, error) {
	srv, err := service.New(service.Config{
		Store: store, Workers: svcWorkers,
		Logger: slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		return nil, err
	}
	ts := httptest.NewServer(srv.Handler())
	return &harness{srv: srv, ts: ts, cl: ts.Client()}, nil
}

// close stops the server and waits for its goroutines.
func (h *harness) close() {
	h.ts.Close()
	h.srv.Close()
}

// jobRun is one job as its client saw it.
type jobRun struct {
	total, post time.Duration
	polls       int
	view        service.JobView

	// Filled by summarize, which drops the view.
	legs     int
	cycles   uint64        // simulated time the job's results cover
	overhead time.Duration // latency beyond the slowest simulated leg
}

// summarize reduces a checked job to its numbers. Thousands of retained
// views would make the benchmark's own heap the largest in the process.
func (j *jobRun) summarize() {
	var slowest int64
	for _, leg := range j.view.Legs {
		j.cycles += leg.Cycles
		if leg.Source != service.SourceStore && leg.WallNS > slowest {
			slowest = leg.WallNS
		}
	}
	j.legs = len(j.view.Legs)
	j.overhead = j.total - time.Duration(slowest)
	j.view = service.JobView{}
}

// run submits spec and polls it to a terminal state.
func (h *harness) run(spec service.SweepSpec, tr *tracer, rep, lane int) (j jobRun, err error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return j, err
	}
	root := tr.start("job", nil, rep, lane)
	sp := tr.start("http.POST", root, rep, lane)
	resp, err := h.cl.Post(h.ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return j, err
	}
	var accepted map[string]string
	err = json.NewDecoder(resp.Body).Decode(&accepted)
	resp.Body.Close()
	j.post = sp.end()
	if err != nil || resp.StatusCode != http.StatusAccepted {
		return j, fmt.Errorf("POST /v1/jobs = %d (%v): %v", resp.StatusCode, err, accepted)
	}
	sp = tr.start("poll-to-done", root, rep, lane)
	defer func() {
		sp.end()
		j.total = root.end()
	}()
	for {
		resp, err := h.cl.Get(h.ts.URL + "/v1/jobs/" + accepted["id"])
		if err != nil {
			return j, err
		}
		var view service.JobView // fresh each poll: decoding merges into maps
		err = json.NewDecoder(resp.Body).Decode(&view)
		resp.Body.Close()
		if err != nil {
			return j, err
		}
		j.view = view
		j.polls++
		switch j.view.State {
		case service.StateDone:
			return j, nil
		case service.StateFailed, service.StateCanceled:
			err := fmt.Errorf("job %s: %s (%s)", j.view.ID, j.view.State, j.view.Error)
			for i, leg := range j.view.Legs {
				if leg.Error != "" {
					err = fmt.Errorf("%w; leg %d: %s", err, i, leg.Error)
				}
			}
			return j, err
		}
		time.Sleep(svcPoll)
	}
}

// legsSimulated reads the server's count of simulated legs from /metrics.
func (h *harness) legsSimulated() (uint64, error) {
	resp, err := h.cl.Get(h.ts.URL + "/metrics")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	const prefix = `mpsimd_legs_total{source="simulated"} `
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), prefix); ok {
			return strconv.ParseUint(v, 10, 64)
		}
	}
	return 0, fmt.Errorf("/metrics has no %q line", prefix)
}

// checkSources requires every leg to be done with its result from want.
func checkSources(v service.JobView, want string) error {
	for i, leg := range v.Legs {
		if leg.State != service.StateDone || leg.Source != want {
			return fmt.Errorf("job %s leg %d: state %s from %q, want done from %q", v.ID, i, leg.State, leg.Source, want)
		}
	}
	return nil
}

// sameResults requires two views of one job spec to agree leg by leg.
func sameResults(a, b service.JobView) error {
	if len(a.Legs) != len(b.Legs) {
		return fmt.Errorf("job %s has %d legs, reference %d", a.ID, len(a.Legs), len(b.Legs))
	}
	for i := range a.Legs {
		if !a.Legs[i].LegResult.Identical(b.Legs[i].LegResult) {
			return fmt.Errorf("job %s leg %d differs from its reference run", a.ID, i)
		}
	}
	return nil
}

// svcState is what a service workload's set-up hands to its epochs.
type svcState struct {
	dir   string
	store *service.Store
	// refs are the first runs of the hit workload's distinct jobs; every
	// resubmission must return their results.
	refs []service.JobView
	// next is the index of the first job the next epoch may use.
	next int
}

func (st *svcState) close() { os.RemoveAll(st.dir) }

// svcSetup opens a store in its own directory and, through a server of
// its own, brings it to the state the workload measures: a populated
// store for hit, and for cold and warm the first jobs verified against
// the runner and against their cold references.
func svcSetup(w svcWorkload, o options, round int, tr *tracer) (_ *svcState, err error) {
	st := &svcState{dir: filepath.Join(o.workDir, fmt.Sprintf("%s-%d", w.name, round))}
	if err := os.MkdirAll(st.dir, 0o755); err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			st.close()
		}
	}()
	if st.store, err = service.OpenStore(st.dir); err != nil {
		return nil, err
	}
	h, err := startHarness(st.store)
	if err != nil {
		return nil, err
	}
	defer h.close()
	switch w.source {
	case service.SourceSimulated:
		for k := 0; k < svcWarmupJobs; k++ {
			spec := w.job(o.seed, k)
			j, err := h.run(spec, tr, -1, 0)
			if err == nil {
				err = checkSources(j.view, w.source)
			}
			if err != nil {
				return nil, err
			}
			// The service must return exactly what the runner returns.
			for i, leg := range spec.Legs {
				direct, err := experiments.SimRunner{}.RunLeg(context.Background(), leg, nil)
				if err != nil {
					return nil, err
				}
				if !direct.Identical(j.view.Legs[i].LegResult) {
					return nil, fmt.Errorf("job %d leg %d: service result differs from SimRunner.RunLeg", k, i)
				}
			}
		}
		st.next = svcWarmupJobs
	case service.SourceStore:
		for k := 0; k < svcHitSet; k++ {
			j, err := h.run(w.job(o.seed, k), tr, -1, 0)
			if err == nil {
				err = checkSources(j.view, service.SourceSimulated)
			}
			if err != nil {
				return nil, fmt.Errorf("populate: %w", err)
			}
			st.refs = append(st.refs, j.view)
		}
	case service.SourceWarmBoot:
		for k := 0; k < svcVerifyJobs; k++ {
			spec := w.job(o.seed, k)
			spec.VerifyCold = true
			j, err := h.run(spec, tr, -1, 0)
			if err == nil {
				err = checkSources(j.view, w.source)
			}
			if err != nil {
				return nil, err
			}
			for i, leg := range j.view.Legs {
				if !leg.Verified {
					return nil, fmt.Errorf("warm job %d leg %d not verified against its cold run", k, i)
				}
			}
		}
		st.next = svcVerifyJobs
	}
	return st, nil
}

// check is the per-job correctness gate of an epoch.
func (st *svcState) check(w svcWorkload, k int, j jobRun) error {
	if err := checkSources(j.view, w.source); err != nil {
		return err
	}
	switch w.source {
	case service.SourceStore:
		return sameResults(j.view, st.refs[k%svcHitSet])
	case service.SourceWarmBoot:
		// The two legs differ in scheduler only: same result, bit for bit.
		if !j.view.Legs[0].LegResult.Identical(j.view.Legs[1].LegResult) {
			return fmt.Errorf("job %s: lockstep leg differs from event-driven leg", j.view.ID)
		}
	}
	return nil
}

// epochResult is one epoch: the jobs that passed their check, and the
// process's user-mode CPU time and the wall time from the first POST to
// the last job done.
type epochResult struct {
	jobs      []jobRun
	failed    int
	err       error // first failed check
	cpu, wall time.Duration
	simulated uint64 // the server's simulated-leg count at the end
}

func (e epochResult) cycles() float64 {
	var n float64
	for _, j := range e.jobs {
		n += float64(j.cycles)
	}
	return n
}

// epoch starts a fresh server over the state's store and drives
// svcClients closed-loop clients through w.epochJobs jobs. A job that
// fails its check counts in failed.
func (st *svcState) epoch(w svcWorkload, o options, tr *tracer) (e epochResult, err error) {
	h, err := startHarness(st.store)
	if err != nil {
		return e, err
	}
	defer h.close()
	var (
		mu   sync.Mutex
		wg   sync.WaitGroup
		next atomic.Int64
	)
	first := st.next
	st.next += w.epochJobs
	next.Store(int64(first))
	start, cpu0 := time.Now(), userCPU()
	for c := 0; c < svcClients; c++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			for {
				k := int(next.Add(1)) - 1
				if k >= first+w.epochJobs {
					return
				}
				j, err := h.run(w.job(o.seed, k), tr, k, lane)
				if err == nil {
					err = st.check(w, k, j)
				}
				mu.Lock()
				if err != nil {
					e.failed++
					if e.err == nil {
						e.err = err
					}
				} else {
					j.summarize()
					e.jobs = append(e.jobs, j)
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	e.wall, e.cpu = time.Since(start), userCPU()-cpu0
	if e.simulated, err = h.legsSimulated(); err != nil {
		return e, err
	}
	// The hit workload's final gate: nothing was simulated.
	if w.source == service.SourceStore && e.simulated != 0 {
		e.failed++
		if e.err == nil {
			e.err = fmt.Errorf("hit epoch simulated %d legs", e.simulated)
		}
	}
	return e, nil
}

// epochLoop runs epochs until the budget is spent (and at least
// minEpochs). Only an epoch whose every job passed contributes timing.
func (st *svcState) epochLoop(w svcWorkload, o options, tr *tracer, budget time.Duration, minEpochs int, res *result) ([]epochResult, error) {
	var clean []epochResult
	deadline := time.Now().Add(budget)
	for i := 0; i < minEpochs || time.Now().Before(deadline); i++ {
		e, err := st.epoch(w, o, tr)
		if err != nil {
			return nil, err
		}
		res.attempted += len(e.jobs) + e.failed
		res.failed += e.failed
		if res.err == nil {
			res.err = e.err
		}
		if e.failed == 0 {
			clean = append(clean, e)
		}
	}
	return clean, nil
}

func epochColumn(es []epochResult, f func(epochResult) float64) []float64 {
	v := make([]float64, len(es))
	for i, e := range es {
		v[i] = f(e)
	}
	return v
}

// allJobs is the jobs of every epoch, in order.
func allJobs(es []epochResult) []jobRun {
	var jobs []jobRun
	for _, e := range es {
		jobs = append(jobs, e.jobs...)
	}
	return jobs
}

func jobColumn(jobs []jobRun, f func(jobRun) float64) []float64 {
	v := make([]float64, len(jobs))
	for i, j := range jobs {
		v[i] = f(j)
	}
	return v
}

func jobMS(j jobRun) float64 { return ms(j.total) }

// runSvc measures one service workload; see runSim for the two passes.
func runSvc(w svcWorkload, o options, tr *tracer) (*result, error) {
	res := newResult(w.name, w.size)
	var (
		st     *svcState
		setups []float64
	)
	for i := 0; i < o.setupRounds*w.setupScale; i++ {
		if st != nil {
			st.close()
		}
		start := time.Now()
		var err error
		if st, err = svcSetup(w, o, i, tr); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer st.close()

	budget := o.budget()
	if o.traced {
		budget = budget * 4 / 10
	}
	runtime.GC()
	m0 := mallocs()
	epochs, err := st.epochLoop(w, o, newTracer(false), budget, o.minReps, res)
	m1 := mallocs()
	if err != nil || len(epochs) == 0 {
		return res, err
	}
	var cycles, wall float64
	for _, e := range epochs {
		cycles += e.cycles()
		wall += e.wall.Seconds()
	}

	if !o.traced {
		n := len(epochs)
		res.e2e("setup_s", median(setups), "s", len(setups))
		// Host time on the service workloads is the process's user-mode
		// CPU time: two clients keep both cores busy, so it tracks job
		// latency, while wall-clock latency (reported per layer) also
		// carries kernel file-system time that drifts from run to run.
		res.e2e("sim_cycles_per_s", median(epochColumn(epochs, func(e epochResult) float64 { return ratio(e.cycles(), e.cpu.Seconds()) })), "1/s", n)
		res.e2e("rep_host_ms", median(epochColumn(epochs, func(e epochResult) float64 { return ratio(ms(e.cpu), float64(len(e.jobs))) })), "ms", n)
		res.e2e("host_allocs_per_kcycle", ratio(float64(m1-m0), cycles/1000), "1/kcycle", n)
		res.e2e("host_mem_mb", peakRSSMB(), "MB", 1)
		return res, nil
	}

	tracedEpochs, err := st.epochLoop(w, o, tr, o.budget()-budget, o.minReps, res)
	if err != nil || len(tracedEpochs) == 0 {
		return res, err
	}
	jobs, traced := allJobs(epochs), allJobs(tracedEpochs)
	n := len(traced)
	var twall float64
	for _, e := range tracedEpochs {
		twall += e.wall.Seconds()
	}
	res.layer("rep_wall_ms_p50", median(jobColumn(jobs, jobMS)), "ms", len(jobs))
	res.layer("rep_wall_ms_p90", percentile(jobColumn(jobs, jobMS), 90), "ms", len(jobs))
	res.layer("service.cycles_per_wall_s", ratio(cycles, wall), "1/s", len(jobs))
	res.layer("trace.overhead_ratio", ratio(median(jobColumn(traced, jobMS)), median(jobColumn(jobs, jobMS))), "ratio", n)
	res.layer("sim_cycles", median(jobColumn(traced, func(j jobRun) float64 { return float64(j.cycles) })), "count", n)
	res.layer("service.post_ms_p50", median(jobColumn(traced, func(j jobRun) float64 { return ms(j.post) })), "ms", n)
	res.layer("service.overhead_ms_p50", median(jobColumn(traced, func(j jobRun) float64 { return ms(j.overhead) })), "ms", n)
	res.layer("service.polls_per_job", median(jobColumn(traced, func(j jobRun) float64 { return float64(j.polls) })), "count", n)
	res.layer("service.legs_per_s", ratio(float64(n*traced[0].legs), twall), "1/s", n)
	res.layer("service.legs_simulated", float64(tracedEpochs[len(tracedEpochs)-1].simulated), "count", 1)
	res.layer("store.hits", float64(st.store.Hits()), "count", 1)
	res.layer("store.misses", float64(st.store.Misses()), "count", 1)
	return res, svcProbes(res, o, tr)
}
