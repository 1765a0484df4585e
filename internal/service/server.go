package service

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/experiments"
)

// Config parameterizes a Server. The zero value of every field has a
// sensible default.
type Config struct {
	// Runner executes legs; nil uses the in-process simulator
	// (experiments.SimRunner). Tests substitute fakes.
	Runner experiments.Runner
	// Store persists results, snapshots and artifacts. Required.
	Store *Store
	// Workers bounds concurrent simulations (default 4); Queue bounds
	// the backlog of submitted-but-unstarted simulations (default 64).
	Workers, Queue int
	// JobTimeout bounds any job that doesn't set its own timeout_sec
	// (default 10 minutes).
	JobTimeout time.Duration
	// Logger receives structured per-job logs; nil uses slog.Default().
	Logger *slog.Logger
}

// Server is the simulation service: the HTTP API, the job table, the
// worker pool and the result store, wired together.
type Server struct {
	mux    *http.ServeMux
	runner experiments.Runner
	store  *Store
	pool   *Pool
	m      *metrics
	log    *slog.Logger

	jobTimeout time.Duration

	// baseCtx parents every job context so Close cancels all work.
	baseCtx    context.Context
	baseCancel context.CancelFunc

	mu   sync.Mutex
	jobs map[string]*Job
	wg   sync.WaitGroup // live runJob goroutines
}

// New builds a Server from cfg.
func New(cfg Config) (*Server, error) {
	if cfg.Store == nil {
		return nil, fmt.Errorf("service: Config.Store is required")
	}
	if cfg.Runner == nil {
		cfg.Runner = experiments.SimRunner{}
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	if cfg.Queue <= 0 {
		cfg.Queue = 64
	}
	if cfg.JobTimeout <= 0 {
		cfg.JobTimeout = 10 * time.Minute
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.Default()
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		mux:        http.NewServeMux(),
		runner:     cfg.Runner,
		store:      cfg.Store,
		pool:       NewPool(cfg.Workers, cfg.Queue),
		m:          &metrics{start: time.Now()},
		log:        cfg.Logger,
		jobTimeout: cfg.JobTimeout,
		baseCtx:    ctx,
		baseCancel: cancel,
		jobs:       make(map[string]*Job),
	}
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs", s.handleList)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleGet)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	s.mux.HandleFunc("GET /v1/jobs/{id}/artifacts/", s.handleArtifacts)
	s.mux.HandleFunc("GET /v1/jobs/{id}/artifacts/{name}", s.handleArtifact)
	s.mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s, nil
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Close cancels every in-flight job, waits for their goroutines, and
// stops the pool. The handler keeps answering reads afterwards.
func (s *Server) Close() {
	s.baseCancel()
	s.wg.Wait()
	s.pool.Close()
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeErr(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

func newJobID() string {
	var b [6]byte
	rand.Read(b[:]) // never fails per crypto/rand contract
	return "j" + hex.EncodeToString(b[:])
}

// maxSubmitBytes bounds a POST /v1/jobs body. A maximal legal sweep
// (maxLegs legs with every key set) is under 32 KiB, so 1 MiB refuses
// nothing valid while keeping a hostile body from being decoded into
// memory before maxLegs is ever checked.
const maxSubmitBytes = 1 << 20

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec SweepSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSubmitBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		s.m.jobsRejected.Add(1)
		code := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			code = http.StatusRequestEntityTooLarge
		}
		writeErr(w, code, "malformed sweep: %v", err)
		return
	}
	if err := spec.Validate(); err != nil {
		s.m.jobsRejected.Add(1)
		writeErr(w, http.StatusBadRequest, "invalid sweep: %v", err)
		return
	}

	job := &Job{
		ID:      newJobID(),
		Spec:    spec,
		state:   StateQueued,
		legs:    make([]LegStatus, len(spec.Legs)),
		created: time.Now(),
	}
	for i, leg := range spec.Legs {
		job.legs[i] = LegStatus{State: StateQueued}
		job.legs[i].Name = leg.Normalized().Name
	}
	job.log = s.log.With("job", job.ID, "name", spec.Name)

	s.mu.Lock()
	s.jobs[job.ID] = job
	s.mu.Unlock()
	s.m.jobsSubmitted.Add(1)
	job.log.Info("job accepted", "legs", len(spec.Legs),
		"warmup_cycles", spec.WarmupCycles, "verify_cold", spec.VerifyCold)

	s.wg.Add(1)
	go s.runJob(job)

	writeJSON(w, http.StatusAccepted, map[string]string{
		"id":  job.ID,
		"url": "/v1/jobs/" + job.ID,
	})
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	views := make([]JobView, 0, len(s.jobs))
	for _, j := range s.jobs {
		views = append(views, j.View())
	}
	s.mu.Unlock()
	sort.Slice(views, func(i, k int) bool { return views[i].Created.Before(views[k].Created) })
	writeJSON(w, http.StatusOK, map[string]any{"jobs": views})
}

func (s *Server) job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(r.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, "no such job %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, j.View())
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(r.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, "no such job %q", r.PathValue("id"))
		return
	}
	j.mu.Lock()
	cancel := j.cancel
	j.mu.Unlock()
	if cancel != nil {
		cancel(errCanceled)
	}
	// Cancellation is asynchronous: in-flight legs stop at their next
	// chunk boundary, then the job settles into a terminal state.
	writeJSON(w, http.StatusAccepted, map[string]string{"id": j.ID, "state": j.State()})
}

// artifactNameOK rejects names that could escape the job's directory.
func artifactNameOK(name string) bool {
	return name != "" && name != "." && name != ".." &&
		!strings.ContainsAny(name, "/\\")
}

func (s *Server) handleArtifacts(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(r.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, "no such job %q", r.PathValue("id"))
		return
	}
	names := s.store.ListArtifacts(j.ID)
	sort.Strings(names)
	writeJSON(w, http.StatusOK, map[string]any{"artifacts": names})
}

func (s *Server) handleArtifact(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(r.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, "no such job %q", r.PathValue("id"))
		return
	}
	name := r.PathValue("name")
	if !artifactNameOK(name) {
		writeErr(w, http.StatusBadRequest, "bad artifact name %q", name)
		return
	}
	data, err := s.store.GetArtifact(j.ID, name)
	if err != nil {
		writeErr(w, http.StatusNotFound, "no artifact %q for job %s", name, j.ID)
		return
	}
	ct := "application/octet-stream"
	switch {
	case strings.HasSuffix(name, ".json"):
		ct = "application/json"
	case strings.HasSuffix(name, ".vcd"):
		ct = "text/plain; charset=utf-8"
	}
	w.Header().Set("Content-Type", ct)
	w.Write(data)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var st jobStateCounts
	s.mu.Lock()
	for _, j := range s.jobs {
		switch j.State() {
		case StateQueued:
			st.queued++
		case StateRunning:
			st.running++
		case StateDone:
			st.done++
		case StateFailed:
			st.failed++
		case StateCanceled:
			st.canceled++
		}
	}
	s.mu.Unlock()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.m.render(w, st, s.pool.QueueDepth(), s.store.Hits(), s.store.Misses())
}

// warmClass memoizes one warm-boot compatibility class's snapshot
// within a job: the first leg to need it simulates (or loads) the
// warm-up prefix, every other leg in the class reuses it.
type warmClass struct {
	once sync.Once
	data []byte
	err  error
}

// runJob drives one job to a terminal state. It runs on its own
// goroutine — never on a pool worker, so fanning legs out to the pool
// and waiting on them cannot deadlock the pool against itself.
func (s *Server) runJob(job *Job) {
	defer s.wg.Done()

	timeout := s.jobTimeout
	if job.Spec.TimeoutSec > 0 {
		timeout = time.Duration(job.Spec.TimeoutSec) * time.Second
	}
	ctx, cancelCause := context.WithCancelCause(s.baseCtx)
	ctx, cancelTimeout := context.WithTimeout(ctx, timeout)
	defer cancelTimeout()
	job.mu.Lock()
	job.cancel = cancelCause
	job.state = StateRunning
	job.started = time.Now()
	job.mu.Unlock()

	warm := make(map[string]*warmClass)
	var warmMu sync.Mutex

	var legWG sync.WaitGroup
	for i := range job.Spec.Legs {
		legWG.Add(1)
		go func(i int) {
			defer legWG.Done()
			s.runLeg(ctx, job, i, warm, &warmMu)
		}(i)
	}
	legWG.Wait()

	// Settle the terminal state from the legs' outcomes.
	state, errMsg := StateDone, ""
	var failed int
	for i := range job.Spec.Legs {
		ls := job.legSnapshot(i)
		if ls.State == StateFailed {
			failed++
		}
	}
	switch {
	case context.Cause(ctx) == errCanceled:
		state = StateCanceled
	case failed > 0:
		state = StateFailed
		errMsg = fmt.Sprintf("%d of %d legs failed", failed, len(job.Spec.Legs))
		if ctx.Err() == context.DeadlineExceeded {
			errMsg += " (job timeout)"
		}
	}
	job.finish(state, errMsg)

	// result.json is the job's durable artifact: the final view,
	// fetchable after the fact from the artifact endpoint.
	if view, err := json.MarshalIndent(job.View(), "", "  "); err == nil {
		if err := s.store.PutArtifact(job.ID, "result.json", view); err != nil {
			job.log.Warn("writing result artifact failed", "err", err)
		}
	}
	job.log.Info("job finished", "state", state, "error", errMsg,
		"wall", time.Since(job.View().Created).Round(time.Millisecond).String())
}

// warmSnapshot returns the job's warm-boot snapshot for leg (loading it
// from the snapshot store or simulating the warm-up prefix on the pool).
func (s *Server) runWarmup(ctx context.Context, job *Job, leg experiments.LegSpec, warm map[string]*warmClass, warmMu *sync.Mutex) ([]byte, error) {
	stateKey, err := leg.StateKey(job.Spec.WarmupCycles)
	if err != nil {
		return nil, err
	}
	warmMu.Lock()
	wc, ok := warm[stateKey]
	if !ok {
		wc = &warmClass{}
		warm[stateKey] = wc
	}
	warmMu.Unlock()
	wc.once.Do(func() {
		if data, ok := s.store.GetSnapshot(stateKey); ok {
			job.log.Info("warm-up snapshot from store", "state_key", stateKey)
			wc.data = data
			return
		}
		wc.err = <-s.pool.Go(ctx, func(ctx context.Context) error {
			data, err := s.runner.Warmup(ctx, leg, job.Spec.WarmupCycles)
			if err != nil {
				return err
			}
			wc.data = data
			return nil
		})
		if wc.err == nil {
			s.m.warmupsRun.Add(1)
			if err := s.store.PutSnapshot(stateKey, wc.data); err != nil {
				job.log.Warn("storing warm-up snapshot failed", "err", err)
			}
			job.log.Info("warm-up simulated", "state_key", stateKey,
				"cycles", job.Spec.WarmupCycles, "bytes", len(wc.data))
		}
	})
	return wc.data, wc.err
}

// simulate runs one leg on the pool and returns its result.
func (s *Server) simulate(ctx context.Context, leg experiments.LegSpec, warmData []byte) (experiments.LegResult, error) {
	var res experiments.LegResult
	err := <-s.pool.Go(ctx, func(ctx context.Context) error {
		r, err := s.runner.RunLeg(ctx, leg, warmData)
		if err != nil {
			return err
		}
		res = r
		return nil
	})
	return res, err
}

// runLeg drives one leg: warm-up snapshot, store lookup, simulation,
// optional cold verification. It publishes progress into job.legs[i].
func (s *Server) runLeg(ctx context.Context, job *Job, i int, warm map[string]*warmClass, warmMu *sync.Mutex) {
	leg := job.Spec.Legs[i].Normalized()
	ls := LegStatus{State: StateRunning}
	ls.Name = leg.Name
	job.setLeg(i, ls)

	fail := func(err error) {
		if ctx.Err() != nil && context.Cause(ctx) == errCanceled {
			ls.State = StateCanceled
			ls.Error = "canceled"
		} else {
			ls.State = StateFailed
			ls.Error = err.Error()
			s.m.legsFailed.Add(1)
		}
		job.setLeg(i, ls)
		job.log.Warn("leg failed", "leg", i, "name", leg.Name, "err", ls.Error)
	}

	// Warm-boot snapshot for this leg's compatibility class.
	var warmData []byte
	if job.Spec.WarmupCycles > 0 {
		var err error
		warmData, err = s.runWarmup(ctx, job, leg, warm, warmMu)
		if err != nil {
			fail(err)
			return
		}
	}
	snapHash := ""
	if warmData != nil {
		snapHash = experiments.SnapshotHash(warmData)
	}

	key, err := leg.Key(snapHash)
	if err != nil {
		fail(err)
		return
	}

	// Result store first — except for VCD legs, whose waveform artifact
	// only exists when the simulation actually runs.
	if !leg.VCD {
		if res, ok := s.store.GetResult(key); ok {
			ls.LegResult = res
			ls.LegResult.Name = leg.Name
			ls.State = StateDone
			ls.Source = SourceStore
			s.m.legsFromStore.Add(1)
			if job.Spec.VerifyCold {
				ok, err := s.verifyCold(ctx, job, leg, res)
				if err != nil {
					fail(err)
					return
				}
				ls.Verified = ok
			}
			job.setLeg(i, ls)
			job.log.Info("leg served from store", "leg", i, "name", leg.Name, "key", key)
			return
		}
	}

	res, err := s.simulate(ctx, leg, warmData)
	if err != nil {
		fail(err)
		return
	}
	s.m.legsSimulated.Add(1)
	if warmData != nil {
		s.m.legsWarmBoot.Add(1)
	}
	s.m.simCycles.Add(res.SimCycles())
	s.m.legWallNS.Add(uint64(res.WallNS))
	if err := s.store.PutResult(key, res); err != nil {
		job.log.Warn("storing leg result failed", "err", err)
	}
	if len(res.VCD) > 0 {
		name := fmt.Sprintf("leg%d.vcd", i)
		if err := s.store.PutArtifact(job.ID, name, res.VCD); err != nil {
			job.log.Warn("storing leg VCD failed", "err", err)
		}
	}

	ls.LegResult = res
	ls.LegResult.Name = leg.Name
	ls.State = StateDone
	ls.Source = SourceSimulated
	if warmData != nil {
		ls.Source = SourceWarmBoot
	}
	if job.Spec.VerifyCold {
		ok, err := s.verifyCold(ctx, job, leg, res)
		if err != nil {
			fail(err)
			return
		}
		ls.Verified = ok
	}
	job.setLeg(i, ls)
	job.log.Info("leg simulated", "leg", i, "name", leg.Name, "source", ls.Source,
		"cycles", res.Cycles, "sim_cycles", res.SimCycles(), "key", key)
}

// verifyCold checks the warm-booted result against a cold run of the
// same leg (from the store when available): bit-identical cycles,
// instructions and stats, or an error that fails the leg. This is the
// service re-proving the determinism contract on every verified leg.
func (s *Server) verifyCold(ctx context.Context, job *Job, leg experiments.LegSpec, warmRes experiments.LegResult) (bool, error) {
	coldKey, err := leg.Key("")
	if err != nil {
		return false, err
	}
	coldRes, ok := s.store.GetResult(coldKey)
	if !ok {
		coldRes, err = s.simulate(ctx, leg, nil)
		if err != nil {
			return false, fmt.Errorf("cold reference: %w", err)
		}
		s.m.legsSimulated.Add(1)
		s.m.simCycles.Add(coldRes.SimCycles())
		s.m.legWallNS.Add(uint64(coldRes.WallNS))
		if err := s.store.PutResult(coldKey, coldRes); err != nil {
			job.log.Warn("storing cold reference failed", "err", err)
		}
	}
	if !warmRes.Identical(coldRes) {
		return false, fmt.Errorf("warm-boot diverged from cold reference: warm %d cycles / %d instrs, cold %d cycles / %d instrs",
			warmRes.Cycles, warmRes.Instructions, coldRes.Cycles, coldRes.Instructions)
	}
	return true, nil
}
