package experiments

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"maps"

	"repro/internal/alloc"
	"repro/internal/cache"
	"repro/internal/config"
	"repro/internal/sim"
	"repro/internal/workload"
)

// This file is the context-aware leg runner: the experiments runner
// extracted behind an interface a long-running service can drive. A
// "leg" is one complete deterministic simulation — an ISS workload on a
// built system — described by a JSON-friendly LegSpec, cancellable via
// context mid-run, and resumable from a warm-boot snapshot. The
// deterministic scheduler is what makes legs service-able: equal specs
// (and equal warm snapshots) produce bit-identical results, so a
// persistent store can answer repeated legs without simulating.

// LegSpec is the JSON face of a simulation: the workload, its scale,
// and the platform axes a service client may set, each mapped
// field-to-field onto config.SystemConfig by Config (docs/SERVICE.md
// tabulates key ↔ flag ↔ field). The zero value normalizes to the
// paper's 4-ISS GSM configuration on one wrapper memory.
type LegSpec struct {
	// Name labels the leg in reports; it does not affect the result and
	// is excluded from cache keys.
	Name string `json:"name,omitempty"`
	// Workload selects the program every ISS runs: "gsm" (the paper's
	// traffic kernel, wrapper memories) or "sweep" (the scalar
	// write/verify sweep over flat memories — static, or DRAM with
	// Dram set; the cacheable class L2 legs need).
	Workload string `json:"workload,omitempty"`
	// ISSes and Memories size the platform; Frames is the per-ISS work
	// (GSM frames, or sweep iterations). Seed offsets the workload data.
	ISSes    int    `json:"isses,omitempty"`
	Memories int    `json:"memories,omitempty"`
	Frames   int    `json:"frames,omitempty"`
	Seed     uint32 `json:"seed,omitempty"`

	// Scheduler axis (observably identical; part of the full cache key
	// but not the warm-boot compatibility class).
	Lockstep bool `json:"lockstep,omitempty"`

	// Protocol/hierarchy axes (observable).
	Alloc     alloc.Kind          `json:"alloc,omitempty"`     // default | first-fit | best-fit | buddy | segregated
	Depth     int                 `json:"depth,omitempty"`     // outstanding-transaction depth
	Split     bool                `json:"split,omitempty"`     // split-transaction interconnect
	OOO       bool                `json:"ooo,omitempty"`       // out-of-order completion delivery
	Crossbar  bool                `json:"crossbar,omitempty"`  // crossbar instead of shared bus
	Cache     bool                `json:"cache,omitempty"`     // coherent private L1s
	L2        bool                `json:"l2,omitempty"`        // shared inclusive L2 (implies cache)
	Partition cache.PartitionKind `json:"partition,omitempty"` // none | swp | ucp (meaningful only with l2)
	Dram      bool                `json:"dram,omitempty"`      // banked DRAM under flat workloads
	ClosePage bool                `json:"close_page,omitempty"`

	// Optional geometry overrides (zero = package defaults).
	CacheSets int    `json:"cache_sets,omitempty"`
	CacheWays int    `json:"cache_ways,omitempty"`
	L2Sets    int    `json:"l2_sets,omitempty"`
	L2Ways    int    `json:"l2_ways,omitempty"`
	UCPPeriod uint64 `json:"ucp_period,omitempty"`

	// VCD asks the runner to capture an interconnect waveform of this
	// leg. Presentation-only for the simulation but incompatible with
	// result caching (a cached result has no waveform), so services
	// always simulate VCD legs.
	VCD bool `json:"vcd,omitempty"`
}

// Normalized fills the spec's defaults without mutating the receiver's
// zero-ness semantics: workload gsm, 4 ISSes, 1 memory, 4 frames,
// seed 1.
func (l LegSpec) Normalized() LegSpec {
	if l.Workload == "" {
		l.Workload = "gsm"
	}
	if l.ISSes == 0 {
		l.ISSes = 4
	}
	if l.Memories == 0 {
		l.Memories = 1
	}
	if l.Frames == 0 {
		l.Frames = 4
	}
	if l.Seed == 0 {
		l.Seed = 1
	}
	return l
}

// Validate rejects specs the runner cannot execute, with actionable
// errors (it does not build the system — config.Build applies its own
// checks at run time).
func (l LegSpec) Validate() error {
	n := l.Normalized()
	switch n.Workload {
	case "gsm", "sweep":
	default:
		return fmt.Errorf("leg %q: unknown workload %q (want gsm or sweep)", l.Name, l.Workload)
	}
	if n.ISSes < 1 || n.ISSes > 64 {
		return fmt.Errorf("leg %q: isses %d out of range [1,64]", l.Name, n.ISSes)
	}
	if n.Memories < 1 || n.Memories > 64 {
		return fmt.Errorf("leg %q: memories %d out of range [1,64]", l.Name, n.Memories)
	}
	if n.Frames < 1 || n.Frames > 1<<20 {
		return fmt.Errorf("leg %q: frames %d out of range [1,2^20]", l.Name, n.Frames)
	}
	if n.Depth < 0 || n.Depth > 64 {
		return fmt.Errorf("leg %q: depth %d out of range [0,64]", l.Name, n.Depth)
	}
	if n.Dram && n.Workload != "sweep" {
		return fmt.Errorf("leg %q: dram requires the sweep workload (gsm needs wrapper memories)", l.Name)
	}
	if n.L2 && n.Workload != "sweep" {
		return fmt.Errorf("leg %q: l2 requires the sweep workload (the L2 caches flat memories only)", l.Name)
	}
	return nil
}

// Config maps the spec onto the SystemConfig the leg runs on, field to
// field. The workload selects the memory kind: gsm allocates, so it
// needs wrappers; sweep targets the flat (cacheable) memories.
func (l LegSpec) Config() (config.SystemConfig, error) {
	n := l.Normalized()
	cached := n.Cache || n.L2
	cfg := config.SystemConfig{
		Masters: n.ISSes, Memories: n.Memories, Lockstep: n.Lockstep,
		AllocPolicy:      n.Alloc,
		OutstandingDepth: n.Depth, SplitBus: n.Split, OutOfOrder: n.OOO,
		Cache: cached, Coherent: cached, L2: n.L2,
		CacheSets: n.CacheSets, CacheWays: n.CacheWays,
		L2Sets: n.L2Sets, L2Ways: n.L2Ways, UCPPeriod: n.UCPPeriod,
		DRAMClosePage: n.ClosePage,
	}
	if n.L2 {
		cfg.Partition = n.Partition
	}
	switch {
	case n.Workload == "gsm":
		cfg.MemKind = config.MemWrapper
	case n.Workload == "sweep" && n.Dram:
		cfg.MemKind = config.MemDRAM
	case n.Workload == "sweep":
		cfg.MemKind = config.MemStatic
	default:
		return config.SystemConfig{}, fmt.Errorf("unknown workload %q", n.Workload)
	}
	if n.Crossbar {
		cfg.Interconnect = config.InterCrossbar
	}
	return cfg, nil
}

// simulation is the run the (normalized) leg describes: its system
// configuration plus either the warm snapshot to resume from or, for a
// cold start, the per-ISS program images.
func (l LegSpec) simulation(warm []byte) (simulation, error) {
	cfg, err := l.Config()
	if err != nil {
		return simulation{}, err
	}
	s := simulation{cfg: cfg, warm: warm}
	if warm == nil {
		s.progs, err = workload.ISSImages(l.Workload, l.ISSes, l.Memories, l.Frames, l.Seed)
	}
	return s, err
}

// Key is the leg's result-store address: a digest of the full system
// configuration (scheduler knobs included — they change wall time, and
// the stored result reports it), the canonical workload spec, and the
// warm snapshot's content hash ("" for a cold run). With the
// deterministic scheduler this triple fully determines the result.
func (l LegSpec) Key(snapHash string) (string, error) {
	n := l.Normalized()
	cfg, err := n.Config()
	if err != nil {
		return "", err
	}
	n.Name, n.VCD = "", false // presentation-only
	j, err := json.Marshal(n)
	if err != nil {
		return "", err
	}
	h := sha256.Sum256([]byte(cfg.Hash() + "|" + string(j) + "|" + snapHash))
	return hex.EncodeToString(h[:16]), nil
}

// StateKey identifies the warm-boot compatibility class of the leg's
// warm-up prefix: the config's StateHash (scheduler-only knobs zeroed)
// plus the workload identity and the warm-up length. Legs with equal
// StateKeys can resume from one shared snapshot — that is the
// scheduler-matrix warm-boot contract RestoreSystem enforces.
func (l LegSpec) StateKey(warmCycles uint64) (string, error) {
	n := l.Normalized()
	cfg, err := n.Config()
	if err != nil {
		return "", err
	}
	h := sha256.Sum256([]byte(fmt.Sprintf("%s|%s|%d|%d|%d|%d|%d",
		cfg.StateHash(), n.Workload, n.ISSes, n.Memories, n.Frames, n.Seed, warmCycles)))
	return hex.EncodeToString(h[:16]), nil
}

// LegResult is one finished leg. Cycles is the kernel's absolute final
// cycle count (so a warm-booted leg lands on its cold reference's exact
// value); StartCycle is where this run began (0 cold, the snapshot
// cycle warm). Everything except Name and WallNS is deterministic:
// equal specs (and warm snapshots) produce equal results bit for bit.
type LegResult struct {
	Name         string            `json:"name,omitempty"`
	StartCycle   uint64            `json:"start_cycle"`
	Cycles       uint64            `json:"cycles"`
	Instructions uint64            `json:"instructions"`
	WallNS       int64             `json:"wall_ns"`
	Stats        map[string]uint64 `json:"stats,omitempty"`

	// VCD holds the captured waveform when the spec asked for one;
	// it is an artifact, not part of the result value.
	VCD []byte `json:"-"`
}

// SimCycles is the number of cycles this run actually simulated.
func (r LegResult) SimCycles() uint64 { return r.Cycles - r.StartCycle }

// Identical reports whether two results are the same deterministic
// outcome: equal final cycle counts, instruction counts and module
// stats. Wall time, names and start cycles are host/provenance detail.
func (r LegResult) Identical(o LegResult) bool {
	return r.Cycles == o.Cycles && r.Instructions == o.Instructions &&
		maps.Equal(r.Stats, o.Stats)
}

// Runner is the context-aware simulation backend: RunLeg executes one
// leg to completion (cold, or resumed from a warm snapshot), Warmup
// runs a leg's warm-up prefix and returns its snapshot. Both honor
// cancellation mid-run. experiments.SimRunner is the real
// implementation; services fake it in tests.
type Runner interface {
	RunLeg(ctx context.Context, leg LegSpec, warm []byte) (LegResult, error)
	Warmup(ctx context.Context, leg LegSpec, cycles uint64) ([]byte, error)
}

// SimRunner runs legs on the in-process simulator.
type SimRunner struct{}

// RunLeg simulates the leg to completion and returns its result. A
// non-nil warm snapshot resumes from it (the snapshot must belong to
// the leg's warm-boot compatibility class) instead of starting cold.
func (SimRunner) RunLeg(ctx context.Context, leg LegSpec, warm []byte) (LegResult, error) {
	leg = leg.Normalized()
	s, err := leg.simulation(warm)
	if err != nil {
		return LegResult{}, err
	}
	res := LegResult{Name: leg.Name}
	var vcdBuf bytes.Buffer
	var vcd *sim.VCD
	s.attach = func(sys *config.System) error {
		res.StartCycle = sys.Kernel.Cycle()
		if leg.VCD {
			vcd = sim.NewVCD(&vcdBuf, "1ns")
			vcd.AddVar("bus", "transactions", 32, func() uint64 { return sys.Inter.Stats().Transactions })
			vcd.AddVar("bus", "words", 32, func() uint64 { return sys.Inter.Stats().Words })
			sys.Kernel.AfterCycle(vcd.Sample)
		}
		return nil
	}
	sys, wall, err := s.run(ctx)
	if err != nil {
		return LegResult{}, err
	}
	res.WallNS = wall.Nanoseconds()
	for _, cpu := range sys.CPUs {
		res.Instructions += cpu.Icount
	}
	res.Cycles = sys.Kernel.Cycle()
	res.Stats = legStats(sys)
	if vcd != nil {
		if err := vcd.Flush(); err != nil {
			return LegResult{}, err
		}
		res.VCD = vcdBuf.Bytes()
	}
	return res, nil
}

// Warmup runs the leg's warm-up prefix — cycles from cold — and
// returns the system snapshot at that point.
func (SimRunner) Warmup(ctx context.Context, leg LegSpec, cycles uint64) ([]byte, error) {
	if cycles == 0 {
		return nil, fmt.Errorf("warm-up prefix of 0 cycles")
	}
	s, err := leg.Normalized().simulation(nil)
	if err != nil {
		return nil, err
	}
	s.cycles = cycles
	sys, _, err := s.run(ctx)
	if err != nil {
		return nil, err
	}
	return sys.Snapshot()
}

// legStats flattens the deterministic module counters a service
// result reports: interconnect traffic, cache behavior, DRAM row
// activity. Scheduler scratch counters (skip spans, wall profiling)
// are deliberately absent — they vary across scheduler modes while the
// result must not.
func legStats(sys *config.System) map[string]uint64 {
	st := map[string]uint64{}
	ist := sys.Inter.Stats()
	st["inter.transactions"] = ist.Transactions
	st["inter.words"] = ist.Words
	st["inter.busy_cycles"] = ist.BusyCycles
	var hits, misses, wbs uint64
	for _, c := range sys.Caches {
		cs := c.Stats()
		hits += cs.Hits
		misses += cs.Misses
		wbs += cs.Writebacks
	}
	if len(sys.Caches) > 0 {
		st["l1.hits"], st["l1.misses"], st["l1.writebacks"] = hits, misses, wbs
	}
	if sys.L2 != nil {
		ls := sys.L2.Stats()
		st["l2.hits"], st["l2.misses"] = ls.Hits, ls.Misses
		st["l2.writebacks"] = ls.Writebacks
		st["l2.back_invalidations"] = ls.BackInvalidations
		st["l2.repartitions"] = ls.Repartitions
	}
	var rowHits, rowMisses uint64
	for _, d := range sys.DRAMs {
		ds := d.Stats()
		rowHits += ds.RowHits
		rowMisses += ds.RowMisses
	}
	if len(sys.DRAMs) > 0 {
		st["dram.row_hits"], st["dram.row_misses"] = rowHits, rowMisses
	}
	return st
}
