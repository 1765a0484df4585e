package config

import (
	"fmt"

	"repro/internal/alloc"
	"repro/internal/bus"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/dma"
	"repro/internal/heapsim"
	"repro/internal/iss"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/smapi"
)

// MemKind selects the memory model instantiated for every module.
type MemKind int

const (
	// MemWrapper is the paper's host-backed dynamic shared memory.
	MemWrapper MemKind = iota
	// MemStatic is the traditional static table memory.
	MemStatic
	// MemHeapSim is the detailed in-simulation allocator model.
	MemHeapSim
	// MemDRAM is the banked DRAM timing model: flat static-table
	// semantics with open-/close-page row timing, bank interleaving and
	// periodic refresh (see internal/mem DRAM). Cacheable like MemStatic.
	MemDRAM
)

// String names the kind for reports.
func (k MemKind) String() string {
	switch k {
	case MemWrapper:
		return "wrapper"
	case MemStatic:
		return "static"
	case MemHeapSim:
		return "heapsim"
	case MemDRAM:
		return "dram"
	default:
		return fmt.Sprintf("MemKind(%d)", int(k))
	}
}

// MarshalText spells the kind as String does, so MemKind is a value of
// flag.TextVar and encoding/json alike.
func (k MemKind) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

// UnmarshalText is the one parser of the -memkind flag: it accepts
// exactly the spellings String produces.
func (k *MemKind) UnmarshalText(text []byte) error {
	for c := MemWrapper; c <= MemDRAM; c++ {
		if string(text) == c.String() {
			*k = c
			return nil
		}
	}
	return fmt.Errorf("config: unknown memory kind %q (want wrapper|static|heapsim|dram)", text)
}

// InterconnectKind selects the interconnect topology.
type InterconnectKind int

const (
	// InterBus is the shared arbitrated bus (the paper's configuration).
	InterBus InterconnectKind = iota
	// InterCrossbar gives every memory an independent channel (A1
	// ablation).
	InterCrossbar
)

// String names the interconnect for reports.
func (k InterconnectKind) String() string {
	if k == InterCrossbar {
		return "crossbar"
	}
	return "bus"
}

// MarshalText spells the kind as String does, so InterconnectKind is a
// value of flag.TextVar and encoding/json alike.
func (k InterconnectKind) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

// UnmarshalText is the one parser of the -interconnect flag: it accepts
// exactly the spellings String produces.
func (k *InterconnectKind) UnmarshalText(text []byte) error {
	for c := InterBus; c <= InterCrossbar; c++ {
		if string(text) == c.String() {
			*k = c
			return nil
		}
	}
	return fmt.Errorf("config: unknown interconnect %q (want bus|crossbar)", text)
}

// SystemConfig describes a system to build.
type SystemConfig struct {
	// Masters is the number of master ports (PEs or ISSs).
	Masters int
	// Memories is the number of shared memory modules.
	Memories int
	// MemKind selects the memory model (default MemWrapper).
	MemKind MemKind
	// MemBytes is the per-module capacity (wrapper TotalSize, static
	// table size, heapsim arena). Default 1 MiB.
	MemBytes uint32
	// Interconnect selects bus or crossbar.
	Interconnect InterconnectKind
	// FixedPriority selects the fixed-priority arbiter instead of
	// round-robin.
	FixedPriority bool
	// BusWordCycles is the interconnect's per-word occupancy (default 1).
	BusWordCycles uint32
	// OutstandingDepth is the per-port outstanding-transaction capacity
	// (the credit pool of the split-transaction protocol). Zero and 1
	// select the classic single-outstanding ports, bit-identical to the
	// pre-port Link protocol.
	OutstandingDepth int
	// SplitBus selects the split-transaction interconnect engine: the
	// address phase releases the bus (or crossbar lane) while the slave
	// processes, and completed transactions re-arbitrate for the response
	// phase. Off by default — the occupied protocol of the paper.
	SplitBus bool
	// OutOfOrder lets master ports deliver completions in completion
	// order instead of issue order. Off by default (in-order delivery).
	OutOfOrder bool
	// Cache inserts a private write-back, write-allocate L1 cache between
	// every master and the interconnect (see internal/cache). Masters
	// keep driving MasterPorts; the interconnect's master side moves to
	// the caches' downstream ports. Scalar accesses to static memories
	// are cached; everything else passes through. Off by default.
	Cache bool
	// Coherent attaches every cache to a MESI snoop domain on the
	// interconnect, keeping multi-master configurations correct under
	// shared lines. Implies Cache. Off by default.
	Coherent bool
	// CacheSets, CacheWays, CacheLineBytes and CacheMSHRs override the
	// L1 geometry (zero values select the cache package defaults:
	// 64 sets × 2 ways × 32-byte lines, 4 MSHRs).
	CacheSets, CacheWays int
	CacheLineBytes       uint32
	CacheMSHRs           int
	// L2 inserts a shared, inclusive, set-associative L2 cache between
	// the interconnect and the memories (see internal/cache L2): the
	// interconnect's slave ports become the L2's upstream face and every
	// memory moves behind a private in-order link. Requires Coherent —
	// inclusion is enforced by back-invalidating the L1 domain — and a
	// cacheable memory kind (MemStatic or MemDRAM). Off by default.
	L2 bool
	// L2Sets, L2Ways, L2LineBytes and L2MSHRs override the L2 geometry
	// (zero values select the cache package defaults: 64 sets × 8 ways ×
	// 64-byte lines, 8 MSHRs). L2LineBytes must be a multiple of the L1
	// line size.
	L2Sets, L2Ways int
	L2LineBytes    uint32
	L2MSHRs        int
	// Partition selects the L2 way-partitioning policy: PartNone (plain
	// shared LRU), PartSWP (static way masks) or PartUCP (utility-based
	// repartitioning driven by per-master shadow-tag monitors).
	Partition cache.PartitionKind
	// L2SWPMasks overrides the static per-master way masks (PartSWP
	// only; nil → contiguous equal split).
	L2SWPMasks []uint64
	// UCPPeriod is the number of demand accesses between UCP
	// repartitions (0 → cache package default).
	UCPPeriod uint64
	// DRAMBanks, DRAMRowBytes, DRAMClosePage, DRAMRefreshPeriod and
	// DRAMRefreshCycles configure the MemDRAM model (zero values select
	// the mem package defaults; refresh off unless both refresh knobs
	// are set).
	DRAMBanks         int
	DRAMRowBytes      uint32
	DRAMClosePage     bool
	DRAMRefreshPeriod uint64
	DRAMRefreshCycles uint32
	// DRAMTiming overrides the row timing (nil → DefaultDRAMTiming).
	DRAMTiming *mem.DRAMTiming
	// WrapperDelays overrides the wrapper timing (nil → DefaultDelays).
	WrapperDelays *core.DelayParams
	// StaticDelays overrides static RAM timing (nil → DefaultDelays).
	StaticDelays *mem.Delays
	// HeapWordLatency is heapsim's per-metadata-word cost (default 1).
	HeapWordLatency uint32
	// AllocPolicy selects the allocation policy of every memory module
	// (see internal/alloc): for MemHeapSim it is the in-arena metadata
	// allocator whose word traffic is charged cycles; for MemWrapper it
	// is the virtual-address placement discipline (functional only, no
	// timing change). The zero value keeps each model's historical
	// behavior — heapsim first-fit, wrapper bump placement — bit
	// identical. MemStatic has no allocator and ignores it.
	AllocPolicy alloc.Kind
	// Endian sets the wrapper's simulated byte order.
	Endian core.Endian
	// LinearLookup forces the wrapper's linear pointer-table search
	// (ablation A2).
	LinearLookup bool
	// EnforceReadReservation extends wrapper reservations to reads.
	EnforceReadReservation bool
	// Lockstep pins the kernel to lockstep stepping instead of the
	// default event-driven (idle-skip) scheduler. The two are observably
	// identical; lockstep is the reference side of differential tests
	// and the baseline of scheduler benchmarks.
	Lockstep bool
	// Workers is retired: the kernel has one sequential tick loop (see
	// the sim package docs). Build accepts only 0 and 1, which mean the
	// same thing, and neither hash digests the field. It stays only for
	// callers that still spell out Workers: 1.
	Workers int
	// DisableISSBatch turns off ISS instruction batching (on by default
	// for built systems; see iss.Config.Batch). Batching is cycle-exact
	// at every module and signal boundary — the knob exists as the
	// plain reference side of differential tests and for host code that
	// inspects CPU registers or counters between individual cycles.
	DisableISSBatch bool
	// DisableISSDecodeCache turns off the per-CPU decode cache (on by
	// default for built systems; see iss.Config.DecodeCache).
	DisableISSDecodeCache bool
}

// l1LineBytes is the L1 line size Build uses: the configured one, or the
// cache package's 32-byte default.
func (c SystemConfig) l1LineBytes() uint32 {
	if c.CacheLineBytes == 0 {
		return 32
	}
	return c.CacheLineBytes
}

// Interconnect is the common face of Bus and Crossbar.
type Interconnect interface {
	sim.Module
	Stats() bus.Stats
}

// System is a fully wired simulated platform.
type System struct {
	Kernel      *sim.Kernel
	MasterPorts []*bus.Port
	SlavePorts  []*bus.Port
	Inter       Interconnect

	// Caches are the per-master L1s (nil entries never occur; empty when
	// SystemConfig.Cache is off), CachePorts their downstream ports (the
	// interconnect's master side when caching is on), and Domain the
	// MESI snoop domain (nil unless Coherent).
	Caches     []*cache.Cache
	CachePorts []*bus.Port
	Domain     *cache.Domain

	// L2 is the shared inclusive second-level cache (nil unless
	// SystemConfig.L2); its private memory-side links are embedded in
	// its own snapshot section, like the L1 writeback ports.
	L2 *cache.L2

	Wrappers []*core.Wrapper
	Statics  []*mem.StaticRAM
	Heaps    []*heapsim.HeapMem
	DRAMs    []*mem.DRAM

	Procs []*smapi.Proc
	CPUs  []*iss.CPU

	// DMAs are the engines attached through AddDMA, with dmaPorts their
	// master-port indices — tracked so snapshots can re-create them.
	DMAs     []*dma.Engine
	dmaPorts []int

	Cfg SystemConfig
}

// Build wires a system. Masters are created as bare ports; attach
// software with AddProcs or AddCPUs (or drive the ports directly).
func Build(cfg SystemConfig) (*System, error) {
	if cfg.Masters <= 0 {
		return nil, fmt.Errorf("config: need at least one master, got %d", cfg.Masters)
	}
	if cfg.Memories <= 0 {
		return nil, fmt.Errorf("config: need at least one memory, got %d", cfg.Memories)
	}
	if cfg.MemBytes == 0 {
		cfg.MemBytes = 1 << 20
	}
	if cfg.OutstandingDepth < 0 {
		return nil, fmt.Errorf("config: negative OutstandingDepth %d", cfg.OutstandingDepth)
	}
	if cfg.Workers != 0 && cfg.Workers != 1 {
		return nil, fmt.Errorf("config: Workers %d: the kernel is sequential, only 0 or 1 is accepted", cfg.Workers)
	}
	if cfg.L2 {
		if !cfg.Coherent {
			return nil, fmt.Errorf("config: L2 requires Coherent (inclusion back-invalidates the L1 snoop domain)")
		}
		if cfg.MemKind != MemStatic && cfg.MemKind != MemDRAM {
			return nil, fmt.Errorf("config: L2 requires a cacheable memory kind (static or dram), got %s", cfg.MemKind)
		}
	}
	k := sim.New()
	k.SetLockstep(cfg.Lockstep)
	sys := &System{Kernel: k, Cfg: cfg}

	portCfg := bus.PortConfig{Depth: cfg.OutstandingDepth, OutOfOrder: cfg.OutOfOrder}
	for i := 0; i < cfg.Masters; i++ {
		sys.MasterPorts = append(sys.MasterPorts, bus.NewPort(k, fmt.Sprintf("m%d", i), portCfg))
	}
	l2mshrs := cfg.L2MSHRs
	if l2mshrs <= 0 {
		l2mshrs = 8
	}
	var memPorts []*bus.Port // L2 → memory links (nil without L2)
	for i := 0; i < cfg.Memories; i++ {
		// Slave-side ports always deliver in order: the interconnect is
		// their only consumer and memory FSMs complete FIFO anyway. With
		// an L2 interposed the slave port becomes the L2's upstream face
		// and must deliver out of order so hits complete under
		// outstanding misses.
		link := bus.NewPort(k, fmt.Sprintf("s%d", i), bus.PortConfig{
			Depth: cfg.OutstandingDepth, OutOfOrder: cfg.L2,
		})
		sys.SlavePorts = append(sys.SlavePorts, link)
		memLink := link
		if cfg.L2 {
			// The memory's private in-order link: FIFO position is what
			// orders L2 writebacks before the refills that displaced them.
			memLink = bus.NewPort(k, fmt.Sprintf("md%d", i), bus.PortConfig{Depth: l2mshrs + 2})
			memPorts = append(memPorts, memLink)
		}
		name := fmt.Sprintf("%s%d", cfg.MemKind, i)
		switch cfg.MemKind {
		case MemWrapper:
			delays := core.DefaultDelays()
			if cfg.WrapperDelays != nil {
				delays = *cfg.WrapperDelays
			}
			w, err := core.NewWrapper(k, core.Config{
				Name:                   name,
				TotalSize:              cfg.MemBytes,
				Endian:                 cfg.Endian,
				Delays:                 delays,
				LinearLookup:           cfg.LinearLookup,
				EnforceReadReservation: cfg.EnforceReadReservation,
				Policy:                 cfg.AllocPolicy,
			}, memLink)
			if err != nil {
				return nil, fmt.Errorf("config: %s: %w", name, err)
			}
			sys.Wrappers = append(sys.Wrappers, w)
		case MemStatic:
			delays := mem.DefaultDelays()
			if cfg.StaticDelays != nil {
				delays = *cfg.StaticDelays
			}
			r := mem.NewStaticRAM(k, mem.Config{Name: name, Size: cfg.MemBytes, Delays: delays}, memLink)
			sys.Statics = append(sys.Statics, r)
		case MemDRAM:
			timing := mem.DefaultDRAMTiming()
			if cfg.DRAMTiming != nil {
				timing = *cfg.DRAMTiming
			}
			d, err := mem.NewDRAMOn(k, mem.DRAMConfig{
				Name: name, Size: cfg.MemBytes,
				Banks: cfg.DRAMBanks, RowBytes: cfg.DRAMRowBytes,
				ClosePage: cfg.DRAMClosePage, Timing: timing,
				RefreshPeriod: cfg.DRAMRefreshPeriod,
				RefreshCycles: cfg.DRAMRefreshCycles,
			}, memLink)
			if err != nil {
				return nil, fmt.Errorf("config: %s: %w", name, err)
			}
			sys.DRAMs = append(sys.DRAMs, d)
		case MemHeapSim:
			h, err := heapsim.NewHeapMem(k, heapsim.Config{
				Name:        name,
				ArenaSize:   cfg.MemBytes,
				Policy:      cfg.AllocPolicy,
				WordLatency: cfg.HeapWordLatency,
				Decode:      1,
				Read:        1,
				Write:       1,
				BurstBase:   1, BurstPerElem: 1,
			}, memLink)
			if err != nil {
				return nil, fmt.Errorf("config: %s: %w", name, err)
			}
			sys.Heaps = append(sys.Heaps, h)
		default:
			return nil, fmt.Errorf("config: unknown memory kind %d", cfg.MemKind)
		}
	}

	// Interconnect master side: the masters' own ports, or — with caches
	// interposed — the caches' downstream ports.
	interMasters := sys.MasterPorts
	if cfg.Cache || cfg.Coherent {
		cacheLine := cfg.l1LineBytes()
		flatMem := cfg.MemKind == MemStatic || cfg.MemKind == MemDRAM
		if flatMem && cfg.MemBytes%cacheLine != 0 {
			return nil, fmt.Errorf("config: MemBytes %d not a multiple of the %d-byte cache line", cfg.MemBytes, cacheLine)
		}
		mshrs := cfg.CacheMSHRs
		if mshrs <= 0 {
			mshrs = 4
		}
		// Only the flat-addressed table memories (static, DRAM) are
		// cacheable: line refills are whole-line typed bursts, which the
		// wrapper and heapsim interpret per allocation.
		var cacheable func(sm int) bool
		if !flatMem {
			cacheable = func(int) bool { return false }
		}
		if cfg.Coherent {
			sys.Domain = cache.NewDomain()
		}
		// The interconnect's master side becomes [down0..downN-1,
		// wb0..wbN-1]: request ports first (so bypassed traffic keeps the
		// master indices the wrapper's reservation ownership stamps),
		// then the dedicated writeback channels.
		var wbPorts []*bus.Port
		n := len(sys.MasterPorts)
		for i, up := range sys.MasterPorts {
			// Deep enough for every MSHR plus pass-through traffic;
			// out-of-order because the cache routes completions by tag.
			down := bus.NewPort(k, fmt.Sprintf("c%d", i), bus.PortConfig{
				Depth: mshrs + 2, OutOfOrder: true,
			})
			wb := bus.NewPort(k, fmt.Sprintf("w%d", i), bus.PortConfig{
				Depth: 4, OutOfOrder: true,
			})
			l1, err := cache.New(k, cache.Config{
				Name: fmt.Sprintf("l1.%d", i),
				Sets: cfg.CacheSets, Ways: cfg.CacheWays,
				LineBytes: cacheLine, MSHRs: mshrs,
				Cacheable: cacheable,
			}, up, down, wb)
			if err != nil {
				return nil, fmt.Errorf("config: l1 %d: %w", i, err)
			}
			if sys.Domain != nil {
				sys.Domain.Attach(l1, i, n+i)
			}
			sys.Caches = append(sys.Caches, l1)
			sys.CachePorts = append(sys.CachePorts, down)
			wbPorts = append(wbPorts, wb)
		}
		interMasters = append(append([]*bus.Port(nil), sys.CachePorts...), wbPorts...)
	}

	if cfg.L2 {
		l2, err := cache.NewL2(k, cache.L2Config{
			Name: "l2",
			Sets: cfg.L2Sets, Ways: cfg.L2Ways,
			LineBytes: cfg.L2LineBytes, MSHRs: l2mshrs,
			Masters:   cfg.Masters,
			Partition: cfg.Partition, SWPMasks: cfg.L2SWPMasks,
			UCPPeriod: cfg.UCPPeriod,
		}, sys.SlavePorts, memPorts)
		if err != nil {
			return nil, fmt.Errorf("config: l2: %w", err)
		}
		if err := l2.AttachL1s(sys.Domain); err != nil {
			return nil, fmt.Errorf("config: l2: %w", err)
		}
		sys.L2 = l2
	}

	newArb := func() bus.Arbiter {
		if cfg.FixedPriority {
			return bus.NewFixedPriority()
		}
		return bus.NewRoundRobin()
	}
	switch cfg.Interconnect {
	case InterBus:
		b := bus.NewBus(k, "bus", interMasters, sys.SlavePorts, newArb())
		if cfg.BusWordCycles > 0 {
			b.WordCycles = cfg.BusWordCycles
		}
		if cfg.SplitBus {
			b.Split = true
			b.RespArb = newArb()
		}
		if sys.Domain != nil {
			b.Snoop = sys.Domain
		}
		sys.Inter = b
	case InterCrossbar:
		x := bus.NewCrossbar(k, "xbar", interMasters, sys.SlavePorts, newArb)
		if cfg.BusWordCycles > 0 {
			x.WordCycles = cfg.BusWordCycles
		}
		x.Split = cfg.SplitBus
		if sys.Domain != nil {
			x.Snoop = sys.Domain
		}
		sys.Inter = x
	default:
		return nil, fmt.Errorf("config: unknown interconnect %d", cfg.Interconnect)
	}
	return sys, nil
}

// CachesSynced reports whether every cache level has drained its dirty
// state (see cache.Cache.Synced / cache.L2.Synced); trivially true
// without caches.
func (s *System) CachesSynced() bool {
	for _, c := range s.Caches {
		if !c.Synced() {
			return false
		}
	}
	return s.L2 == nil || s.L2.Synced()
}

// FlushCaches queues writebacks for every dirty L1 line. Call between
// kernel steps, then run until CachesSynced before inspecting memory
// contents host-side. With an L2 the drain is multi-phase — dirty L1
// data must land in the L2 before the L2 flushes — so use DrainCaches
// instead.
func (s *System) FlushCaches() {
	for _, c := range s.Caches {
		c.FlushAll()
	}
}

// DrainCaches flushes the whole hierarchy to memory: L1 dirty lines
// land in the L2 (or memory) first, then the L2's dirty lines land in
// memory. limit bounds each phase's cycles. After a successful return
// CachesSynced holds and the flat memory image is authoritative.
func (s *System) DrainCaches(limit uint64) error {
	// Each phase guards its predicate before running: with the predicate
	// already true, the event-driven scheduler would skip the whole
	// budget before checking it, leaving the final cycle count dependent
	// on the scheduler mode.
	if len(s.Caches) > 0 {
		s.FlushCaches()
		l1Idle := func() bool {
			for _, c := range s.Caches {
				if !c.Idle() {
					return false
				}
			}
			return true
		}
		if !l1Idle() {
			if _, err := s.Kernel.RunUntil(l1Idle, limit); err != nil {
				return fmt.Errorf("config: L1 drain: %w", err)
			}
		}
	}
	if s.L2 != nil {
		s.L2.FlushAll()
		drained := func() bool { return s.CachesSynced() && s.L2.Idle() }
		if !drained() {
			if _, err := s.Kernel.RunUntil(drained, limit); err != nil {
				return fmt.Errorf("config: L2 drain: %w", err)
			}
		}
	}
	return nil
}

// attached returns the number of master ports already claimed by Procs
// and CPUs; further masters attach after them.
func (s *System) attached() int { return len(s.Procs) + len(s.CPUs) }

// AddProcs attaches one native software task per free master port, in
// order after any already-attached masters. Leaving ports bare is legal
// (for DMA engines or direct driving).
func (s *System) AddProcs(tasks ...smapi.Task) error {
	base := s.attached()
	if base+len(tasks) > len(s.MasterPorts) {
		return fmt.Errorf("config: %d tasks but only %d of %d masters free",
			len(tasks), len(s.MasterPorts)-base, len(s.MasterPorts))
	}
	for i, task := range tasks {
		idx := base + i
		p := smapi.NewProc(s.Kernel, fmt.Sprintf("pe%d", idx), idx, s.MasterPorts[idx], task)
		s.Procs = append(s.Procs, p)
	}
	return nil
}

// AddCPUs attaches one ISS per free master port running the given
// program images, in order after any already-attached masters.
func (s *System) AddCPUs(progs ...[]byte) error {
	base := s.attached()
	if base+len(progs) > len(s.MasterPorts) {
		return fmt.Errorf("config: %d programs but only %d of %d masters free",
			len(progs), len(s.MasterPorts)-base, len(s.MasterPorts))
	}
	for i, prog := range progs {
		idx := base + i
		cpu, err := iss.New(s.Kernel, iss.Config{
			Name:        fmt.Sprintf("iss%d", idx),
			Prog:        prog,
			Port:        s.MasterPorts[idx],
			Batch:       !s.Cfg.DisableISSBatch,
			DecodeCache: !s.Cfg.DisableISSDecodeCache,
		})
		if err != nil {
			return fmt.Errorf("config: cpu %d: %w", idx, err)
		}
		s.CPUs = append(s.CPUs, cpu)
	}
	return nil
}

// NextFreeMaster returns the index of the first master port with no
// Proc or CPU attached, for wiring additional devices (DMA engines,
// custom masters). It returns -1 when every port is taken. Devices
// claimed this way are not tracked; attach them last.
func (s *System) NextFreeMaster() int {
	if used := s.attached(); used < len(s.MasterPorts) {
		return used
	}
	return -1
}

// ProcsDone reports whether every attached Proc has finished.
func (s *System) ProcsDone() bool {
	for _, p := range s.Procs {
		if !p.Done() {
			return false
		}
	}
	return true
}

// CPUsHalted reports whether every attached CPU has halted.
func (s *System) CPUsHalted() bool {
	for _, c := range s.CPUs {
		if !c.Halted() {
			return false
		}
	}
	return true
}
