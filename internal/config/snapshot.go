package config

import (
	"cmp"
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"repro/internal/bus"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/dma"
	"repro/internal/mem"
	"repro/internal/snapshot"
)

// This file is the snapshot orchestrator: it enumerates the system's
// ports and modules in deterministic build order and delegates each
// one's state to its snapshot.Stateful walk. Modules that do not
// implement it (native smapi.Procs, whose state lives in a goroutine)
// make Snapshot fail loudly — a snapshot is complete or it is nothing.

// Hash digests the full configuration, scheduler knobs included (the
// retired Workers field is not: 0 and 1 build the same kernel). Use it
// to key result caches: two runs with equal hashes and equal workloads
// produce byte-identical results.
func (c SystemConfig) Hash() string { return c.hash(false) }

// StateHash digests the configuration with the scheduler-only knobs
// (Lockstep, ISS fast paths) zeroed. Two configs with equal
// StateHash build systems whose observable state evolves identically,
// so a snapshot taken under one may be restored under the other — that
// is exactly the warm-boot sweep contract, and RestoreSnapshot
// enforces it.
func (c SystemConfig) StateHash() string { return c.hash(true) }

func (c SystemConfig) hash(normalize bool) string {
	n := c
	n.Workers = 0
	if normalize {
		n.Lockstep = false
		n.DisableISSBatch = false
		n.DisableISSDecodeCache = false
	}
	// Pointer fields would digest as addresses; hash their values
	// separately and blank them in the struct dump.
	var wd core.DelayParams
	if c.WrapperDelays != nil {
		wd = *c.WrapperDelays
	}
	var sd mem.Delays
	if c.StaticDelays != nil {
		sd = *c.StaticDelays
	}
	var dt mem.DRAMTiming
	if c.DRAMTiming != nil {
		dt = *c.DRAMTiming
	}
	n.WrapperDelays, n.StaticDelays, n.DRAMTiming = nil, nil, nil
	h := sha256.New()
	fmt.Fprintf(h, "%+v|wd:%v:%+v|sd:%v:%+v|dt:%v:%+v", n,
		c.WrapperDelays != nil, wd, c.StaticDelays != nil, sd, c.DRAMTiming != nil, dt)
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// AddDMA attaches a DMA engine to master port idx and registers it for
// snapshotting; devices wired around the System (raw dma.New on a
// port) work but are invisible to Snapshot's meta section, so
// RestoreSystem could not re-create them.
func (s *System) AddDMA(idx int, name string) (*dma.Engine, error) {
	if idx < 0 || idx >= len(s.MasterPorts) {
		return nil, fmt.Errorf("config: AddDMA port %d out of range (%d masters)", idx, len(s.MasterPorts))
	}
	eng := dma.New(s.Kernel, name, s.MasterPorts[idx])
	s.DMAs = append(s.DMAs, eng)
	s.dmaPorts = append(s.dmaPorts, idx)
	return eng, nil
}

// snapshotPorts enumerates every port the System tracks, in build
// order. Cache writeback ports are not listed: they are internal to
// the caches, which embed them in their own sections.
func (s *System) snapshotPorts() []*bus.Port {
	var ports []*bus.Port
	ports = append(ports, s.MasterPorts...)
	ports = append(ports, s.SlavePorts...)
	ports = append(ports, s.CachePorts...)
	return ports
}

const metaSection = "meta"

// meta is the meta section: the state hash, the port counts and the
// masters to re-attach. masters, the configured count, bounds the CPU
// and DMA counts; it does not travel.
type meta struct {
	masters          int
	hash             string
	cycle            uint64
	nm, ns, nc, ncpu int
	dmas             []dmaMeta
}

type dmaMeta struct {
	name string
	port int
}

// meta describes this system for the meta section.
func (s *System) meta() *meta {
	m := &meta{masters: s.Cfg.Masters, hash: s.Cfg.StateHash(), cycle: s.Kernel.Cycle(),
		nm: len(s.MasterPorts), ns: len(s.SlavePorts), nc: len(s.CachePorts), ncpu: len(s.CPUs)}
	for i, eng := range s.DMAs {
		m.dmas = append(m.dmas, dmaMeta{name: eng.Name(), port: s.dmaPorts[i]})
	}
	return m
}

// WalkState walks the meta section. The CPU and DMA counts size
// allocations, so a count that is negative or exceeds the masters
// configured is refused before anything is allocated from it.
func (m *meta) WalkState(c *snapshot.Codec) error {
	c.String(&m.hash)
	c.U64(&m.cycle) // informational: the authoritative copy is in "kernel"
	c.Int(&m.nm)
	c.Int(&m.ns)
	c.Int(&m.nc)
	c.Int(&m.ncpu)
	ndma := len(m.dmas)
	c.Int(&ndma)
	if m.ncpu < 0 || m.ncpu > m.masters || ndma < 0 || ndma > m.masters {
		return c.Fail(fmt.Errorf("%d CPUs and %d DMA engines for %d masters", m.ncpu, ndma, m.masters))
	}
	if c.Loading() {
		m.dmas = make([]dmaMeta, ndma)
	}
	for i := range m.dmas {
		c.String(&m.dmas[i].name)
		c.Int(&m.dmas[i].port)
	}
	return c.Err()
}

// Snapshot serializes the complete simulator state into the versioned
// format of internal/snapshot. It fails — rather than write a partial
// file — when any module does not support snapshotting or the kernel
// is mid-cycle.
func (s *System) Snapshot() ([]byte, error) {
	if !s.Kernel.Quiescent() {
		return nil, fmt.Errorf("config: snapshot requires a quiescent kernel (between cycles, no uncommitted signals)")
	}
	if len(s.Procs) > 0 {
		return nil, fmt.Errorf("config: cannot snapshot: module %s is a native smapi proc whose task state lives in a goroutine, which does not serialize; rebuild the system with ISS masters (AddCPUs) instead of native procs, or checkpoint before AddProcs — see docs/SNAPSHOT.md \"What deliberately does not travel\"", s.Procs[0].Name())
	}
	w := snapshot.NewWriter()
	w.Save(metaSection, s.meta())
	w.Save("kernel", s.Kernel)
	for _, p := range s.snapshotPorts() {
		w.Save("port."+p.Name(), p)
	}
	for _, m := range s.Kernel.Modules() {
		st, ok := m.(snapshot.Stateful)
		if !ok {
			return nil, fmt.Errorf("config: module %s does not support snapshotting", m.Name())
		}
		w.Save("mod."+m.Name(), st)
	}
	return w.Finish()
}

// readSnapshot parses data and loads its meta section.
func readSnapshot(data []byte, masters int) (*snapshot.File, *meta, error) {
	f, err := snapshot.Read(data)
	if err != nil {
		return nil, nil, err
	}
	m := &meta{masters: masters}
	if err := f.Load(metaSection, m); err != nil {
		return nil, nil, err
	}
	return f, m, nil
}

// RestoreSnapshot overwrites the state of this system — built from a
// state-compatible config, with the same masters attached in the same
// order — from a snapshot produced by Snapshot. On success the system
// resumes bit-identically to the one that was saved; on any error the
// system must be considered corrupt and discarded (restore does not
// roll back).
func (s *System) RestoreSnapshot(data []byte) error {
	f, m, err := readSnapshot(data, s.Cfg.Masters)
	if err != nil {
		return err
	}
	return s.restoreFrom(f, m)
}

func (s *System) restoreFrom(f *snapshot.File, m *meta) error {
	if want := s.Cfg.StateHash(); m.hash != want {
		return fmt.Errorf("config: snapshot belongs to a different configuration (state hash %s, this system %s)", m.hash, want)
	}
	if m.nm != len(s.MasterPorts) || m.ns != len(s.SlavePorts) || m.nc != len(s.CachePorts) {
		return fmt.Errorf("config: snapshot topology mismatch: %d/%d/%d ports vs system %d/%d/%d",
			m.nm, m.ns, m.nc, len(s.MasterPorts), len(s.SlavePorts), len(s.CachePorts))
	}
	if m.ncpu != len(s.CPUs) {
		return fmt.Errorf("config: snapshot has %d CPUs, system has %d", m.ncpu, len(s.CPUs))
	}
	if len(m.dmas) != len(s.DMAs) {
		return fmt.Errorf("config: snapshot has %d DMA engines, system has %d", len(m.dmas), len(s.DMAs))
	}
	for i, d := range m.dmas {
		if d.name != s.DMAs[i].Name() || d.port != s.dmaPorts[i] {
			return fmt.Errorf("config: DMA %d mismatch: snapshot has %s@m%d, system has %s@m%d",
				i, d.name, d.port, s.DMAs[i].Name(), s.dmaPorts[i])
		}
	}
	if err := f.Load("kernel", s.Kernel); err != nil {
		return err
	}
	for _, p := range s.snapshotPorts() {
		if err := f.Load("port."+p.Name(), p); err != nil {
			return err
		}
	}
	for _, mod := range s.Kernel.Modules() {
		st, ok := mod.(snapshot.Stateful)
		if !ok {
			return fmt.Errorf("config: module %s does not support snapshot restore", mod.Name())
		}
		if err := f.Load("mod."+mod.Name(), st); err != nil {
			return err
		}
	}
	if err := s.Check(); err != nil {
		return fmt.Errorf("config: restored state fails its check: %w", err)
	}
	return nil
}

// Check reports the first inconsistency in the system's state: each
// port's and each module's own Check, then MESI exclusivity across
// coherent L1s and inclusion under an L2. A run never leaves such a
// state between cycles, so a failure means the state came from outside
// the run; restoring a snapshot checks once, after every section has
// loaded, so no section's walk depends on another's.
func (s *System) Check() error {
	var err error
	for _, ports := range [...][]*bus.Port{s.MasterPorts, s.SlavePorts, s.CachePorts} {
		for _, p := range ports {
			err = cmp.Or(err, p.Check())
		}
	}
	// Modules read their ports, so they are checked only once every
	// port has passed.
	for _, m := range s.Kernel.Modules() {
		if c, ok := m.(interface{ Check() error }); ok && err == nil {
			err = c.Check()
		}
	}
	if s.Domain != nil && err == nil {
		err = cache.CheckExclusivity(s.Caches)
	}
	if s.L2 != nil && err == nil {
		err = cache.CheckInclusion(s.L2, s.Caches)
	}
	return err
}

// RestoreSystem builds a fresh runnable system from cfg and a snapshot:
// Build, re-attach the masters the meta section names (CPUs first,
// then DMA engines — the build-order convention every in-repo harness
// follows), then restore all state. cfg may differ from the snapshot's
// origin only in scheduler knobs (see StateHash); that is what lets a
// warm-boot sweep fan one snapshot across the scheduler matrix.
func RestoreSystem(cfg SystemConfig, data []byte) (*System, error) {
	f, m, err := readSnapshot(data, cfg.Masters)
	if err != nil {
		return nil, err
	}
	sys, err := Build(cfg)
	if err != nil {
		return nil, err
	}
	if m.ncpu > 0 {
		// Programs live inside each CPU's restored memory image; the
		// rebuild only needs the right number of CPUs on the right ports.
		if err := sys.AddCPUs(make([][]byte, m.ncpu)...); err != nil {
			return nil, err
		}
	}
	for _, d := range m.dmas {
		if _, err := sys.AddDMA(d.port, d.name); err != nil {
			return nil, err
		}
	}
	if err := sys.restoreFrom(f, m); err != nil {
		return nil, err
	}
	return sys, nil
}
