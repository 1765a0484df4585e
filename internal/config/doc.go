// Package config assembles complete simulated systems — processing
// elements, interconnect and memory modules — from a declarative
// description. It is the composition root the examples, experiments and
// benchmarks share, mirroring the paper's Figure 2 topology: n masters
// (ISSs or native PEs) × one interconnect × p shared memories.
//
// # Building systems
//
// Build(SystemConfig) wires the whole machine: one master port per
// processing element, the selected interconnect (shared bus or
// crossbar, occupied or split protocol), p memory modules of the
// configured kind (host-backed wrapper, static RAM, or the
// cycle-metered heapsim allocator), and — when Cache is set — a
// private write-back L1 in front of every master, optionally joined
// into a MESI snoop domain. The returned System exposes every layer
// (Kernel, ports, interconnect, memories, caches) so harnesses can
// attach probes without replicating the wiring.
//
// Masters attach after Build: AddCPUs loads armlet programs onto ISS
// masters, AddProcs attaches native smapi tasks, and AddDMA attaches a
// descriptor-driven copy engine to a master port. Attachment order is
// a repo-wide convention (CPUs first, then DMA engines) because
// snapshot restore replays it.
//
// # Three faces of one description
//
// SystemConfig is the single description of a platform. Go literals
// write it directly; the commands fill it through BindFlags, the one
// declaration of the platform flags (Describe prints the matching run
// header); the service's LegSpec JSON maps onto it field to field. The
// kind-typed fields (MemKind, InterconnectKind, alloc.Kind,
// cache.PartitionKind) parse through their own UnmarshalText, so flags
// and JSON accept exactly the spellings String prints.
//
// # Scheduler knobs versus state
//
// SystemConfig mixes two kinds of fields. Structural fields (masters,
// memories, protocol, cache geometry, allocation policy) change the
// simulated machine. Scheduler knobs (Lockstep, the ISS fast paths)
// only change how fast the host simulates it — the differential test
// matrix proves all combinations bit-identical. Hash digests the
// full config; StateHash digests it with the scheduler knobs zeroed,
// defining the compatibility class for snapshot restore.
//
// # Checkpoint and restore
//
// System.Snapshot serializes the complete simulator state into the
// versioned sectioned format of internal/snapshot: a meta section
// (state hash, topology, attached masters), the kernel clock, every
// port's in-flight transactions, and one section per kernel module.
// Modules implement snapshot.Stateful, one WalkState method that both
// saves and loads their section; a module that does not (native smapi
// procs hold goroutine state) makes Snapshot fail loudly rather than
// write a partial file.
//
// System.RestoreSnapshot overwrites an identically-built system's
// state in place; RestoreSystem rebuilds a runnable System from config
// + snapshot alone, re-attaching the masters the meta section names.
// The config may differ from the saving run in scheduler knobs only —
// that is what lets a warm-boot sweep (experiments.WB) fan one shared
// warm-up snapshot across the whole scheduler matrix. See
// docs/SNAPSHOT.md for the format and the module-by-module state map.
package config
