// Package cache implements a two-level cache hierarchy built on the
// split-transaction port protocol of internal/bus: private write-back,
// write-allocate, set-associative L1s with MESI snooping coherence,
// and an optional shared inclusive L2 with per-master way
// partitioning.
//
// # Position in the system
//
// A Cache interposes between one master and the interconnect: on the
// "up" port it is the slave of its CPU/PE/DMA master (it pops the
// master's requests and publishes their completions), and toward the
// interconnect it masters two ports — "down" for tagged refills and
// pass-through transactions, plus a dedicated "wb" writeback channel.
// The split matters for liveness: a writeback queued behind a
// snoop-deferred refill in one FIFO would deadlock the protocol (two
// caches each deferring the other's refill while holding the resolving
// writeback captive behind their own deferred head). The master cannot
// tell a cache from a memory; the interconnect cannot tell a cache
// from a CPU. At the system level (config.SystemConfig.Cache) every
// master gets a private L1 and the interconnect's master side becomes
// the caches' down ports followed by their writeback ports.
//
// # What is cached
//
// Scalar OpRead/OpWrite accesses to cacheable modules that fall entirely
// within one line are cached. Everything else — bursts, the dynamic
// operations (alloc/free/reserve/release), line-crossing scalars, and
// every access to a non-cacheable module — bypasses: it is forwarded
// downstream unchanged after the cache has made its own copies safe
// (dirty overlapping lines are written back first; overlapping lines are
// additionally invalidated when the bypassing operation writes). Only
// flat-addressed memories are cacheable in practice: line refills are
// whole-line U32 bursts at line-aligned addresses, which the static
// table memory always accepts (config marks wrapper and heapsim modules
// non-cacheable, because their burst semantics are per-allocation and
// typed). A line is (sm, line-aligned address); the cache fronts the
// whole shared address space of its master.
//
// # States and transactions
//
// Each line is Invalid, Shared, Exclusive or Modified. Misses allocate a
// miss-status-holding register (MSHR) and issue a whole-line OpReadBurst
// downstream — with Request.Excl set when the miss is for a write (the
// MESI BusRdX; a write hitting a Shared line takes the same path as an
// upgrade). Victim lines in M are written back with OpWriteBurst +
// Request.WB on the dedicated writeback channel; because that channel
// is a separate port, position no longer orders a writeback ahead of a
// same-line read, so refills and forwarded requests are held back until
// no writeback overlapping their range is queued or in flight. Multiple
// outstanding misses to distinct lines ride the split protocol
// concurrently, up to the MSHR count and the down port's credit pool;
// requests to a line with an in-flight MSHR coalesce onto it (reads onto
// any MSHR, writes only onto exclusive ones — otherwise the head waits).
// The cache serves at most one new master request and issues at most one
// downstream address per cycle; hits complete in the cycle they are
// popped, so a load hit costs the two port hops (issue visibility +
// completion visibility) instead of a full interconnect round trip.
//
// # Snoop phase
//
// Coherence is enforced at the interconnect's address phase through the
// bus.Snooper hook, implemented by Domain. Before granting an address
// phase the interconnect asks CanProceed: the Domain scans peer caches
// for conflicting state — a Modified overlapping line, a pending or
// in-flight writeback, or a granted-but-not-yet-installed refill — and
// defers the grant while flagging dirty owners to write their lines
// back (the line goes M→S, its data queues on the owner's writeback
// path). This is the classic snoop-hit-dirty retry idiom: dirty data is
// "supplied" by deferring the requester until the owner's writeback has
// landed in memory, after which the retried request reads fresh data
// through the ordinary path. Writebacks themselves (Request.WB) are
// never deferred — they are the resolution mechanism.
//
// After the pop of a winning request the interconnect calls OnGrant, the
// broadcast peers react to: peers invalidate overlapping lines on writes
// and exclusive refills (S/E→I; observing M here is a protocol-invariant
// violation and faults the kernel), and downgrade E→S on reads. The
// granting cache's own MSHR is marked granted — from then until install
// it defers conflicting peers, which closes the window in which two
// caches could both refill the same line exclusively — and records
// whether any peer held a valid copy, which decides Shared versus
// Exclusive at install.
//
// Known simplification: there is no cache-to-cache transfer, so a writer
// that keeps re-dirtying a line can in principle starve a deferred peer;
// the bounded workloads of the experiments always converge.
//
// # MSHR rules
//
//   - One MSHR per line; secondary misses coalesce as waiters and are
//     served in arrival order when the refill installs.
//   - An MSHR is created only when a register is free and holds (sm,
//     line, exclusivity, target way); its refill issues when the
//     writeback queue is empty (ordering) and a down-port credit is
//     free.
//   - granted (set by the Domain at the interconnect grant) makes the
//     MSHR defer conflicting peer grants until install; shared (set at
//     the same moment) selects S over E for clean installs.
//   - A refill that completes with an in-band error is reported to every
//     waiter and installs nothing.
//
// # The shared L2
//
// L2 (NewL2, L2Config) interposes one shared inclusive cache between
// the interconnect and the memories: it is the slave on what used to
// be the memories' interconnect ports — which become out-of-order, so
// hits overtake misses — and masters each memory over a private
// in-order link. That FIFO link replaces the L1's dedicated writeback
// channel: position orders an L2 writeback ahead of a dependent
// refill, so the deadlock the L1 split-channel design avoids cannot
// arise. Like the L1 it allocates MSHRs (secondary misses coalesce),
// serves hits in the popped cycle, and bypasses what it cannot cache.
//
// Inclusion is an enforced invariant: every line an L1 holds is
// present in the L2. Evicting an L2 victim calls
// Domain.BackInvalidate, which merges any Modified L1 copy into the
// victim's data (counted as DirtyMerges — no dirty word is lost),
// invalidates the L1 lines, and kills granted-but-uninstalled L1
// refills for the line (their MSHRs re-arm and re-miss, counted as
// KilledRefills). CheckInclusion asserts the invariant; FuzzL2Inclusion
// drives it every committed cycle.
//
// The L2's ways can be partitioned per master (L2Config.Partition):
// PartSWP pins static way masks (SWPMasks, or an equal split), PartUCP
// runs utility-based repartitioning — per-master UMON shadow tags
// (full L2 geometry, true LRU) count hits at each recency depth, and
// every UCPPeriod demand accesses a lookahead-greedy allocator
// reassigns ways to maximize marginal utility, halving the counters.
// Victim selection only evicts within the requester's allowed ways;
// migration is lazy (lines drift as they miss). The repartition
// schedule counts accesses, not cycles, so every scheduler mode
// repartitions at the same point.
//
// # Structure
//
// Both levels embed one engine (engine.go): the line store with its LRU
// clock, victim choice under a way mask, the MSHRs, and per memory
// channel the writeback queue, in-flight writebacks, forwarded bypasses
// and the pending bypass slot, plus one snapshot codec for all of it.
// The L1 runs one channel with a dedicated writeback port, chooses
// victims among all ways and refills exclusively on write misses; the
// L2 runs one channel per memory on its in-order links and chooses
// within the requester's partition. MESI states, the snoop hooks, grant
// and kill handling and the install state choice stay in the L1;
// partitioning and UMONs, back-invalidation on eviction, burst serve and
// write-allocated writebacks stay in the L2.
//
// # Storage
//
// The transaction path allocates nothing once a run has warmed up. Each
// level builds a pool of MSHRs (Config.MSHRs / L2Config.MSHRs entries)
// when it is made; the live ones stay listed in creation order — the
// order refills issue in — and a retired MSHR goes back to the pool.
// Every entry has room for as many waiters as its up port has credits
// (a waiter is a popped request still in service, so there are never
// more) and a line of words its refill passes downstream as the read
// burst's destination buffer, under the bus package's read-burst rule.
// Each channel keeps a free list of writeback entries: an entry's line
// copy and its word form are reused, the word form travelling as the
// write burst's payload, and the entry returns to the list when its
// acknowledgement arrives — every slave copies a write burst before
// completing it. Snapshots load into the same pool and free list.
//
// # Scheduling
//
// The cache is a sim.Sleeper: it sleeps exactly when it has no visible
// requests, completions or queued work, and every wake source is a port
// signal commit, so lockstep and event-driven runs are bit-identical.
// Caches attached to a Domain also have their state mutated by the
// interconnect's Tick (snoops), which the kernel's sequential tick loop
// orders by registration.
package cache
