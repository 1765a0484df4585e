// Package alloc is the pluggable allocation-policy engine behind the
// repo's two dynamic-memory consumers: the detailed in-simulation
// allocator (internal/heapsim, metadata lives in simulated memory and
// every word access is charged cycles) and the host-backed wrapper's
// virtual-address placement (internal/core, opt-in).
//
// A Policy is a pure state machine over an abstract word-addressed
// arena (the Mem interface). All allocator metadata — free-list heads,
// block headers, links, footers — lives *inside* the arena and is
// touched exclusively through Mem.Rd32/Wr32, which the consumer meters:
// heapsim counts each call as one simulated 32-bit memory access and
// multiplies by its WordLatency, so malloc/free cost emerges from the
// data-structure traffic exactly as in the pre-extraction model.
// Peek32 is the unmetered inspection path (invariant checks,
// fragmentation gauges, zero-fill bounds the manager already knows).
//
// Four policies are provided:
//
//   - FirstFit: K&R-style address-ordered free list, first block that
//     fits. Byte- and access-identical to the historical heapsim
//     allocator (proven by the golden differential test there).
//   - BestFit: same layout, but the full list is walked and the
//     smallest fitting block wins — lower fragmentation, every alloc
//     pays a full walk.
//   - Buddy: binary buddy system with per-order free lists. Alloc and
//     free cost O(log) splits/merges, near-constant in fragmentation;
//     internal fragmentation up to 2x from power-of-two rounding.
//   - Segregated: TLSF-style segregated free lists over size classes
//     with doubly-linked blocks and boundary-tag coalescing —
//     near-constant alloc/free independent of free-block count.
//
// # Selection and determinism
//
// Kind names a policy the way the -alloc command-line flags spell it
// (UnmarshalText parses them); the zero value Default preserves each
// consumer's historical behavior bit-for-bit, so pre-policy runs stay
// reproducible. Policies are deterministic: the same op sequence
// against the same arena produces the same placements, which is what
// lets experiment E9 and the churn workloads (internal/workload)
// compare policies on identical scripts, and what lets snapshots
// (internal/snapshot) capture allocator state by capturing the arena
// bytes alone — no Go-side policy state exists to save.
//
// # Metering invariant
//
// Because metadata lives in the arena, simulated cost is not modeled,
// it is *incurred*: a policy with longer free-list walks performs more
// Rd32 calls, and the consumer's metering turns exactly those calls
// into simulated cycles. The fuzz and differential tests hold every
// policy to the shared invariants (no overlap, alignment, exhaustive
// free coalescing where the layout promises it).
package alloc
