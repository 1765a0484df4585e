// Package dma implements a descriptor-driven copy engine: a hardware
// device (not an ISS) that masters the interconnect and moves data
// between dynamic shared memories with burst transactions.
//
// The paper notes that "different hardware devices that might be
// connected on the system can access the memories using low level
// communication"; this engine is that path exercised. It speaks the
// same bus protocol as the ISSs — the wrapper cannot tell the
// difference — and demonstrates memory-to-memory traffic that never
// touches a CPU, including across *different* wrapper instances (the
// virtual pointers of source and destination belong to separate virtual
// address spaces; only the sm_addr distinguishes them).
//
// # Pipelining
//
// One engine serves every port depth. Each burst-sized chunk of a
// descriptor is read, buffered, written and retired; a window bounds how
// many chunks may be in flight or buffered at once, and each tick drains
// the port's completions and then issues at most one write and one read.
// The window is the port's outstanding depth: at depth 1 reads and
// writes strictly alternate (a completion and the next issue share a
// tick, cycle-identical to the pre-port engine); at depth ≥ 2 burst
// reads run ahead of burst writes, keeping a read and a write in flight
// concurrently (and, at higher depths, several reads buffered), so the
// source and destination memories overlap their work. Descriptors whose
// source and destination ranges overlap in one memory run at window 1
// whatever the depth — read-ahead would change what the later chunks
// observe. A zero-element descriptor retires in the tick it is popped,
// and a failed one in the tick its last outstanding transaction
// completes, at every depth.
//
// # Programming model
//
// Software (or a host-side test) enqueues Descriptors; the engine works
// the queue in order and publishes a Status per finished descriptor
// (first in-band error, elements moved, completion cycle). Idle reports
// the fully drained state, which is the natural completion predicate
// for sim.Kernel.RunUntil.
//
// The engine is snapshot.Stateful: its WalkState carries the queue,
// in-flight chunk state and statistics into a system snapshot, so a
// checkpoint taken mid-copy resumes bit-identically (see
// internal/snapshot and docs/SNAPSHOT.md). Engines attached through
// config.System.AddDMA are re-created automatically on restore; engines
// wired manually with New are invisible to the snapshot machinery.
package dma
