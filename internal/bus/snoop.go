package bus

// Snooper is the interconnect's cache-coherence hook: a coherence domain
// (see internal/cache) that observes and gates address phases. The
// interconnect consults it twice per transaction:
//
//   - CanProceed, while collecting arbitration candidates. Returning
//     false defers the grant — the request stays at the head of its
//     master port's queue and competes again on a later cycle. The
//     domain uses the deferral to resolve dirty peer lines first (it
//     flags the owning cache, which writes the line back through its own
//     port; once memory is clean the request proceeds and reads fresh
//     data — the classic snoop-hit-dirty retry protocol).
//
//   - OnGrant, immediately after the winning request is popped for its
//     address phase. This is the broadcast peers react to: they
//     invalidate on writes and exclusive refills, downgrade E→S on
//     reads, and the requester's own in-flight miss learns whether the
//     line is shared. tag is the granted transaction's tag on the
//     master port it was popped from, letting the domain attribute the
//     grant to the exact outstanding request (a bare address can
//     collide between a pass-through burst and a refill).
//
// master is the interconnect's master-port index of the issuer; the
// domain uses it to skip self-snooping. Both calls happen inside the
// interconnect's Tick, which therefore mutates the attached caches'
// state directly.
type Snooper interface {
	CanProceed(req Request, master int) bool
	OnGrant(req Request, master int, tag Tag)
}
