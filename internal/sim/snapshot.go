package sim

import (
	"fmt"

	"repro/internal/snapshot"
)

// Restore overwrites the signal's committed value in place: current
// and next both become v and the signal is clean. It exists for
// snapshot restore, which rebuilds committed state between cycles;
// calling it on a dirty signal would silently discard a pending write,
// so that is a programming error.
func (s *Signal[T]) Restore(v T) {
	if s.dirty {
		panic(fmt.Sprintf("sim: Restore of dirty signal %q", s.name))
	}
	s.cur = v
	s.next = v
}

// Quiescent reports whether the kernel sits at a cycle boundary with
// no uncommitted signal writes. Snapshots may only be taken (and
// restored into) a quiescent kernel: mid-phase, signal next-values and
// the dirty list hold state the snapshot format deliberately does not
// represent.
func (k *Kernel) Quiescent() bool { return len(k.dirty) == 0 }

// WalkState walks the kernel's scheduling state: the clock and the
// flags the event-driven scheduler consults when deciding whether an
// idle skip is legal (started, anyChange), plus the cumulative scheduler
// counters so SchedStats survive a restore. The awake-probe hint is a
// behavior-neutral cache, so it does not travel.
func (k *Kernel) WalkState(c *snapshot.Codec) error {
	if !k.Quiescent() {
		return fmt.Errorf("kernel has %d uncommitted signals", len(k.dirty))
	}
	c.U64(&k.cycle)
	c.Bool(&k.anyChange)
	c.Bool(&k.started)
	c.U64(&k.stepped)
	c.U64(&k.skipped)
	c.U64(&k.skipSpans)
	if c.Loading() {
		k.awakeHint = 0
	}
	return c.Err()
}
