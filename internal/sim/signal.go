package sim

import "fmt"

// committer is the kernel-facing side of a signal: commit publishes the
// pending next value at the end of a cycle and reports whether the visible
// value changed.
type committer interface {
	commit() (changed bool)
}

// Signal is a named, clocked wire carrying values of type T between
// modules. Reads (Get) always return the value committed at the end of the
// previous cycle; writes (Set) become visible at the start of the next
// cycle. A signal holds its last committed value until overwritten, so it
// behaves like a register driven by whichever module writes it.
//
// A signal is a single-driver wire: at most one module writes it (the
// hardware "one driver per net" rule; bus links have exactly one master
// and one slave side signal). Host code may Set signals between steps.
type Signal[T comparable] struct {
	name  string
	cur   T
	next  T
	dirty bool
	k     *Kernel
}

// NewSignal creates a signal registered with kernel k. The initial value is
// visible from cycle zero onward.
func NewSignal[T comparable](k *Kernel, name string, init T) *Signal[T] {
	return &Signal[T]{name: name, cur: init, next: init, k: k}
}

// Name returns the signal's diagnostic name.
func (s *Signal[T]) Name() string { return s.name }

// Get returns the value committed at the end of the previous cycle.
func (s *Signal[T]) Get() T { return s.cur }

// Set schedules v to become visible at the start of the next cycle.
// Multiple Sets within one cycle are allowed; the last one wins, which
// models a multiplexer in front of a register. Setting the value the
// signal already holds is a no-op for change detection but still legal.
func (s *Signal[T]) Set(v T) {
	s.next = v
	if !s.dirty {
		s.dirty = true
		// The commit phase receives exactly the dirtied signals:
		// O(dirty), not O(all signals).
		s.k.dirty = append(s.k.dirty, s)
	}
}

// Pending reports the value that will be committed at the end of this
// cycle. Intended for monitors and tests; modules should use Get.
func (s *Signal[T]) Pending() T {
	if s.dirty {
		return s.next
	}
	return s.cur
}

func (s *Signal[T]) commit() bool {
	if !s.dirty {
		return false
	}
	s.dirty = false
	if s.next == s.cur {
		return false
	}
	s.cur = s.next
	return true
}

// String implements fmt.Stringer for diagnostics.
func (s *Signal[T]) String() string {
	return fmt.Sprintf("%s=%v", s.name, s.cur)
}
