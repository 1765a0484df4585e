package sim

// This file implements the event-driven side of the kernel: the Sleeper
// capability through which modules declare when they next need to run,
// and the idle-skip machinery that advances the clock in one jump across
// spans in which every module is provably inert.
//
// The scheduler is conservative by design. A skip happens only when
//
//   - every registered module implements Sleeper,
//   - every module reports a wake cycle strictly in the future (or
//     WakeNever), and
//   - the previous cycle committed no signal change and no host-written
//     signal is pending (the dirty-signal wakeup rule: any change
//     anywhere wakes everything).
//
// Under those conditions the cycles between "now" and the earliest wake
// point consist exclusively of pure-wait ticks: countdown decrements and
// per-cycle busy/stall counters. Skip(n) replays exactly those effects in
// O(1), so the jump is observably identical to lockstep — same cycle
// counts, same stats, same signal traces — while the host pays nothing
// per skipped cycle.

// WakeNever is returned from NextWake by a module that needs no further
// ticks until some signal it observes changes value (or, for a module
// that is finished forever, at all).
const WakeNever = ^uint64(0)

// Sleeper is the optional capability a Module implements to participate
// in idle-skip scheduling. Modules that do not implement it are assumed
// to need a tick every cycle, which disables skipping for the whole
// kernel (correct, just slow — the lockstep behavior).
//
// The contract binding NextWake, Skip and Tick together:
//
//   - NextWake(now) returns the earliest cycle ≥ now at which the module
//     must tick, under the assumption that no signal changes before
//     then. Returning now means "I am active"; returning WakeNever means
//     "only a signal change can give me work".
//   - Every tick the module would have received in [now, NextWake(now))
//     must be a pure-wait tick: its only effects are decrementing
//     internal countdowns and incrementing per-cycle counters.
//   - Skip(n) must reproduce the cumulative effect of n such pure-wait
//     ticks. The kernel guarantees n ≤ NextWake(now) − now for every
//     module (and calls Skip on all modules with the same n), then
//     resumes ticking, so Skip(n) followed by a Tick is equivalent to
//     n+1 lockstep ticks.
//
// The kernel re-queries NextWake at every skip opportunity, so the
// answer may depend freely on current module state — including state
// mutated by host code between steps (e.g. a DMA descriptor enqueued
// from a test).
type Sleeper interface {
	Module
	NextWake(now uint64) uint64
	Skip(n uint64)
}

// SchedStats summarizes how the kernel advanced the clock.
type SchedStats struct {
	// Stepped counts cycles simulated by ticking every module.
	Stepped uint64
	// Skipped counts cycles the event-driven scheduler jumped over.
	Skipped uint64
	// Spans counts contiguous skipped spans (each a single clock jump).
	Spans uint64
	// Lockstep reports whether the kernel is pinned to lockstep stepping.
	Lockstep bool
}

// Sched returns the kernel's scheduling counters.
func (k *Kernel) Sched() SchedStats {
	return SchedStats{
		Stepped:  k.stepped,
		Skipped:  k.skipped,
		Spans:    k.skipSpans,
		Lockstep: k.lockstep,
	}
}

// SetLockstep pins the kernel to lockstep stepping (every module ticked
// every cycle) when on is true. The default is event-driven: the kernel
// skips idle spans whenever every module sleeps. The two modes are
// observably identical — lockstep exists as an escape hatch and as the
// reference side of differential tests.
func (k *Kernel) SetLockstep(on bool) { k.lockstep = on }

// Lockstep reports whether the kernel is pinned to lockstep stepping.
func (k *Kernel) Lockstep() bool { return k.lockstep }

// sleeperSet returns the cached Sleeper view of the module list, and
// whether every module participates. Invalidated by Add.
func (k *Kernel) sleeperSet() ([]Sleeper, bool) {
	if !k.sleepersValid {
		k.sleepersValid = true
		k.allSleepers = true
		k.sleepers = k.sleepers[:0]
		for _, m := range k.modules {
			s, ok := m.(Sleeper)
			if !ok {
				k.allSleepers = false
				break
			}
			k.sleepers = append(k.sleepers, s)
		}
	}
	return k.sleepers, k.allSleepers
}

// skipTo attempts one idle jump of at most budget cycles. It returns the
// number of cycles skipped (0 when any module is awake or opts out).
// Callers have already established the dirty-signal preconditions.
func (k *Kernel) skipTo(budget uint64) uint64 {
	sleepers, ok := k.sleeperSet()
	if !ok {
		return 0
	}
	now := k.cycle
	// Fast bail-out: an awake module tends to stay awake (a CPU retiring
	// an instruction per cycle keeps the kernel stepping for long runs),
	// so probe the module that defeated the previous skip attempt before
	// scanning everyone. NextWake is side-effect free, so the hint module
	// being queried again in the full scan is harmless.
	if h := k.awakeHint; h < len(sleepers) {
		if w := sleepers[h].NextWake(now); w <= now {
			return 0
		}
	}
	wake := uint64(WakeNever)
	for i, s := range sleepers {
		w := s.NextWake(now)
		if w <= now {
			k.awakeHint = i
			return 0
		}
		if w < wake {
			wake = w
		}
	}
	n := budget
	if wake != WakeNever && wake-now < n {
		n = wake - now
	}
	for _, s := range sleepers {
		s.Skip(n)
	}
	k.cycle += n
	k.skipped += n
	k.skipSpans++
	return n
}

// advance simulates between 1 and budget cycles: an optional idle jump
// followed by at most one real step. It returns the number of cycles
// advanced and whether the final cycle was actually stepped (false when
// the whole budget was consumed by the jump). This is the single place
// run-loop scheduling lives; Run, RunUntil and RunUntilQuiescent are
// thin loops over it.
func (k *Kernel) advance(budget uint64) (adv uint64, stepped bool, err error) {
	if k.fault != nil {
		return 0, false, k.fault
	}
	if !k.lockstep && k.started && !k.anyChange && len(k.dirty) == 0 {
		if n := k.skipTo(budget); n > 0 {
			if n == budget {
				return n, false, nil
			}
			return n + 1, true, k.Step()
		}
	}
	return 1, true, k.Step()
}
