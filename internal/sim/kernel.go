package sim

import (
	"context"
	"errors"
	"fmt"
	"time"
)

// Module is a synchronous hardware block. Tick is called exactly once per
// simulated clock cycle; implementations read current signal values and
// write next values. Tick must not retain references into the kernel's
// internal state across cycles other than through signals.
type Module interface {
	// Name identifies the module in diagnostics, stats and VCD scopes.
	Name() string
	// Tick advances the module by one clock cycle. cycle is the index of
	// the cycle being simulated, starting at 0.
	Tick(cycle uint64)
}

// ErrLimit is returned by the RunUntil family when the cycle budget is
// exhausted before the stop condition holds.
var ErrLimit = errors.New("sim: cycle limit reached")

// Kernel owns the clock, the modules and the signals of one simulated
// system. The zero value is not usable; construct with New.
//
// The kernel runs event-driven by default: whenever every module is
// asleep (see Sleeper in sched.go) and no signal changed, the run loops
// advance the clock in one jump to the earliest wake point instead of
// ticking idle modules cycle by cycle. SetLockstep(true) restores
// unconditional per-cycle ticking; the two modes are observably
// identical.
type Kernel struct {
	modules []Module
	dirty   []committer
	cycle   uint64

	// anyChange records whether the last committed cycle changed at least
	// one signal value; used by RunUntilQuiescent and as the wakeup rule
	// of the event-driven scheduler.
	anyChange bool

	fault error

	afterCycle []func(cycle uint64)

	// scheduling state (see sched.go).
	lockstep      bool
	started       bool // at least one cycle stepped; skips allowed after
	stepped       uint64
	skipped       uint64
	skipSpans     uint64
	sleepers      []Sleeper
	sleepersValid bool
	allSleepers   bool
	awakeHint     int

	// profiling state; nil unless EnableProfiling was called.
	profTime  []time.Duration
	profTicks []uint64
}

// New returns an empty kernel at cycle 0.
func New() *Kernel {
	return &Kernel{}
}

// Add registers a module. Modules tick in registration order, but because
// signal reads observe pre-cycle state only, the order is unobservable to
// the simulated hardware.
func (k *Kernel) Add(m Module) {
	k.modules = append(k.modules, m)
	k.sleepersValid = false
}

// Modules returns the registered modules in registration order.
func (k *Kernel) Modules() []Module { return k.modules }

// AfterCycle registers fn to run after each stepped cycle's signal
// commit. Hooks are instrumentation: they must not write signals. In
// event-driven mode hooks do not fire for skipped cycles — by
// construction nothing observable happens during those, but hooks whose
// output depends on being called every cycle (rather than on value
// changes) should pin the kernel to lockstep.
func (k *Kernel) AfterCycle(fn func(cycle uint64)) {
	k.afterCycle = append(k.afterCycle, fn)
}

// Fault aborts the simulation at the end of the current cycle with err.
// The first fault wins: modules tick in registration order, so when
// several fault in one cycle the earliest registered is reported.
// Modules use this for conditions that have no hardware representation
// (internal invariant violations), not for modelled error responses.
func (k *Kernel) Fault(err error) {
	if err != nil && k.fault == nil {
		k.fault = fmt.Errorf("cycle %d: %w", k.cycle, err)
	}
}

// Err returns the pending fault, if any.
func (k *Kernel) Err() error { return k.fault }

// Cycle returns the number of fully simulated cycles.
func (k *Kernel) Cycle() uint64 { return k.cycle }

// Step simulates exactly one clock cycle: it ticks every module in
// registration order, then commits the signals written during the
// cycle (and any host writes pending from before it). It never skips —
// single-stepping is the finest-grained control the kernel offers; idle
// jumps happen only inside the run loops. It returns the first module
// fault raised during the cycle, if any.
func (k *Kernel) Step() error {
	if k.fault != nil {
		return k.fault
	}
	c := k.cycle
	if k.profTime != nil {
		k.profiledTick(c)
	} else {
		for _, m := range k.modules {
			m.Tick(c)
		}
	}
	changed := false
	for _, s := range k.dirty {
		if s.commit() {
			changed = true
		}
	}
	k.dirty = k.dirty[:0]
	k.anyChange = changed
	k.cycle++
	k.stepped++
	k.started = true
	for _, fn := range k.afterCycle {
		fn(c)
	}
	return k.fault
}

// Run simulates n cycles or stops early on a fault. In event-driven mode
// idle spans inside the n cycles are jumped over; the kernel still lands
// exactly n cycles later.
func (k *Kernel) Run(n uint64) error {
	for done := uint64(0); done < n; {
		adv, _, err := k.advance(n - done)
		done += adv
		if err != nil {
			return err
		}
	}
	return nil
}

// RunUntil advances the kernel until pred returns true, a fault occurs,
// or limit cycles have elapsed, in which case it returns ErrLimit. It
// returns the number of simulated cycles advanced by this call (skipped
// cycles included).
//
// pred is evaluated after every stepped cycle and after every idle jump.
// It must depend only on state that changes when modules tick (module
// flags like "halted", signal values); a pure-wait counter crossing a
// threshold mid-jump is observed only at the end of the jump.
func (k *Kernel) RunUntil(pred func() bool, limit uint64) (uint64, error) {
	for done := uint64(0); done < limit; {
		adv, _, err := k.advance(limit - done)
		done += adv
		if err != nil {
			return done, err
		}
		if pred() {
			return done, nil
		}
	}
	return limit, ErrLimit
}

// ctxChunk is the cycle granularity at which a context-aware run
// checks for cancellation. It is a fixed constant, not a knob: the
// chunk boundary influences how idle spans are split (and thereby the
// kernel's informational span counters, which travel in snapshots), so
// keeping it constant keeps context-aware runs deterministic. Cycle
// counts, module stats and all observable state are chunk-invariant —
// the RunUntil predicate contract guarantees a conforming predicate
// cannot flip mid-span.
const ctxChunk = 65536

// RunCtx is Run with cooperative cancellation: it advances in
// ctxChunk-cycle slices and returns ctx.Err() at the first boundary
// after cancellation. A nil ctx (or one that can never be cancelled)
// degrades to the plain uninterruptible call.
func (k *Kernel) RunCtx(ctx context.Context, n uint64) error {
	if ctx == nil || ctx.Done() == nil {
		return k.Run(n)
	}
	for done := uint64(0); done < n; {
		if err := ctx.Err(); err != nil {
			return err
		}
		budget := n - done
		if budget > ctxChunk {
			budget = ctxChunk
		}
		if err := k.Run(budget); err != nil {
			return err
		}
		done += budget
	}
	return nil
}

// RunUntilCtx is RunUntil with the same cooperative cancellation.
func (k *Kernel) RunUntilCtx(ctx context.Context, pred func() bool, limit uint64) (uint64, error) {
	if ctx == nil || ctx.Done() == nil {
		return k.RunUntil(pred, limit)
	}
	var done uint64
	for done < limit {
		if err := ctx.Err(); err != nil {
			return done, err
		}
		budget := limit - done
		if budget > ctxChunk {
			budget = ctxChunk
		}
		adv, err := k.RunUntil(pred, budget)
		done += adv
		if err == nil {
			return done, nil
		}
		if err != ErrLimit {
			return done, err
		}
	}
	return limit, ErrLimit
}

// RunUntilQuiescent advances the kernel until idle consecutive cycles
// commit no signal change, or limit cycles elapse (returning ErrLimit).
// A system whose signals have stopped changing has reached a fixed
// point: no module can observe anything new. Useful for draining
// pipelines in tests. Skipped cycles count as quiet: the scheduler only
// skips when no signal changed, so both modes stop at the same cycle.
func (k *Kernel) RunUntilQuiescent(idle, limit uint64) (uint64, error) {
	quiet := uint64(0)
	for done := uint64(0); done < limit; {
		// Cap the advance so an idle jump cannot overshoot the cycle at
		// which lockstep would have declared quiescence.
		budget := limit - done
		need := uint64(1)
		if idle > quiet {
			need = idle - quiet
		}
		if need < budget {
			budget = need
		}
		adv, steppedCycle, err := k.advance(budget)
		done += adv
		if err != nil {
			return done, err
		}
		if steppedCycle && k.anyChange {
			quiet = 0
		} else {
			quiet += adv
			if quiet >= idle {
				return done, nil
			}
		}
	}
	return limit, ErrLimit
}
