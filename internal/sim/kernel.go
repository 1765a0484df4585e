package sim

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
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
	signals []committer
	dirty   []committer
	cycle   uint64

	// anyChange records whether the last committed cycle changed at least
	// one signal value; used by RunUntilQuiescent and as the wakeup rule
	// of the event-driven scheduler.
	anyChange bool

	// fault is guarded by faultMu only while a parallel tick phase is in
	// flight (modules may Fault concurrently); everywhere else the kernel
	// is single-threaded and reads it directly.
	fault   error
	faultMu sync.Mutex

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

	// parallel execution state (see parallel.go). workers is the
	// configured shard budget (0 = never configured = sequential);
	// shards is the active partition (nil = sequential tick path);
	// parallelPhase is true while worker goroutines own the tick phase,
	// rerouting Signal.Set to the concurrent dirty list: parDirty is a
	// slot array (one slot per signal suffices, each signal enlists at
	// most once per cycle) whose cursor parDirtyN concurrent drivers
	// claim slots from.
	workers       int
	shards        []shardInfo
	shardsValid   bool
	pool          *tickPool
	parallelPhase bool
	parDirty      []committer
	parDirtyN     atomic.Int64
	awakeBuf      []int // scratch: awake shard ids, reused across cycles
	slotBuf       []int // scratch: worker slots for a subset release

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
	k.shardsValid = false
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
// The first fault wins. Modules use this for conditions that have no
// hardware representation (internal invariant violations), not for
// modelled error responses. Safe to call from concurrently ticking
// modules; when several modules fault in the same parallel cycle, which
// one is reported is unspecified (the faulting cycle is still exact —
// sequential runs keep registration-order first-wins).
func (k *Kernel) Fault(err error) {
	if err == nil {
		return
	}
	k.faultMu.Lock()
	if k.fault == nil {
		k.fault = fmt.Errorf("cycle %d: %w", k.cycle, err)
	}
	k.faultMu.Unlock()
}

// Err returns the pending fault, if any.
func (k *Kernel) Err() error { return k.fault }

// Cycle returns the number of fully simulated cycles.
func (k *Kernel) Cycle() uint64 { return k.cycle }

func (k *Kernel) addSignal(s committer) int {
	k.signals = append(k.signals, s)
	return len(k.signals) - 1
}

func (k *Kernel) markDirty(s committer) {
	if k.parallelPhase {
		k.parDirty[k.parDirtyN.Add(1)-1] = s
		return
	}
	k.dirty = append(k.dirty, s)
}

// Step simulates exactly one clock cycle, ticking every module. It never
// skips — single-stepping is the finest-grained control the kernel
// offers; idle jumps happen only inside the run loops. It returns the
// first module fault raised during the cycle, if any.
func (k *Kernel) Step() error {
	if k.fault != nil {
		return k.fault
	}
	c := k.cycle
	par := false
	switch {
	case k.profTime != nil:
		// Profiling times modules individually, which only makes sense
		// sequentially; it takes precedence over parallel ticking.
		k.profiledTick(c)
	default:
		if !k.shardsValid {
			k.reshard()
		}
		if k.shards != nil {
			// parallelTick reports false when its fast path ticked the
			// cycle inline on this goroutine — then the sequential
			// dirty list already holds every write.
			par = k.parallelTick(c)
		} else {
			for _, m := range k.modules {
				m.Tick(c)
			}
		}
	}
	changed := false
	if par {
		// Merge the concurrent and sequential dirty lists — host writes
		// pending from before the step live on the sequential one — and
		// commit in registration order: O(dirty), deterministic.
		changed = k.commitMerged()
	} else {
		for _, s := range k.dirty {
			if s.commit() {
				changed = true
			}
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
