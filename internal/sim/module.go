package sim

// FuncModule adapts a closure into a Module. Useful for test fixtures,
// stimulus generators and small glue blocks that do not warrant a named
// type.
//
// FuncModule always satisfies Sleeper so that it never disables the
// kernel's idle-skip for other modules: with no Wake hook it simply
// reports itself permanently active (NextWake = now), which is the
// lockstep-equivalent answer for an arbitrary closure. Supplying Wake
// (and, when per-cycle counters must stay exact, OnSkip) lets a fixture
// participate in skipping.
type FuncModule struct {
	// Nm is the module name reported to diagnostics.
	Nm string
	// Fn is invoked once per cycle.
	Fn func(cycle uint64)
	// Wake, when non-nil, implements the Sleeper contract: it returns
	// the earliest cycle ≥ now at which Fn must run again, assuming no
	// signal changes in between (WakeNever for "signal change only").
	Wake func(now uint64) uint64
	// OnSkip, when non-nil, is informed of n skipped pure-wait cycles so
	// the closure can account for them (see Sleeper.Skip).
	OnSkip func(n uint64)
}

// Name implements Module.
func (m *FuncModule) Name() string { return m.Nm }

// Tick implements Module.
func (m *FuncModule) Tick(cycle uint64) { m.Fn(cycle) }

// NextWake implements Sleeper.
func (m *FuncModule) NextWake(now uint64) uint64 {
	if m.Wake != nil {
		return m.Wake(now)
	}
	return now
}

// Skip implements Sleeper.
func (m *FuncModule) Skip(n uint64) {
	if m.OnSkip != nil {
		m.OnSkip(n)
	}
}
