package sim

import (
	"sort"
	"time"
)

// ModuleCost is one row of a profiling report: how much host time one
// module's Tick consumed.
type ModuleCost struct {
	Name  string
	Ticks uint64
	Time  time.Duration
}

// EnableProfiling switches the kernel into profiled stepping: every
// module's Tick is timed individually. Call before the first Step.
// Profiling costs two clock reads per module per cycle, so simulation
// runs noticeably slower; it exists to *explain* speed (experiment E1's
// per-module degradation), not to measure absolute throughput.
//
// Under the event-driven scheduler a module's Ticks counter reflects the
// cycles it was actually ticked; skipped spans appear in Kernel.Sched()
// (Stepped + Skipped always equals Cycle()). Comparing a module's Ticks
// against Sched().Stepped shows how often it was awake; comparing
// Sched().Skipped against Cycle() shows how much of the run the
// idle-skip machinery absorbed.
func (k *Kernel) EnableProfiling() {
	if k.profTime != nil {
		return
	}
	k.profTime = make([]time.Duration, len(k.modules))
	k.profTicks = make([]uint64, len(k.modules))
}

// profiledTick runs one cycle with per-module timing. Kept in sync with
// the fast path in Step.
func (k *Kernel) profiledTick(c uint64) {
	for i, m := range k.modules {
		start := time.Now()
		m.Tick(c)
		k.profTime[i] += time.Since(start)
		k.profTicks[i]++
	}
}

// ProfileReport returns per-module host-time totals, most expensive
// first. Empty when profiling was never enabled.
func (k *Kernel) ProfileReport() []ModuleCost {
	if k.profTime == nil {
		return nil
	}
	out := make([]ModuleCost, len(k.modules))
	for i, m := range k.modules {
		out[i] = ModuleCost{Name: m.Name(), Ticks: k.profTicks[i], Time: k.profTime[i]}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Time > out[b].Time })
	return out
}
