// Package sim implements the cycle-true simulation kernel underlying the
// co-simulation framework.
//
// The kernel plays the role GEZEL / SystemC play in the original DATE'05
// system: it owns a single synchronous clock domain, a set of hardware
// modules, and the signals connecting them. Simulation is strictly
// two-phase:
//
//   - During a cycle every registered Module has its Tick method invoked
//     exactly once. Modules read the *current* value of signals and write
//     *next* values.
//   - After all modules have ticked, the kernel commits every written
//     signal, making the new values visible to the following cycle.
//
// Because reads always observe the pre-cycle state, the order in which
// modules tick is unobservable: simulation is deterministic and race-free
// by construction, mirroring the registered (cycle-by-cycle) communication
// the paper prescribes for the memory-wrapper handshake.
//
// # Event-driven scheduling
//
// Ticking every module every cycle is faithful but wasteful: an MPSoC
// spends most of its simulated life counting down memory and bus delays,
// and a lockstep kernel charges the host for each of those inert cycles.
// The run loops (Run, RunUntil, RunUntilQuiescent) therefore schedule
// event-driven by default, built on two rules:
//
//   - Wake queue: modules implementing the optional Sleeper capability
//     report, via NextWake, the earliest cycle at which they can do work
//     absent signal changes — a wrapper mid-delay reports the cycle its
//     countdown expires, a stalled CPU or an idle bus reports WakeNever.
//     When every module sleeps and nothing changed, the kernel jumps the
//     clock straight to the earliest wake point, calling Skip(n) on each
//     module so pure-wait effects (busy/stall counters, countdowns) are
//     accounted in O(1).
//   - Dirty-signal wakeup: a skip is attempted only when the previous
//     cycle committed no signal change and no host-written signal is
//     pending. Any change anywhere wakes every module — conservative,
//     simple, and sufficient, because modules communicate exclusively
//     through signals.
//
// The two modes are observably identical — same cycle counts, same
// stats, same VCD traces, same software results — which the differential
// tests in internal/experiments assert config by config. Use
// Kernel.SetLockstep(true) to pin a kernel to lockstep (the reference
// mode for differential testing, and the right choice for AfterCycle
// hooks that must run every cycle). A single module that does not
// implement Sleeper silently degrades the whole kernel to lockstep
// behavior; Kernel.Sched reports how many cycles were stepped versus
// skipped.
//
// # Why the kernel is sequential
//
// Step ticks every module in registration order on one goroutine and
// then commits the dirty list, as a SystemC-style kernel evaluates its
// processes one after another before the update phase. An earlier
// version could shard the tick phase across host threads. A probe
// counted, before each stepped cycle, the awake modules that could tick
// concurrently and cost at least half an ISS tick: two or more were
// awake on 22.7% of iss_gsm's stepped cycles, 0.5% of coherent_l1's
// and none of dynmem_churn's, dynmem_rw's or l2_dram's (their PEs and
// snooped caches shared one serial group). With two workers on a
// 2-vCPU host iss_gsm ran 19% faster and coherent_l1 71% slower, and
// every benchmarked run used one worker, so the sharded engine was
// deleted. Speed comes from idle-skip and from the modules' own host
// paths, not from host threads.
//
// The kernel also provides single-cycle control (Step, which never
// skips), per-cycle hooks for instrumentation, a fault channel through
// which any module can abort simulation with an error, and
// value-change-dump (VCD) tracing for waveform inspection.
package sim
