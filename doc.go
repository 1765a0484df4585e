// Package repro is a from-scratch Go reproduction of "Fast Dynamic
// Memory Integration in Co-Simulation Frameworks for Multiprocessor
// System on-Chip" (O. Villa, P. Schaumont, I. Verbauwhede, M. Monchiero,
// G. Palermo — DATE 2005).
//
// The repository contains the paper's contribution — a cycle-true
// dynamic shared memory wrapper that maps simulated allocations onto the
// host's memory management (internal/core) — together with every
// substrate the original system relied on, rebuilt in pure Go:
// a cycle-based simulation kernel (internal/sim), an ARM-flavoured
// instruction-set simulator with assembler (internal/isa, internal/iss),
// a shared-bus/crossbar interconnect (internal/bus), baseline memory
// models (internal/mem, internal/heapsim), the software API layer
// (internal/smapi), and a GSM 06.10 full-rate codec workload
// (internal/gsm).
//
// The kernel goes beyond the original's lockstep evaluation: it
// schedules event-driven by default, jumping the clock across spans in
// which every module sleeps (memory delay countdowns, bus transfers,
// stalled CPUs) while remaining bit-identical to lockstep in cycle
// counts, stats and waveforms — see internal/sim's package
// documentation for the Sleeper capability and the differential tests
// in internal/experiments for the equivalence proof. The EV experiment
// quantifies the win on idle-heavy configurations (~2x simulation
// speed at ~91% skipped cycles).
//
// See README.md for a tour and the system inventory, and EXPERIMENTS.md
// for the experiment index and paper-versus-measured results.
// cmd/experiments regenerates every experiment's table; `go run
// ./benchmark` is the one source of speed numbers (BENCHMARK.json).
package repro
