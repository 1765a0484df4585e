// Package workload generates armlet assembly programs for the
// ISS-based experiments — most importantly the paper's headline
// configuration: four ISSs running a GSM workload against dynamic
// shared memories.
//
// The full-rate codec cannot realistically be hand-written in assembly,
// and does not need to be: what the experiment measures is
// co-simulation speed under a workload with the GSM codec's *shape* —
// per 160-sample frame, a dynamic buffer allocation, a burst write of
// the samples, an autocorrelation-style multiply-accumulate kernel (the
// LPC hot loop), a burst read-back and a free. GSMKernelSource emits
// exactly that; the bit-exact codec lives in internal/gsm and runs on
// native PEs.
//
// # Generators
//
// GSMKernelSource is the E1 workload described above, parameterized by
// frame count, target memory module and data seed; every program
// self-checks (burst read-back must match what was written) and exits 0
// on success, 0xDEAD on any unexpected shared-memory status — the
// golden-output convention the differential tests rely on.
//
// TrafficKernelSource emits a scalar read/write integrity loop used by
// the accuracy experiments: allocate, scatter scalar writes, read back
// and verify, free, repeat.
//
// The churn generator (Churn, ChurnOp) produces seeded alloc/free
// scripts with controllable size mixes, lifetimes and adversarial
// interleavings for experiment E9. Ops reference
// abstract slots, so one script replays against every allocation policy
// in internal/alloc regardless of the addresses each policy returns.
//
// All generators are deterministic in their seeds: identical
// parameters produce byte-identical assembly, which keeps every
// downstream experiment reproducible and lets the scheduler
// differential matrix compare runs across kernel modes.
package workload
