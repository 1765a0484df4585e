// Package experiments implements the measurement harness behind every
// table and figure of EXPERIMENTS.md. Each exported Ex function builds
// fresh systems, runs seeded workloads, and returns formatted tables;
// cmd/experiments prints them and the root benchmarks reuse the
// runners.
//
// The paper's single quantitative result — a 20% simulation-speed
// degradation going from one to four wrapper memories under a 4-ISS GSM
// workload — is experiment E1. The remaining experiments measure the
// paper's qualitative claims (low overhead, accuracy, large dynamic
// data, pointer arithmetic, coherence) and the ablations DESIGN.md
// commits to. See DESIGN.md §5 for the experiment index.
//
// # Options and modes
//
// Options tunes a whole suite invocation (Quick shrinks workloads for
// smoke runs; the remaining fields pin scheduler, allocator, port and
// cache configuration for every measured system). Mode is the
// per-run scheduler selection the differential tests sweep: lockstep
// versus event-driven, sequential versus sharded-parallel ticking, and
// the ISS fast paths — axes that are observably identical by
// construction and proven so by the scheduler differential matrix in
// this package's tests.
//
// # Warm-boot sweeps
//
// WB is the checkpoint/restore experiment: it runs the shared GSM
// warm-up phase once, snapshots (config.System.Snapshot), fans the
// scheduler variants out from that one snapshot via
// config.RestoreSystem. Every warm leg must reproduce the cold leg's
// exact cycle count — restore correctness is asserted inside the
// measurement. (Answering a repeated leg without simulating belongs to
// internal/service's result store.) The snapshot differential tests
// (TestSchedDiffSnapshot and friends) hold the underlying machinery to
// bit-identical resume across the scheduler matrix, including VCD byte
// identity across the checkpoint boundary.
package experiments
