// Package experiments implements the measurement harness behind every
// table and figure of EXPERIMENTS.md. Each exported Ex function builds
// fresh systems, runs seeded workloads, and returns formatted tables;
// cmd/experiments prints them and the repo benchmark (./benchmark)
// reuses the runners.
//
// The paper's single quantitative result — a 20% simulation-speed
// degradation going from one to four wrapper memories under a 4-ISS GSM
// workload — is experiment E1. The remaining experiments measure the
// paper's qualitative claims (low overhead, accuracy, large dynamic
// data, pointer arithmetic, coherence) and the ablations README.md
// describes. See EXPERIMENTS.md for the experiment index.
//
// # One description, one run path
//
// A measured system is described once, by config.SystemConfig. Options
// carries the base description of a suite invocation (Options.Base —
// filled from Go literals by tests and from the platform flags of
// config.SystemConfig.BindFlags by cmd/experiments); each experiment
// copies it and sets the axes it sizes or sweeps. LegSpec is the JSON
// face of the same description for the service. ISS software comes
// from workload.ISSImages. Everything then goes through the one
// function simulation.run — build or restore, attach, run under the
// caller's context, check ISS exit codes — so every run is cancellable
// and a new platform axis is one SystemConfig field away from every
// experiment. The scheduler axes (lockstep versus event-driven,
// sequential versus sharded-parallel ticking, the ISS fast paths) are
// observably identical by construction and proven so by the scheduler
// differential matrix in this package's tests.
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
