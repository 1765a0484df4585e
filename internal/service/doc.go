// Package service turns the batch experiments runner into a
// long-running simulation service: an HTTP/JSON job API over a bounded
// worker pool, backed by a persistent content-addressed result store.
//
// A job is a sweep — a list of experiments.LegSpec legs — submitted
// with POST /v1/jobs and polled with GET /v1/jobs/{id}. The pool fans
// the legs across goroutines with per-job context cancellation,
// timeouts, and panic isolation: a crashing leg fails its job, never
// the server.
//
// The store is the tree's one result cache. Result keys are digests of (full config hash, canonical leg spec, warm-snapshot
// hash) — with the deterministic scheduler that triple fully determines
// the outcome, so a repeated or overlapping sweep is answered from the
// store without simulating, and warm-boot snapshots stored under their
// StateHash-derived compatibility class let workers resume a sweep's
// shared warm-up prefix instead of re-running it. Every stored result
// is CRC-framed; a corrupt file reads as a cache miss and is re-run,
// never served.
//
// See docs/SERVICE.md for the API spec, the job lifecycle state
// machine, the store layout and the cache-key semantics.
package service
