// Package stats provides run measurement and the aligned text tables
// the experiment harness prints — the reporting layer shared by
// cmd/mpsim, cmd/experiments and the root benchmarks.
//
// # Tables
//
// Table is a deliberately simple aligned text table: a title, a header
// and string rows (Add / Addf). String renders with padded columns and
// a dashed rule, the exact format EXPERIMENTS.md transcribes — keeping
// the printed artifact diff-able against the committed results.
//
// # Measurements
//
// RunResult captures one simulated run: its name, simulated cycle
// count and host wall-clock time. CyclesPerSec is the paper's
// simulation-speed metric (simulated cycles per host second) and
// Degradation expresses the paper's single quantitative result — the
// relative speed loss between two configurations (E1 reports 20%
// between one and four wrapper memories).
//
// Rate, SI and Pct are the shared formatting helpers: Rate guards
// against zero-duration division, SI renders large rates with
// engineering suffixes (k, M, G), and Pct renders signed relative
// differences the way every results table spells them.
package stats
