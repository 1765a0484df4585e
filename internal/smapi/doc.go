// Package smapi is the software layer of the framework: the high-level
// APIs — "very similar to the host machine functions ... using a C
// formalism" — through which software running on processing elements
// drives the dynamic shared memories.
//
// Two kinds of software use it:
//
//   - Native tasks. Proc runs a Go function as a coroutine synchronized
//     with the simulation kernel (the SystemC SC_THREAD idiom): the task
//     blocks in *simulated* time on every shared-memory call while the
//     kernel keeps cycling the hardware. The coroutine comes from
//     iter.Pull, so a resume is a direct switch into the task and back
//     that allocates nothing. Mem exposes Malloc /
//     Free / Read / Write / ReadArray / WriteArray / Reserve / Release /
//     Acquire with in-band error codes, one bus transaction each. This
//     models software whose computation is executed natively (the way a
//     compiled-code ISS executes it) while every memory interaction is
//     simulated cycle-true.
//
//   - Assembly programs on the armlet ISS. Runtime is an assembly
//     library (sm_malloc, sm_free, sm_read, sm_write, sm_readn,
//     sm_writen, sm_reserve, sm_release) wrapping the memory-mapped
//     bridge in call-and-return routines, so ISS workloads use the same
//     API surface the paper's ISSs did.
package smapi
