// Package core implements the paper's primary contribution: the dynamic
// shared memory WRAPPER that lets a cycle-true MPSoC co-simulation use the
// host machine's memory-management capabilities for the simulated system's
// dynamic data.
//
// The wrapper (Figure 2 of the paper) has two halves:
//
//   - A cycle-true part, a finite state machine (FSM) that talks to the
//     interconnect with a cycle-by-cycle handshake, identifies operations
//     by opcode, and charges configurable — possibly data-dependent —
//     delays so the *timing* seen by the rest of the simulated system is
//     that of a real hardware memory module. Implemented by Wrapper on
//     mem.Server, the serving FSM every memory model shares (see package
//     mem), so the wrapper and the static memory it is measured against
//     differ only in their functional part and their delays.
//
//   - A functional part: a pointer table and a translator. The pointer
//     table maps virtual pointers (Vptr) of the simulated architecture to
//     host pointers (Hptr, here Go byte slices) and records size, element
//     type and a reservation bit per allocation. The translator converts
//     endianness and element types between the simulated wire format and
//     host memory, and invokes the host allocation functions. Implemented
//     by PointerTable and Translator, with host calls behind the
//     HostAllocator interface (calloc/free semantics).
//
// Key behaviours reproduced exactly as published:
//
//   - Allocation maps to calloc(dim, DATA_SIZE) on the host; the returned
//     host pointer is recorded together with dim and type, and a virtual
//     pointer is returned to the ISS.
//   - Virtual pointer generation: each new Vptr is the previous (last)
//     entry's Vptr plus the size of that entry's allocation; the first
//     Vptr is zero. Freed holes are therefore never reused — virtual
//     address space grows monotonically while *capacity* accounting is by
//     the sum of live allocation sizes against the configured total size
//     (finite-size memory modelling: further allocations are denied once
//     the limit is reached).
//   - Free removes the entry, re-compacts the table, subtracts the size
//     from the in-use total, and calls the host free function.
//   - Pointer arithmetic: a Vptr that is not the start of any allocation
//     is resolved by finding the allocation whose range contains it; the
//     host pointer is computed by adding the corresponding offset.
//   - Indexed structures move through I/O arrays: burst payloads are
//     staged and charged per-element transfer delays, then moved to or
//     from host memory in one step.
//   - Coherence: a reservation bit per entry acts as a semaphore; a
//     master that reserves a pointer protects it from other masters.
//
// Multiple wrapper instances coexist naturally: each allocation obtains a
// distinct host pointer from the host allocator, exactly as the paper
// notes ("the host machine provides the generation of a different host
// pointer for every allocation").
package core
