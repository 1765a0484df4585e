// Package mem implements the traditional memory model the paper contrasts
// against: a static table memory. The entire simulated address range is
// backed by a fixed array allocated up front ("static memories implemented
// as tables"), addresses are plain offsets, and dynamic operations
// (alloc/free/reserve) do not exist at the hardware level — software that
// needs dynamic data over a static memory must manage it itself.
//
// StaticRAM serves the same bus protocol as the dynamic wrapper so that
// experiment E2 can replay identical traffic against both models and
// measure the wrapper's overhead, and E6 can show where the static table
// stops scaling (its capacity is paid in host memory at construction
// time, whether used or not). DRAM is the same table behind banked
// row-buffer and refresh timing.
//
// Server is the one serving FSM of every memory model — StaticRAM,
// DRAM, core.Wrapper and heapsim.HeapMem. It owns the slave side of one
// bus.Port: Idle pops the next visible request, Decode and Exec count
// their cycles down as busy cycles, and at the end of Exec the response
// is published and the FSM is Idle again. It also owns NextWake and
// Skip (the countdown is pure, so the event-driven kernel skips it),
// the op, error, busy-cycle and burst counters of Stats, and the
// registers every memory's snapshot section starts with. A model adds
// three Hooks — its decode cycles at pop, its exec cycles at exec entry
// (given the cycle, for DRAM's refresh schedule) and its response at
// the end — plus its own input latch and storage. Because the FSM is
// shared, the models differ only functionally, which is what makes E2's
// wrapper-versus-static cost ratio a fair comparison. ExecuteTable is
// the flat-table data path StaticRAM, DRAM and the heapsim arena share.
package mem
