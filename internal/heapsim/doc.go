// Package heapsim implements the alternative the paper argues against:
// a "complex and slow" detailed dynamic-memory model whose allocator
// state lives *inside* the simulated memory.
//
// Heap is a first-fit, address-ordered, coalescing free-list allocator
// (K&R style) operating directly on the simulated arena bytes: block
// headers, free-list links and the free-list head pointer are all stored
// in simulated memory, and every word of allocator metadata the manager
// touches is counted. HeapMem wraps the allocator in a bus slave that
// charges a configurable number of simulated cycles per counted access,
// so a simulated malloc costs what walking a real free list through a
// memory port would cost. The slave runs on mem.Server, the serving FSM
// every memory model shares (see package mem): HeapMem executes each
// request as it is popped and charges the whole delay as decode cycles,
// and its data operations use the flat-table path of mem.ExecuteTable.
//
// This is the E3 baseline: its allocation latency grows with free-list
// length (fragmentation) and its calloc-zeroing cost grows with request
// size, whereas the paper's host-backed wrapper charges a flat,
// parameterized delay and performs the actual work with one host call.
package heapsim
