package config

import (
	"testing"

	"repro/internal/bus"
	"repro/internal/cache"
	"repro/internal/isa"
	"repro/internal/smapi"
	"repro/internal/workload"
)

// TestTransactionPathDoesNotAllocate runs two cached systems past their
// warm-up and then requires a steady-state window of simulated cycles
// to allocate nothing on the transaction path: every miss, writeback,
// refill burst and out-of-order completion on the L1 → interconnect →
// L2 → DRAM path reuses storage the modules built or grew while warming
// up, and so does every UCP repartition (the l2 window holds two).
//
//   - l2: two native PEs, one streaming fresh lines and one
//     read-modify-writing a few reused ones, behind MESI L1s, an
//     inclusive L2 partitioned by utility, and DRAM with refresh, on a
//     split bus of depth 4;
//   - coherent-l1: four ISSes falsely sharing every line of one static
//     memory through snoop-invalidating MESI L1s.
func TestTransactionPathDoesNotAllocate(t *testing.T) {
	const warmup, window = 20_000, 5_000
	for _, tc := range []struct {
		name   string
		cfg    SystemConfig
		attach func(t *testing.T, sys *System)
		done   func(sys *System) bool
	}{
		{"l2", SystemConfig{Masters: 2, Memories: 1, MemKind: MemDRAM,
			MemBytes: 8192, Cache: true, Coherent: true, CacheSets: 2, CacheWays: 1,
			L2: true, L2Sets: 4, L2Ways: 4, L2LineBytes: 64,
			Partition: cache.PartUCP, UCPPeriod: 128,
			DRAMRefreshPeriod: 4096, DRAMRefreshCycles: 64,
			SplitBus: true, OutstandingDepth: 4},
			func(t *testing.T, sys *System) {
				if err := sys.AddProcs(streamTask, reuseTask); err != nil {
					t.Fatal(err)
				}
			},
			(*System).ProcsDone},
		{"coherent-l1", SystemConfig{Masters: 4, Memories: 1, MemKind: MemStatic,
			MemBytes: 16 * 128, Cache: true, Coherent: true},
			func(t *testing.T, sys *System) {
				progs := make([][]byte, 4)
				for i := range progs {
					p, err := isa.Assemble(workload.SweepKernelSource(workload.SweepKernelConfig{
						Iterations: 1000, Base: 4 * i, Stride: 16, Words: 128, Seed: uint32(16 * (i + 1)),
					}))
					if err != nil {
						t.Fatal(err)
					}
					progs[i] = p.Code
				}
				if err := sys.AddCPUs(progs...); err != nil {
					t.Fatal(err)
				}
			},
			(*System).CPUsHalted},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sys, err := Build(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			tc.attach(t, sys)
			if err := sys.Kernel.Run(warmup); err != nil {
				t.Fatal(err)
			}
			// AllocsPerRun runs the window once unmeasured, then once
			// measured: the count is that of exactly window cycles.
			n := testing.AllocsPerRun(1, func() {
				if err := sys.Kernel.Run(window); err != nil {
					t.Fatal(err)
				}
			})
			if tc.done(sys) {
				t.Fatal("the workload finished inside the window")
			}
			if n != 0 {
				t.Errorf("%d cycles allocated %.0f times, want 0", window, n)
			}
		})
	}
}

// streamTask reads the head of a fresh line on every access, 64 lines
// per pass from byte 4096: every read misses both cache levels.
func streamTask(ctx *smapi.Ctx) {
	m := ctx.Mem(0)
	for {
		for i := range uint32(64) {
			if _, code := m.ReadAs(4096+64*i, bus.U32); code != bus.OK {
				panic(code)
			}
		}
	}
}

// reuseTask increments the heads of 12 lines round-robin: its lines
// stay in the L2 until the stream evicts them, and every L1 miss on a
// dirty line writes it back.
func reuseTask(ctx *smapi.Ctx) {
	m := ctx.Mem(0)
	for r := uint32(0); ; r++ {
		addr := r % 12 * 64
		v, code := m.ReadAs(addr, bus.U32)
		if code != bus.OK {
			panic(code)
		}
		if code := m.WriteAs(addr, v+1, bus.U32); code != bus.OK {
			panic(code)
		}
	}
}
