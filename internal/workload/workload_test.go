package workload

import (
	"bytes"
	"testing"

	"repro/internal/bus"
	"repro/internal/config"
	"repro/internal/isa"
)

// runOnSystem assembles per-CPU sources and runs them to completion on a
// built system, returning total cycles.
func runOnSystem(t *testing.T, sources []string, memories int) (*config.System, uint64) {
	t.Helper()
	sys, err := config.Build(config.SystemConfig{
		Masters:  len(sources),
		Memories: memories,
		MemKind:  config.MemWrapper,
	})
	if err != nil {
		t.Fatal(err)
	}
	var progs [][]byte
	for i, src := range sources {
		p, err := isa.Assemble(src)
		if err != nil {
			t.Fatalf("cpu %d assemble: %v", i, err)
		}
		progs = append(progs, p.Code)
	}
	if err := sys.AddCPUs(progs...); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Kernel.RunUntil(sys.CPUsHalted, 200_000_000); err != nil {
		t.Fatalf("programs did not halt: %v", err)
	}
	for i, cpu := range sys.CPUs {
		if cpu.ExitCode() != 0 {
			t.Fatalf("cpu %d exit = %#x", i, cpu.ExitCode())
		}
	}
	return sys, sys.Kernel.Cycle()
}

func TestGSMKernelRunsClean(t *testing.T) {
	src := GSMKernelSource(GSMKernelConfig{Frames: 3, SM: 0, Seed: 1})
	sys, cycles := runOnSystem(t, []string{src}, 1)
	if cycles == 0 {
		t.Fatal("no cycles")
	}
	st := sys.Wrappers[0].Stats()
	if st.Ops[bus.OpAlloc] != 3 || st.Ops[bus.OpFree] != 3 {
		t.Errorf("allocs/frees = %d/%d, want 3/3", st.Ops[bus.OpAlloc], st.Ops[bus.OpFree])
	}
	if st.BurstElems != 3*2*160 {
		t.Errorf("BurstElems = %d, want %d", st.BurstElems, 3*2*160)
	}
	if sys.Wrappers[0].Table().Len() != 0 {
		t.Error("frame buffers leaked")
	}
}

func TestGSMKernelFourISSFourMemories(t *testing.T) {
	// The paper's multi-memory configuration: each ISS works against its
	// own wrapper module.
	var sources []string
	for i := 0; i < 4; i++ {
		sources = append(sources, GSMKernelSource(GSMKernelConfig{
			Frames: 2, SM: i, Seed: uint32(i + 1),
		}))
	}
	sys, _ := runOnSystem(t, sources, 4)
	for i, w := range sys.Wrappers {
		st := w.Stats()
		if st.Ops[bus.OpAlloc] != 2 {
			t.Errorf("memory %d: allocs = %d, want 2", i, st.Ops[bus.OpAlloc])
		}
	}
}

func TestGSMKernelSharedMemoryContention(t *testing.T) {
	// Four ISSs against ONE memory (the paper's baseline): all traffic
	// serializes through one wrapper; everything still completes clean.
	var sources []string
	for i := 0; i < 4; i++ {
		sources = append(sources, GSMKernelSource(GSMKernelConfig{
			Frames: 2, SM: 0, Seed: uint32(i + 1),
		}))
	}
	sys, _ := runOnSystem(t, sources, 1)
	st := sys.Wrappers[0].Stats()
	if st.Ops[bus.OpAlloc] != 8 {
		t.Errorf("allocs = %d, want 8", st.Ops[bus.OpAlloc])
	}
}

func TestTrafficKernelDataIntegrity(t *testing.T) {
	// The traffic kernel self-checks read-back values; exit 0 proves
	// every scalar survived the round trip.
	src := TrafficKernelSource(TrafficKernelConfig{Iterations: 4, SM: 0, Dim: 8})
	sys, _ := runOnSystem(t, []string{src}, 1)
	st := sys.Wrappers[0].Stats()
	if st.Ops[bus.OpWrite] != 32 || st.Ops[bus.OpRead] != 32 {
		t.Errorf("rw = %d/%d, want 32/32", st.Ops[bus.OpWrite], st.Ops[bus.OpRead])
	}
}

func TestKernelCycleCountsDeterministic(t *testing.T) {
	src := GSMKernelSource(GSMKernelConfig{Frames: 2, SM: 0, Seed: 3})
	_, a := runOnSystem(t, []string{src}, 1)
	_, b := runOnSystem(t, []string{src}, 1)
	if a != b {
		t.Errorf("cycles differ: %d vs %d", a, b)
	}
}

func TestKernelDefaults(t *testing.T) {
	if GSMKernelSource(GSMKernelConfig{}) == "" {
		t.Error("empty source")
	}
	if TrafficKernelSource(TrafficKernelConfig{}) == "" {
		t.Error("empty source")
	}
}

// TestISSImagesParameters pins the per-ISS parameters ISSImages decides
// — memory i mod memories, GSM seed+i, sweep ranges interleaved word by
// word — against hand-built sources, and its refusal of what it cannot
// build.
func TestISSImagesParameters(t *testing.T) {
	assemble := func(src string) []byte {
		p, err := isa.Assemble(src)
		if err != nil {
			t.Fatal(err)
		}
		return p.Code
	}
	gsm, err := ISSImages("gsm", 3, 2, 5, 7)
	if err != nil {
		t.Fatal(err)
	}
	sweep, err := ISSImages("sweep", 3, 2, 5, 7)
	if err != nil {
		t.Fatal(err)
	}
	traffic, err := ISSImages("traffic", 3, 2, 5, 7)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if want := assemble(GSMKernelSource(GSMKernelConfig{Frames: 5, SM: i % 2, Seed: 7 + uint32(i)})); !bytes.Equal(gsm[i], want) {
			t.Errorf("gsm image %d differs from its hand-built source", i)
		}
		if want := assemble(SweepKernelSource(SweepKernelConfig{
			Iterations: 5, SM: i % 2, Base: 4 * i, Stride: 12, Words: 64, Seed: 7 + uint32(16*(i+1)),
		})); !bytes.Equal(sweep[i], want) {
			t.Errorf("sweep image %d differs from its hand-built source", i)
		}
		if want := assemble(TrafficKernelSource(TrafficKernelConfig{Iterations: 5, SM: i % 2})); !bytes.Equal(traffic[i], want) {
			t.Errorf("traffic image %d differs from its hand-built source", i)
		}
	}
	if _, err := ISSImages("trace", 1, 1, 1, 1); err == nil {
		t.Error("unknown workload accepted")
	}
	if _, err := ISSImages("gsm", 1, 0, 1, 1); err == nil {
		t.Error("zero memories accepted")
	}
}
