package config

import (
	"encoding/json"
	"strconv"
	"strings"
	"testing"

	"repro/internal/bus"
	"repro/internal/isa"
	"repro/internal/smapi"
	"repro/internal/trace"
)

func TestBuildValidation(t *testing.T) {
	if _, err := Build(SystemConfig{Masters: 0, Memories: 1}); err == nil {
		t.Error("zero masters accepted")
	}
	if _, err := Build(SystemConfig{Masters: 1, Memories: 0}); err == nil {
		t.Error("zero memories accepted")
	}
	if _, err := Build(SystemConfig{Masters: 1, Memories: 1, MemKind: MemKind(9)}); err == nil {
		t.Error("bad mem kind accepted")
	}
	if _, err := Build(SystemConfig{Masters: 1, Memories: 1, Interconnect: InterconnectKind(9)}); err == nil {
		t.Error("bad interconnect accepted")
	}
}

// TestBuildRejectsRetiredWorkers holds the retired Workers field to the
// two values that mean the one sequential kernel.
func TestBuildRejectsRetiredWorkers(t *testing.T) {
	for _, w := range []int{0, 1} {
		if _, err := Build(SystemConfig{Masters: 1, Memories: 1, Workers: w}); err != nil {
			t.Errorf("Workers %d: %v", w, err)
		}
	}
	for _, w := range []int{2, -1} {
		_, err := Build(SystemConfig{Masters: 1, Memories: 1, Workers: w})
		if err == nil || !strings.Contains(err.Error(), "Workers") {
			t.Errorf("Workers %d: err = %v, want an error naming Workers", w, err)
		}
	}
	// 0 and 1 key one stored result.
	a, b := SystemConfig{Masters: 1, Memories: 1}, SystemConfig{Masters: 1, Memories: 1, Workers: 1}
	if a.Hash() != b.Hash() || a.StateHash() != b.StateHash() {
		t.Error("Workers 0 and 1 hash differently")
	}
}

func TestBuildShapes(t *testing.T) {
	sys, err := Build(SystemConfig{Masters: 3, Memories: 2, MemKind: MemWrapper})
	if err != nil {
		t.Fatal(err)
	}
	if len(sys.MasterPorts) != 3 || len(sys.SlavePorts) != 2 || len(sys.Wrappers) != 2 {
		t.Errorf("shapes wrong: %d/%d/%d", len(sys.MasterPorts), len(sys.SlavePorts), len(sys.Wrappers))
	}
	if sys.Inter.Name() != "bus" {
		t.Errorf("interconnect = %q", sys.Inter.Name())
	}

	xb, err := Build(SystemConfig{Masters: 1, Memories: 1, MemKind: MemStatic, Interconnect: InterCrossbar})
	if err != nil {
		t.Fatal(err)
	}
	if len(xb.Statics) != 1 || xb.Inter.Name() != "xbar" {
		t.Error("crossbar/static build wrong")
	}

	hp, err := Build(SystemConfig{Masters: 1, Memories: 1, MemKind: MemHeapSim})
	if err != nil {
		t.Fatal(err)
	}
	if len(hp.Heaps) != 1 {
		t.Error("heapsim build wrong")
	}
}

func TestKindStrings(t *testing.T) {
	if MemWrapper.String() != "wrapper" || MemStatic.String() != "static" || MemHeapSim.String() != "heapsim" {
		t.Error("MemKind strings wrong")
	}
	if InterBus.String() != "bus" || InterCrossbar.String() != "crossbar" {
		t.Error("InterconnectKind strings wrong")
	}
	if MemKind(9).String() == "" {
		t.Error("unknown kind empty")
	}
	// Text and JSON parse exactly what String prints; an unknown spelling
	// is an error naming the valid ones.
	for k := MemWrapper; k <= MemDRAM; k++ {
		got := MemKind(-1)
		if err := got.UnmarshalText([]byte(k.String())); err != nil || got != k {
			t.Errorf("MemKind.UnmarshalText(%q) = %v, %v", k.String(), got, err)
		}
		if j, err := json.Marshal(k); err != nil || string(j) != strconv.Quote(k.String()) || json.Unmarshal(j, &got) != nil || got != k {
			t.Errorf("MemKind JSON round trip of %v: %s, %v, back %v", k, j, err, got)
		}
	}
	for k := InterBus; k <= InterCrossbar; k++ {
		got := InterconnectKind(-1)
		if err := got.UnmarshalText([]byte(k.String())); err != nil || got != k {
			t.Errorf("InterconnectKind.UnmarshalText(%q) = %v, %v", k.String(), got, err)
		}
		if j, err := json.Marshal(k); err != nil || string(j) != strconv.Quote(k.String()) || json.Unmarshal(j, &got) != nil || got != k {
			t.Errorf("InterconnectKind JSON round trip of %v: %s, %v, back %v", k, j, err, got)
		}
	}
	var mk MemKind
	if err := mk.UnmarshalText([]byte("rom")); err == nil || !strings.Contains(err.Error(), "wrapper|static|heapsim|dram") {
		t.Errorf("unknown memory kind: err = %v", err)
	}
	var ik InterconnectKind
	if err := ik.UnmarshalText([]byte("ring")); err == nil || !strings.Contains(err.Error(), "bus|crossbar") {
		t.Errorf("unknown interconnect: err = %v", err)
	}
}

// runTrace replays tr on a system of the given kind and returns cycles.
func runTrace(t *testing.T, kind MemKind, masters, memories int, tr *trace.Trace, mode trace.Mode) uint64 {
	t.Helper()
	memBytes := tr.StaticBytesNeeded()
	if memBytes < 1<<16 {
		memBytes = 1 << 16
	}
	sys, err := Build(SystemConfig{
		Masters: masters, Memories: memories, MemKind: kind, MemBytes: memBytes,
	})
	if err != nil {
		t.Fatal(err)
	}
	var tasks []smapi.Task
	for i := 0; i < masters; i++ {
		tasks = append(tasks, trace.ReplayTask(tr, mode, nil))
	}
	if err := sys.AddProcs(tasks...); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Kernel.RunUntil(sys.ProcsDone, 50_000_000); err != nil {
		t.Fatalf("replay did not finish: %v", err)
	}
	return sys.Kernel.Cycle()
}

func TestTraceReplayAgainstAllMemoryKinds(t *testing.T) {
	// The same trace completes without in-band errors against every
	// memory model — the property experiments E2/E3 rely on.
	tr := trace.Generate(trace.GenConfig{
		Seed: 11, Events: 400, Slots: 8, NumSM: 1,
		MinDim: 2, MaxDim: 32, DType: bus.U32,
		Mix: trace.DefaultMix(), PtrArithPct: 25,
	})
	wrapperCycles := runTrace(t, MemWrapper, 1, 1, tr, trace.ModeDynamic)
	staticCycles := runTrace(t, MemStatic, 1, 1, tr, trace.ModeStatic)
	heapCycles := runTrace(t, MemHeapSim, 1, 1, tr, trace.ModeDynamic)
	if wrapperCycles == 0 || staticCycles == 0 || heapCycles == 0 {
		t.Error("zero-cycle replay")
	}
	// The detailed model must be slower in simulated time than the
	// wrapper on the same workload (it walks free lists in-sim).
	if heapCycles <= wrapperCycles {
		t.Errorf("heapsim (%d cycles) not slower than wrapper (%d)", heapCycles, wrapperCycles)
	}
}

func TestTraceReplayDeterministicAcrossBuilds(t *testing.T) {
	tr := trace.Generate(trace.GenConfig{
		Seed: 5, Events: 300, Slots: 4, NumSM: 2,
		MinDim: 1, MaxDim: 16, DType: bus.U16, Mix: trace.DefaultMix(),
	})
	a := runTrace(t, MemWrapper, 2, 2, tr, trace.ModeDynamic)
	b := runTrace(t, MemWrapper, 2, 2, tr, trace.ModeDynamic)
	if a != b {
		t.Errorf("cycle counts differ across identical builds: %d vs %d", a, b)
	}
}

func TestMultiMemoryRouting(t *testing.T) {
	// A trace spread over 4 memories drives transactions to all of them.
	tr := trace.Generate(trace.GenConfig{
		Seed: 13, Events: 500, Slots: 8, NumSM: 4,
		MinDim: 1, MaxDim: 8, DType: bus.U32, Mix: trace.DefaultMix(),
	})
	sys, err := Build(SystemConfig{Masters: 1, Memories: 4, MemKind: MemWrapper})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.AddProcs(trace.ReplayTask(tr, trace.ModeDynamic, nil)); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Kernel.RunUntil(sys.ProcsDone, 10_000_000); err != nil {
		t.Fatal(err)
	}
	st := sys.Inter.Stats()
	for i, n := range st.PerSlave {
		if n == 0 {
			t.Errorf("memory %d received no transactions", i)
		}
	}
	for _, w := range sys.Wrappers {
		if w.Stats().Ops[bus.OpAlloc] == 0 {
			t.Errorf("%s never allocated", w.Name())
		}
	}
}

func TestAddProcsValidation(t *testing.T) {
	sys, err := Build(SystemConfig{Masters: 1, Memories: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.AddProcs(nil, nil); err == nil {
		t.Error("too many tasks accepted")
	}
	if err := sys.AddCPUs(nil, nil); err == nil {
		t.Error("too many programs accepted")
	}
}

func TestISSSystemEndToEnd(t *testing.T) {
	// Four ISSs, each allocating and touching its own buffer in a shared
	// wrapper memory, through the real bus. Exit codes verify data.
	src := `
		mov  r0, #32
		mov  r1, #2        ; u32
		mov  r2, #0        ; sm 0
		bl   sm_malloc
		cmp  r1, #0
		bne  fail
		mov  r4, r0

		mov  r0, r4
		li   r1, 555
		mov  r2, #0
		bl   sm_write
		cmp  r1, #0
		bne  fail

		mov  r0, r4
		mov  r2, #0
		bl   sm_read
		cmp  r1, #0
		bne  fail
		swi  #0
	fail:	li   r0, 0xDEAD
		swi  #0
	` + smapi.Runtime
	prog, err := isa.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := Build(SystemConfig{Masters: 4, Memories: 1, MemKind: MemWrapper})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.AddCPUs(prog.Code, prog.Code, prog.Code, prog.Code); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Kernel.RunUntil(sys.CPUsHalted, 1_000_000); err != nil {
		t.Fatal(err)
	}
	for i, cpu := range sys.CPUs {
		if cpu.ExitCode() != 555 {
			t.Errorf("cpu %d exit = %#x, want 555", i, cpu.ExitCode())
		}
	}
	// Four independent allocations live in the wrapper.
	if got := sys.Wrappers[0].Table().Len(); got != 4 {
		t.Errorf("live allocations = %d, want 4", got)
	}
}

func TestFixedPriorityOption(t *testing.T) {
	sys, err := Build(SystemConfig{Masters: 2, Memories: 1, FixedPriority: true})
	if err != nil {
		t.Fatal(err)
	}
	_ = sys // construction is the test; arbiter behaviour is tested in bus
}

func TestMixedMastersGetDistinctLinks(t *testing.T) {
	// A Proc and a CPU added to the same system must claim different
	// master links (regression: both used to start at link 0).
	sys, err := Build(SystemConfig{Masters: 2, Memories: 1})
	if err != nil {
		t.Fatal(err)
	}
	task := func(ctx *smapi.Ctx) {
		m := ctx.Mem(0)
		if _, code := m.Malloc(4, bus.U32); code != bus.OK {
			panic(code)
		}
	}
	prog, err := isa.Assemble(`
		mov r0, #0
		swi #0
	`)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.AddProcs(task); err != nil {
		t.Fatal(err)
	}
	if err := sys.AddCPUs(prog.Code); err != nil {
		t.Fatal(err)
	}
	if sys.NextFreeMaster() != -1 {
		t.Errorf("NextFreeMaster = %d, want -1 (all taken)", sys.NextFreeMaster())
	}
	done := func() bool { return sys.ProcsDone() && sys.CPUsHalted() }
	if _, err := sys.Kernel.RunUntil(done, 100000); err != nil {
		t.Fatal(err)
	}
	// Overcommit after mixing is rejected.
	if err := sys.AddProcs(task); err == nil {
		t.Error("overcommitted AddProcs accepted")
	}
}

func TestSnapshotProcErrorIsActionable(t *testing.T) {
	// Snapshotting a system with native smapi procs must fail with an
	// error that names the offending module, explains why its state
	// cannot travel, and points at the docs section covering it —
	// a user hitting this mid-sweep should not need to read source.
	sys, err := Build(SystemConfig{Masters: 1, Memories: 1})
	if err != nil {
		t.Fatal(err)
	}
	task := func(ctx *smapi.Ctx) {}
	if err := sys.AddProcs(task); err != nil {
		t.Fatal(err)
	}
	_, err = sys.Snapshot()
	if err == nil {
		t.Fatal("Snapshot succeeded with a native proc attached")
	}
	msg := err.Error()
	for _, want := range []string{
		sys.Procs[0].Name(), // names the offending module
		"goroutine",         // says why the state does not serialize
		"AddCPUs",           // offers the supported alternative
		`docs/SNAPSHOT.md "What deliberately does not travel"`, // points at the docs
	} {
		if !strings.Contains(msg, want) {
			t.Errorf("Snapshot error %q missing %q", msg, want)
		}
	}
}
