package smapi

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/bus"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/iss"
	"repro/internal/sim"
)

// buildSystem wires n Procs and one wrapper through a shared bus.
func buildSystem(t *testing.T, tasks []Task, wcfg core.Config) (*sim.Kernel, []*Proc, *core.Wrapper) {
	t.Helper()
	k := sim.New()
	var mLinks []*bus.Port
	var procs []*Proc
	for i, task := range tasks {
		l := bus.NewPort(k, "pe", bus.PortConfig{})
		mLinks = append(mLinks, l)
		procs = append(procs, NewProc(k, fmt.Sprintf("pe%d", i), i, l, task))
	}
	sl := bus.NewPort(k, "mem", bus.PortConfig{})
	w, err := core.NewWrapper(k, wcfg, sl)
	if err != nil {
		panic(err)
	}
	bus.NewBus(k, "bus", mLinks, []*bus.Port{sl}, bus.NewRoundRobin())
	return k, procs, w
}

func runAll(t *testing.T, k *sim.Kernel, procs []*Proc, limit uint64) {
	t.Helper()
	_, err := k.RunUntil(func() bool {
		for _, p := range procs {
			if !p.Done() {
				return false
			}
		}
		return true
	}, limit)
	if err != nil {
		t.Fatalf("tasks did not finish: %v", err)
	}
}

func TestMemMallocWriteReadFree(t *testing.T) {
	var got uint32
	var codes []bus.ErrCode
	task := func(ctx *Ctx) {
		m := ctx.Mem(0)
		v, code := m.Malloc(16, bus.U32)
		codes = append(codes, code)
		codes = append(codes, m.Write(v+4, 777))
		d, code := m.Read(v + 4)
		got = d
		codes = append(codes, code)
		codes = append(codes, m.Free(v))
	}
	k, procs, w := buildSystem(t, []Task{task}, core.Config{Delays: core.DefaultDelays()})
	runAll(t, k, procs, 10000)
	for i, c := range codes {
		if c != bus.OK {
			t.Errorf("step %d: %v", i, c)
		}
	}
	if got != 777 {
		t.Errorf("read = %d, want 777", got)
	}
	if w.Table().Len() != 0 {
		t.Error("leak: table not empty")
	}
}

func TestMemArrayTransfers(t *testing.T) {
	var out []uint32
	task := func(ctx *Ctx) {
		m := ctx.Mem(0)
		v, _ := m.Malloc(64, bus.I16)
		in := make([]uint32, 64)
		for i := range in {
			in[i] = uint32(i * 3)
		}
		if code := m.WriteArray(v, in); code != bus.OK {
			panic(code)
		}
		var code bus.ErrCode
		out, code = m.ReadArray(v, 64)
		if code != bus.OK {
			panic(code)
		}
	}
	k, procs, _ := buildSystem(t, []Task{task}, core.Config{Delays: core.DefaultDelays()})
	runAll(t, k, procs, 10000)
	for i := range out {
		if out[i] != uint32(i*3) {
			t.Fatalf("out[%d] = %d, want %d", i, out[i], i*3)
		}
	}
}

func TestCtxSleepAdvancesTime(t *testing.T) {
	var before, after uint64
	task := func(ctx *Ctx) {
		before = ctx.Cycle()
		ctx.Sleep(100)
		after = ctx.Cycle()
	}
	k, procs, _ := buildSystem(t, []Task{task}, core.Config{})
	runAll(t, k, procs, 1000)
	if after < before+100 {
		t.Errorf("Sleep(100): %d → %d", before, after)
	}
	if after > before+110 {
		t.Errorf("Sleep(100) overslept: %d → %d", before, after)
	}
}

func TestProducerConsumerWithReservation(t *testing.T) {
	// The paper's coherence mechanism end-to-end: the producer reserves
	// the buffer, fills it, releases; the consumer acquires, reads,
	// releases. A handshake word (element 0) flags data-ready.
	// Tasks are strictly serialized by the kernel's coroutine handoff, so
	// plain shared variables are safe; synchronization must nevertheless
	// happen in *simulated* time (never on host channels, which would
	// stall the kernel).
	const n = 32
	var consumed []uint32
	var vptr uint32
	var vptrReady bool

	producer := func(ctx *Ctx) {
		m := ctx.Mem(0)
		v, code := m.Malloc(n+1, bus.U32)
		if code != bus.OK {
			panic(code)
		}
		vptr, vptrReady = v, true
		if code := m.Acquire(v, 3); code != bus.OK {
			panic(code)
		}
		data := make([]uint32, n)
		for i := range data {
			data[i] = uint32(i) ^ 0x5A
		}
		if code := m.WriteArray(v+4, data); code != bus.OK {
			panic(code)
		}
		if code := m.Write(v, 1); code != bus.OK { // ready flag
			panic(code)
		}
		if code := m.Release(v); code != bus.OK {
			panic(code)
		}
	}
	consumer := func(ctx *Ctx) {
		m := ctx.Mem(0)
		for !vptrReady {
			ctx.Sleep(2)
		}
		v := vptr
		for {
			if code := m.Acquire(v, 3); code != bus.OK {
				panic(code)
			}
			ready, code := m.Read(v)
			if code != bus.OK {
				panic(code)
			}
			if ready == 1 {
				break
			}
			if code := m.Release(v); code != bus.OK {
				panic(code)
			}
			ctx.Sleep(5)
		}
		out, code := m.ReadArray(v+4, n)
		if code != bus.OK {
			panic(code)
		}
		consumed = out
		if code := m.Release(v); code != bus.OK {
			panic(code)
		}
		if code := m.Free(v); code != bus.OK {
			panic(code)
		}
	}
	k, procs, w := buildSystem(t, []Task{producer, consumer}, core.Config{Delays: core.DefaultDelays()})
	runAll(t, k, procs, 100000)
	if len(consumed) != n {
		t.Fatalf("consumed %d elements", len(consumed))
	}
	for i, v := range consumed {
		if v != uint32(i)^0x5A {
			t.Errorf("consumed[%d] = %d", i, v)
		}
	}
	if w.Table().Len() != 0 {
		t.Error("buffer leaked")
	}
}

func TestAcquireContention(t *testing.T) {
	// Two PEs increment a shared counter under reservation; no update is
	// lost — the semaphore works.
	const each = 20
	var vptr uint32
	var ready bool
	bump := func(ctx *Ctx) {
		m := ctx.Mem(0)
		for !ready {
			ctx.Sleep(2)
		}
		for i := 0; i < each; i++ {
			if code := m.Acquire(vptr, 2); code != bus.OK {
				panic(code)
			}
			v, code := m.Read(vptr)
			if code != bus.OK {
				panic(code)
			}
			if code := m.Write(vptr, v+1); code != bus.OK {
				panic(code)
			}
			if code := m.Release(vptr); code != bus.OK {
				panic(code)
			}
		}
	}
	alloc := func(ctx *Ctx) {
		m := ctx.Mem(0)
		v, code := m.Malloc(1, bus.U32)
		if code != bus.OK {
			panic(code)
		}
		vptr, ready = v, true
		// Wait until both bumpers are done, then verify in-sim.
		for {
			val, _ := m.Read(vptr)
			if val == 2*each {
				return
			}
			ctx.Sleep(50)
		}
	}
	k, procs, _ := buildSystem(t, []Task{alloc, bump, bump}, core.Config{Delays: core.DefaultDelays()})
	runAll(t, k, procs, 1_000_000)
}

func TestProcPanicBecomesFault(t *testing.T) {
	task := func(ctx *Ctx) {
		panic("task exploded")
	}
	k, _, _ := buildSystem(t, []Task{task}, core.Config{})
	err := k.Run(10)
	if err == nil || !strings.Contains(err.Error(), "task exploded") {
		t.Errorf("err = %v, want task panic fault", err)
	}
}

func TestProcPanicAfterResumesBecomesFault(t *testing.T) {
	// The task panics after a memory op and a Sleep, i.e. on a later
	// resume than the first, while another Proc is still mid-task.
	steady := func(ctx *Ctx) {
		for i := 0; i < 1000; i++ {
			ctx.Sleep(1)
		}
	}
	late := func(ctx *Ctx) {
		if _, code := ctx.Mem(0).Malloc(4, bus.U32); code != bus.OK {
			panic(code)
		}
		ctx.Sleep(5)
		panic("late boom")
	}
	k, procs, _ := buildSystem(t, []Task{steady, late}, core.Config{Delays: core.DefaultDelays()})
	err := k.Run(10000)
	if err == nil || !strings.Contains(err.Error(), "pe1: task panic: late boom") {
		t.Fatalf("err = %v, want pe1's task panic fault", err)
	}
	p := procs[1]
	if !p.Done() || p.RetiredTasks != 1 {
		t.Errorf("panicking Proc: Done = %v, RetiredTasks = %d; want true, 1", p.Done(), p.RetiredTasks)
	}
	if p.OpsIssued != 1 || p.SleepCycles == 0 {
		t.Errorf("panicking Proc: OpsIssued = %d, SleepCycles = %d; want 1, > 0", p.OpsIssued, p.SleepCycles)
	}
	if procs[0].Done() {
		t.Error("the other Proc retired before the fault")
	}
}

// spinningProc builds a kernel holding one PE whose task yields every
// cycle, so every stepped cycle is one resume.
func spinningProc() (*sim.Kernel, *Proc) {
	k := sim.New()
	p := NewProc(k, "pe0", 0, bus.NewPort(k, "pe0", bus.PortConfig{}), func(ctx *Ctx) {
		for {
			ctx.Sleep(0)
		}
	})
	return k, p
}

func TestProcResumeDoesNotAllocate(t *testing.T) {
	k, p := spinningProc()
	if err := k.Run(10); err != nil {
		t.Fatal(err)
	}
	wakes := p.ActiveWakes
	allocs := testing.AllocsPerRun(100, func() {
		if err := k.Run(1); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("k.Run(1) with a started task: %v allocs, want 0", allocs)
	}
	if p.ActiveWakes-wakes < 100 {
		t.Errorf("only %d resumes in 101 cycles", p.ActiveWakes-wakes)
	}
}

func BenchmarkProcResume(b *testing.B) {
	k, p := spinningProc()
	if err := k.Run(1); err != nil {
		b.Fatal(err)
	}
	wakes := p.ActiveWakes
	b.ResetTimer()
	if err := k.Run(uint64(b.N)); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(p.ActiveWakes-wakes), "ns/resume")
}

func TestProcStats(t *testing.T) {
	task := func(ctx *Ctx) {
		m := ctx.Mem(0)
		v, _ := m.Malloc(4, bus.U32)
		m.Write(v, 1)
		m.Free(v)
		ctx.Sleep(10)
	}
	k, procs, _ := buildSystem(t, []Task{task}, core.Config{Delays: core.DefaultDelays()})
	runAll(t, k, procs, 10000)
	p := procs[0]
	if p.OpsIssued != 3 {
		t.Errorf("OpsIssued = %d, want 3", p.OpsIssued)
	}
	if p.WaitCycles == 0 || p.SleepCycles == 0 {
		t.Errorf("wait/sleep cycles not counted: %d/%d", p.WaitCycles, p.SleepCycles)
	}
}

func TestRuntimeAssemblyRoundTrip(t *testing.T) {
	// The assembly runtime drives a real wrapper through the ISS bridge:
	// malloc, write, read, reserve, release, free — checking statuses.
	src := `
		mov  r0, #8
		mov  r1, #2        ; u32
		mov  r2, #0
		bl   sm_malloc
		cmp  r1, #0
		bne  fail
		mov  r4, r0        ; vptr

		mov  r0, r4
		li   r1, 1234
		mov  r2, #0
		bl   sm_write
		cmp  r1, #0
		bne  fail

		mov  r0, r4
		mov  r2, #0
		bl   sm_reserve
		cmp  r1, #0
		bne  fail

		mov  r0, r4
		mov  r2, #0
		bl   sm_read
		cmp  r1, #0
		bne  fail
		mov  r5, r0        ; datum

		mov  r0, r4
		mov  r2, #0
		bl   sm_release
		cmp  r1, #0
		bne  fail

		mov  r0, r4
		mov  r2, #0
		bl   sm_free
		cmp  r1, #0
		bne  fail

		mov  r0, r5
		swi  #0
	fail:	li   r0, 0xDEAD
		swi  #0
	` + Runtime
	prog, err := isa.Assemble(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	k := sim.New()
	link := bus.NewPort(k, "cpu-mem", bus.PortConfig{})
	if _, err := core.NewWrapper(k, core.Config{Delays: core.DefaultDelays()}, link); err != nil {
		t.Fatal(err)
	}
	cpu, err := iss.New(k, iss.Config{Prog: prog.Code, Port: link})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := k.RunUntil(cpu.Halted, 1_000_000); err != nil {
		t.Fatalf("program did not halt: %v", err)
	}
	if cpu.ExitCode() != 1234 {
		t.Fatalf("exit = %#x, want 1234", cpu.ExitCode())
	}
}

func TestRuntimeAssemblyBurst(t *testing.T) {
	src := `
		.equ IOBUF, 0xFFFF0100
		; staging[0..3] = 7
		li   r3, IOBUF
		mov  r1, #0
	fill:	mov  r2, #7
		str  r2, [r3]
		add  r3, r3, #4
		add  r1, r1, #1
		cmp  r1, #4
		bne  fill

		mov  r0, #4
		mov  r1, #2
		mov  r2, #0
		bl   sm_malloc
		cmp  r1, #0
		bne  fail
		mov  r4, r0

		mov  r0, r4
		mov  r1, #4
		mov  r2, #0
		bl   sm_writen
		cmp  r1, #0
		bne  fail

		; scalar read of element 3 confirms the burst landed
		add  r0, r4, #12
		mov  r2, #0
		bl   sm_read
		cmp  r1, #0
		bne  fail
		swi  #0
	fail:	li   r0, 0xDEAD
		swi  #0
	` + Runtime
	prog, err := isa.Assemble(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	k := sim.New()
	link := bus.NewPort(k, "cpu-mem", bus.PortConfig{})
	if _, err := core.NewWrapper(k, core.Config{Delays: core.DefaultDelays()}, link); err != nil {
		t.Fatal(err)
	}
	cpu, err := iss.New(k, iss.Config{Prog: prog.Code, Port: link})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := k.RunUntil(cpu.Halted, 1_000_000); err != nil {
		t.Fatalf("program did not halt: %v", err)
	}
	if cpu.ExitCode() != 7 {
		t.Fatalf("exit = %d, want 7", cpu.ExitCode())
	}
}
