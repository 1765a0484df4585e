package iss

import (
	"strings"
	"testing"

	"repro/internal/bus"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/sim"
)

// runProgram assembles src, runs it on a lone CPU until halt, and
// returns the CPU for inspection.
func runProgram(t *testing.T, src string) *CPU {
	t.Helper()
	prog, err := isa.Assemble(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	k := sim.New()
	cpu, err := New(k, Config{Prog: prog.Code})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := k.RunUntil(cpu.Halted, 1_000_000); err != nil {
		t.Fatalf("program did not halt: %v (pc=%#x)", err, cpu.PC())
	}
	return cpu
}

// runWithWrapper assembles src and runs it on a CPU whose bridge is wired
// directly to a dynamic shared memory wrapper.
func runWithWrapper(t *testing.T, src string, cfg core.Config) (*CPU, *core.Wrapper) {
	t.Helper()
	prog, err := isa.Assemble(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	k := sim.New()
	link := bus.NewPort(k, "cpu-mem", bus.PortConfig{})
	w, err := core.NewWrapper(k, cfg, link)
	if err != nil {
		t.Fatal(err)
	}
	cpu, err := New(k, Config{Prog: prog.Code, Port: link})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := k.RunUntil(cpu.Halted, 10_000_000); err != nil {
		t.Fatalf("program did not halt: %v (pc=%#x)", err, cpu.PC())
	}
	return cpu, w
}

func TestCPUArithmetic(t *testing.T) {
	cpu := runProgram(t, `
		mov r0, #10
		add r1, r0, #32     ; 42
		sub r2, r1, r0      ; 32
		rsb r3, r0, #100    ; 90
		mvn r4, r2          ; ^32
		and r5, r1, #0xF    ; 10
		orr r6, r5, #0x30   ; 0x3A
		eor r7, r6, r5      ; 0x30
		bic r8, r1, #2      ; 40
		lsl r9, r0, #3      ; 80
		lsr r10, r9, #2     ; 20
		li  r11, 0x80000000
		asr r11, r11, #31   ; 0xFFFFFFFF
		mul r12, r0, r0     ; 100
		mla r12, r0, r0, r1 ; 142
		mov r0, r12
		swi #0
	`)
	want := map[int]uint32{
		1: 42, 2: 32, 3: 90, 4: ^uint32(32), 5: 10, 6: 0x3A, 7: 0x30,
		8: 40, 9: 80, 10: 20, 11: 0xFFFFFFFF, 12: 142,
	}
	for r, w := range want {
		if got := cpu.Reg(r); got != w {
			t.Errorf("r%d = %#x, want %#x", r, got, w)
		}
	}
	if cpu.ExitCode() != 142 {
		t.Errorf("exit = %d, want 142", cpu.ExitCode())
	}
}

func TestCPULoopAndFlags(t *testing.T) {
	cpu := runProgram(t, `
			mov r0, #0      ; sum
			mov r1, #10     ; i
		loop:	add r0, r0, r1
			sub r1, r1, #1
			cmp r1, #0
			bne loop
			swi #0
	`)
	if cpu.ExitCode() != 55 {
		t.Errorf("sum = %d, want 55", cpu.ExitCode())
	}
}

func TestCPUSignedConditions(t *testing.T) {
	// -5 < 3 via blt requires correct N/V handling.
	cpu := runProgram(t, `
			li  r1, 0xFFFFFFFB   ; -5
			mov r2, #3
			cmp r1, r2
			blt less
			mov r0, #0
			swi #0
		less:	mov r0, #1
			swi #0
	`)
	if cpu.ExitCode() != 1 {
		t.Error("signed comparison failed")
	}
}

func TestCPUUnsignedConditions(t *testing.T) {
	// 0xFFFFFFFB is unsigned-greater than 3: bcs (unsigned ≥) taken.
	cpu := runProgram(t, `
			li  r1, 0xFFFFFFFB
			mov r2, #3
			cmp r1, r2
			bcs above
			mov r0, #0
			swi #0
		above:	mov r0, #1
			swi #0
	`)
	if cpu.ExitCode() != 1 {
		t.Error("unsigned comparison failed")
	}
}

func TestCPUFunctionCall(t *testing.T) {
	cpu := runProgram(t, `
			mov r0, #5
			bl  double
			bl  double
			swi #0          ; exit 20
		double:	add r0, r0, r0
			ret
	`)
	if cpu.ExitCode() != 20 {
		t.Errorf("exit = %d, want 20", cpu.ExitCode())
	}
}

func TestCPULoadStoreLocalMemory(t *testing.T) {
	cpu := runProgram(t, `
			li   r1, data
			ldr  r2, [r1]        ; 0x11223344
			ldrh r3, [r1]        ; 0x3344
			ldrb r4, [r1, #3]    ; 0x11
			str  r2, [r1, #8]
			ldr  r5, [r1, #8]
			strh r3, [r1, #12]
			strb r4, [r1, #14]
			ldr  r6, [r1, #12]   ; 0x00113344
			mov  r0, #0
			swi  #0
		data:	.word 0x11223344
			.space 16
	`)
	if got := cpu.Reg(2); got != 0x11223344 {
		t.Errorf("r2 = %#x", got)
	}
	if got := cpu.Reg(3); got != 0x3344 {
		t.Errorf("r3 = %#x", got)
	}
	if got := cpu.Reg(4); got != 0x11 {
		t.Errorf("r4 = %#x", got)
	}
	if got := cpu.Reg(5); got != 0x11223344 {
		t.Errorf("r5 = %#x", got)
	}
	if got := cpu.Reg(6); got != 0x00113344 {
		t.Errorf("r6 = %#x", got)
	}
}

func TestCPUConsoleOutput(t *testing.T) {
	cpu := runProgram(t, `
		mov r0, #'H'
		swi #1
		mov r0, #'i'
		swi #1
		mov r0, #42
		swi #2
		mov r0, #0
		swi #0
	`)
	if got := cpu.Console(); got != "Hi42\n" {
		t.Errorf("console = %q, want %q", got, "Hi42\n")
	}
}

func TestCPUCycleCounterService(t *testing.T) {
	cpu := runProgram(t, `
		nop
		nop
		swi #3      ; r0 = cycles
		mov r1, r0
		swi #0
	`)
	if got := cpu.Reg(1); got != 2 {
		t.Errorf("cycle readback = %d, want 2", got)
	}
}

func TestCPUOneInstructionPerCycle(t *testing.T) {
	cpu := runProgram(t, `
		mov r0, #1
		mov r0, #2
		mov r0, #3
		hlt
	`)
	if cpu.Icount != 4 {
		t.Errorf("Icount = %d, want 4", cpu.Icount)
	}
	if cpu.Cycles != 4 {
		t.Errorf("Cycles = %d, want 4", cpu.Cycles)
	}
}

func TestCPUFaults(t *testing.T) {
	cases := []struct {
		name, src, want string
	}{
		{"fetch oob", "li r1, 0x100000\nbx r1\nhlt", "instruction fetch out of bounds"},
		{"undefined instruction", ".word 0xF0000000\nhlt", "undefined instruction"},
		{"load oob", "li r1, 0x100000\nldr r0, [r1]\nhlt", "out of bounds"},
		{"store oob", "li r1, 0xFFFE0000\nstr r0, [r1]\nhlt", "out of bounds"},
		{"undefined swi", "swi #999\nhlt", "undefined SWI"},
		{"bx misaligned", "mov r1, #2\nbx r1\nhlt", "instruction fetch out of bounds"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			prog, err := isa.Assemble(c.src)
			if err != nil {
				t.Fatalf("assemble: %v", err)
			}
			k := sim.New()
			cpu, err := New(k, Config{Prog: prog.Code})
			if err != nil {
				t.Fatal(err)
			}
			_, err = k.RunUntil(cpu.Halted, 10000)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("err = %v, want substring %q", err, c.want)
			}
		})
	}
}

func TestCPUProgramTooLarge(t *testing.T) {
	if _, err := New(sim.New(), Config{Prog: make([]byte, 100), MemSize: 64}); err == nil {
		t.Error("oversized program accepted")
	}
}

func TestCPUBridgeNoLinkFaults(t *testing.T) {
	prog, err := isa.Assemble(`
		li  r1, 0xFFFF0000
		mov r0, #1
		str r0, [r1, #0x18]   ; GO with no interconnect
		hlt
	`)
	if err != nil {
		t.Fatal(err)
	}
	k := sim.New()
	cpu, err := New(k, Config{Prog: prog.Code})
	if err != nil {
		t.Fatal(err)
	}
	_, err = k.RunUntil(cpu.Halted, 1000)
	if err == nil || !strings.Contains(err.Error(), "no interconnect") {
		t.Errorf("err = %v", err)
	}
}

// The canonical ISS↔wrapper session: allocate, store, load, free, all
// from assembly through the memory-mapped bridge.
const mallocProgram = `
	.equ MMIO,   0xFFFF0000
	.equ OP,     0x00
	.equ SM,     0x04
	.equ VPTR,   0x08
	.equ DATA,   0x0C
	.equ DIM,    0x10
	.equ DTYPE,  0x14
	.equ GO,     0x18
	.equ RESULT, 0x1C

		li   r10, MMIO

		; vptr = alloc(dim=16, type=u32)
		mov  r0, #2          ; OpAlloc
		str  r0, [r10, #OP]
		mov  r0, #0
		str  r0, [r10, #SM]
		mov  r0, #16
		str  r0, [r10, #DIM]
		mov  r0, #2          ; U32
		str  r0, [r10, #DTYPE]
		str  r0, [r10, #GO]
		ldr  r1, [r10, #GO]  ; status
		cmp  r1, #0
		bne  fail
		ldr  r2, [r10, #RESULT] ; vptr

		; write 0xABC to vptr+8 (element 2)
		mov  r0, #1          ; OpWrite
		str  r0, [r10, #OP]
		add  r0, r2, #8
		str  r0, [r10, #VPTR]
		li   r0, 0xABC
		str  r0, [r10, #DATA]
		str  r0, [r10, #GO]
		ldr  r1, [r10, #GO]
		cmp  r1, #0
		bne  fail

		; read it back
		mov  r0, #0          ; OpRead
		str  r0, [r10, #OP]
		add  r0, r2, #8
		str  r0, [r10, #VPTR]
		str  r0, [r10, #GO]
		ldr  r1, [r10, #GO]
		cmp  r1, #0
		bne  fail
		ldr  r3, [r10, #RESULT]

		; free(vptr)
		mov  r0, #3          ; OpFree
		str  r0, [r10, #OP]
		str  r2, [r10, #VPTR]
		str  r0, [r10, #GO]
		ldr  r1, [r10, #GO]
		cmp  r1, #0
		bne  fail

		mov  r0, r3          ; exit code = datum read back
		swi  #0
	fail:	li   r0, 0xDEAD
		swi  #0
`

func TestCPUBridgeMallocSession(t *testing.T) {
	cpu, w := runWithWrapper(t, mallocProgram, core.Config{Delays: core.DefaultDelays()})
	if cpu.ExitCode() != 0xABC {
		t.Fatalf("exit = %#x, want 0xABC", cpu.ExitCode())
	}
	st := w.Stats()
	if st.Ops[bus.OpAlloc] != 1 || st.Ops[bus.OpWrite] != 1 || st.Ops[bus.OpRead] != 1 || st.Ops[bus.OpFree] != 1 {
		t.Errorf("wrapper ops = %v", st.Ops)
	}
	if w.Table().Len() != 0 {
		t.Error("allocation not freed")
	}
	if cpu.StallCycles == 0 {
		t.Error("bridge transactions must stall the CPU")
	}
}

func TestCPUBridgeCapacityStatus(t *testing.T) {
	// Allocation denied by finite capacity reads back as status 2+CAPACITY.
	cpu, _ := runWithWrapper(t, `
		li   r10, 0xFFFF0000
		mov  r0, #2            ; OpAlloc
		str  r0, [r10, #0x00]
		li   r0, 4096
		str  r0, [r10, #0x10]  ; DIM = 4096 bytes
		mov  r0, #0            ; U8
		str  r0, [r10, #0x14]
		str  r0, [r10, #0x18]  ; GO
		ldr  r0, [r10, #0x18]  ; status
		swi  #0
	`, core.Config{TotalSize: 64, Delays: core.DefaultDelays()})
	want := uint32(StatusErrBase + uint32(bus.ErrCapacity))
	if cpu.ExitCode() != want {
		t.Errorf("status = %d, want %d", cpu.ExitCode(), want)
	}
}

func TestCPUBridgeBurstViaIOArray(t *testing.T) {
	// Fill the staging array, burst-write it, burst-read it back, and
	// sum the returned elements.
	cpu, w := runWithWrapper(t, `
		li   r10, 0xFFFF0000
		.equ N, 8

		; staging[i] = i+1
		mov  r1, #0
	fill:	add  r2, r1, #1
		lsl  r3, r1, #2
		add  r3, r3, #0x100
		add  r3, r3, r10     ; &staging[i]... via register add
		str  r2, [r3]
		add  r1, r1, #1
		cmp  r1, #N
		bne  fill

		; vptr = alloc(N, u32)
		mov  r0, #2
		str  r0, [r10, #0x00]
		mov  r0, #N
		str  r0, [r10, #0x10]
		mov  r0, #2
		str  r0, [r10, #0x14]
		str  r0, [r10, #0x18]
		ldr  r1, [r10, #0x18]
		cmp  r1, #0
		bne  fail
		ldr  r4, [r10, #0x1C]  ; vptr

		; write burst staging[0:N] → mem
		mov  r0, #5            ; OpWriteBurst
		str  r0, [r10, #0x00]
		str  r4, [r10, #0x08]
		mov  r0, #N
		str  r0, [r10, #0x10]
		str  r0, [r10, #0x18]
		ldr  r1, [r10, #0x18]
		cmp  r1, #0
		bne  fail

		; clobber staging
		mov  r1, #0
	clob:	lsl  r3, r1, #2
		add  r3, r3, #0x100
		add  r3, r3, r10
		mov  r2, #0
		str  r2, [r3]
		add  r1, r1, #1
		cmp  r1, #N
		bne  clob

		; read burst back
		mov  r0, #4            ; OpReadBurst
		str  r0, [r10, #0x00]
		str  r4, [r10, #0x08]
		mov  r0, #N
		str  r0, [r10, #0x10]
		str  r0, [r10, #0x18]
		ldr  r1, [r10, #0x18]
		cmp  r1, #0
		bne  fail

		; sum staging
		mov  r0, #0
		mov  r1, #0
	sum:	lsl  r3, r1, #2
		add  r3, r3, #0x100
		add  r3, r3, r10
		ldr  r2, [r3]
		add  r0, r0, r2
		add  r1, r1, #1
		cmp  r1, #N
		bne  sum
		swi  #0               ; exit = 36
	fail:	li   r0, 0xDEAD
		swi  #0
	`, core.Config{Delays: core.DefaultDelays()})
	if cpu.ExitCode() != 36 {
		t.Fatalf("exit = %d, want 36", cpu.ExitCode())
	}
	if st := w.Stats(); st.BurstElems != 16 {
		t.Errorf("BurstElems = %d, want 16", st.BurstElems)
	}
}

func TestCPUAnnulledInstructionCostsOneCycle(t *testing.T) {
	cpu := runProgram(t, `
		mov r0, #1
		cmp r0, #2
		beq never     ; annulled
		hlt
	never:	hlt
	`)
	if cpu.Icount != 4 {
		t.Errorf("Icount = %d, want 4 (annulled branch still retires)", cpu.Icount)
	}
}

func TestCPUBridgeRegisterReadback(t *testing.T) {
	cpu := runProgram(t, `
		li  r10, 0xFFFF0000
		mov r0, #7
		str r0, [r10, #0x04]   ; SM
		ldr r1, [r10, #0x04]
		mov r0, #0
		swi #0
	`)
	_ = cpu
	if got := cpu.Reg(1); got != 7 {
		t.Errorf("SM readback = %d, want 7", got)
	}
}

func TestCPUPushPopNestedCalls(t *testing.T) {
	// Recursive factorial through the stack: exercises push/pop pseudo
	// expansions, sp discipline and nested bl/ret.
	cpu := runProgram(t, `
		li   sp, 0x8000
		mov  r0, #5
		bl   fact
		swi  #0          ; exit = 120

	fact:	cmp  r0, #1
		ble  base
		push r0, lr
		sub  r0, r0, #1
		bl   fact
		pop  r1, lr      ; r1 = saved n
		mul  r0, r0, r1
		ret
	base:	mov  r0, #1
		ret
	`)
	if cpu.ExitCode() != 120 {
		t.Errorf("fact(5) = %d, want 120", cpu.ExitCode())
	}
}

// TestCPUSelfModifyingCode is the decode-cache invalidation regression:
// a program overwrites one of its own (already executed, already cached)
// instructions and re-executes it, and must observe the new instruction.
// The cache validates every hit by comparing the cached word against the
// word actually fetched, so a store to code memory invalidates by
// construction — even when the store and the re-execution land in the
// same batch run. All four fast-path combinations must agree with the
// plain interpreter on result, instruction count and cycle count.
func TestCPUSelfModifyingCode(t *testing.T) {
	prog, err := isa.Assemble(`
		li   r5, patch       ; address of the instruction to overwrite
		li   r6, tmpl        ; address of the replacement word
		mov  r3, #0
		mov  r0, #0
	patch:	add  r3, r3, #1      ; second pass: replaced by add r3, r3, #100
		cmp  r0, #0
		bne  done
		ldr  r7, [r6]
		str  r7, [r5]        ; overwrite the patch slot
		mov  r0, #1
		b    patch
	done:	mov  r0, r3
		swi  #0
	tmpl:	add  r3, r3, #100
	`)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	var refIcount, refCycles uint64
	for i, cfg := range []Config{
		{}, // plain interpreter reference
		{Batch: true},
		{DecodeCache: true},
		{Batch: true, DecodeCache: true},
	} {
		cfg.Prog = prog.Code
		k := sim.New()
		cpu, err := New(k, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := k.RunUntil(cpu.Halted, 1_000_000); err != nil {
			t.Fatalf("cfg %d: did not halt: %v (pc=%#x)", i, err, cpu.PC())
		}
		if got := cpu.ExitCode(); got != 101 {
			t.Errorf("cfg %d (batch=%v dc=%v): exit = %d, want 101 (stale decode executed)",
				i, cfg.Batch, cfg.DecodeCache, got)
		}
		if i == 0 {
			refIcount, refCycles = cpu.Icount, cpu.Cycles
		} else if cpu.Icount != refIcount || cpu.Cycles != refCycles {
			t.Errorf("cfg %d: icount/cycles = %d/%d, want %d/%d",
				i, cpu.Icount, cpu.Cycles, refIcount, refCycles)
		}
	}
}
