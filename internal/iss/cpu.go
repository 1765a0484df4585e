package iss

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"repro/internal/bus"
	"repro/internal/isa"
	"repro/internal/sim"
)

// Config parameterizes one CPU.
type Config struct {
	// Name labels the module; also used as the stats row label.
	Name string
	// MemSize is the local memory size in bytes (default 64 KiB). The
	// program image is loaded at address 0.
	MemSize uint32
	// Prog is the memory image produced by isa.Assemble.
	Prog []byte
	// Port is the master port toward the interconnect; nil is legal for
	// pure-compute programs (touching the bridge then faults).
	Port *bus.Port
	// MMIOBase overrides the bridge window base (default MMIOBase).
	MMIOBase uint32
	// Batch enables instruction batching: a running CPU executes a whole
	// run of provably CPU-local instructions inside one Tick and then
	// sleeps through the cycles the run pre-paid (its "lead"), so the
	// kernel crosses far fewer scheduling points per retired
	// instruction. Cycle-exact: any instruction that can touch shared
	// state — a bridge GO store, HLT, SWI exit, anything that would
	// fault — ends the run and executes on the tick of its own cycle,
	// so ports, signals, halts and faults all happen at exactly the
	// cycles of the unbatched engine. Only host code inspecting a CPU
	// *between* cycles can tell the difference: Icount, PC and register
	// state move in run-sized jumps (the same caveat as the kernel's
	// idle-skip machinery, see sim.Sleeper).
	Batch bool
	// DecodeCache memoizes fetch+decode by PC over the program image.
	// Every hit revalidates by comparing the cached word against local
	// memory, so self-modifying code invalidates stale entries by
	// construction.
	DecodeCache bool
}

// batchQuantum aligns batched runs to absolute cycle boundaries: a run
// never crosses a multiple of batchQuantum. Alignment keeps the CPUs of
// a symmetric multi-core configuration bursting on the same stepped
// cycles, so the spans between bursts are idle for every CPU at once
// instead of staggering into serialized singles.
const batchQuantum = 256

// dcEntry is one decode-cache slot: the instruction word it was filled
// from and the decoded form. ok distinguishes "never filled" from a
// cached all-zero word (a valid encoding).
type dcEntry struct {
	word uint32
	ok   bool
	in   isa.Instr
}

type cpuState uint8

const (
	cpuRunning cpuState = iota
	cpuStalled
	cpuHalted
)

// CPU is the armlet instruction-set simulator. One instruction retires
// per cycle; loads and stores hitting the MMIO window talk to the
// shared-memory bridge, and a GO write stalls the CPU until the
// interconnect delivers the response.
type CPU struct {
	name     string
	k        *sim.Kernel
	mem      []byte
	port     *bus.Port
	mmioBase uint32

	regs       [16]uint32
	pc         uint32
	n, z, c, v bool

	state    cpuState
	exitCode uint32

	// batching state: lead is the number of upcoming cycles already
	// executed by a batched run (the CPU sleeps through them: Tick and
	// Skip just consume lead); dc is the decode cache over the program
	// image (nil when disabled).
	batch bool
	lead  uint64
	dcOn  bool
	dc    []dcEntry

	// bridge registers
	brOp, brSM, brVPtr, brData, brDim, brDType uint32
	brStatus, brResult                         uint32
	staging                                    [IOWords]uint32

	console bytes.Buffer

	// Icount is the number of retired instructions; StallCycles counts
	// cycles spent waiting on the interconnect; Cycles counts all ticks
	// while not halted.
	Icount      uint64
	StallCycles uint64
	Cycles      uint64
}

// New creates a CPU, loads the program image, and registers the module
// with the kernel.
func New(k *sim.Kernel, cfg Config) (*CPU, error) {
	if cfg.MemSize == 0 {
		cfg.MemSize = 64 << 10
	}
	if cfg.Name == "" {
		cfg.Name = "cpu"
	}
	if cfg.MMIOBase == 0 {
		cfg.MMIOBase = MMIOBase
	}
	if uint64(len(cfg.Prog)) > uint64(cfg.MemSize) {
		return nil, fmt.Errorf("iss: program (%d bytes) exceeds memory (%d bytes)", len(cfg.Prog), cfg.MemSize)
	}
	c := &CPU{
		name:     cfg.Name,
		k:        k,
		mem:      make([]byte, cfg.MemSize),
		port:     cfg.Port,
		mmioBase: cfg.MMIOBase,
		batch:    cfg.Batch,
		dcOn:     cfg.DecodeCache,
	}
	copy(c.mem, cfg.Prog)
	if cfg.DecodeCache && len(cfg.Prog) >= 4 {
		// Sized to the program image: that is where the PC lives in
		// practice, and execution outside it falls back to plain decode
		// (still correct, just uncached).
		c.dc = make([]dcEntry, len(cfg.Prog)/4)
	}
	k.Add(c)
	return c, nil
}

// Name implements sim.Module.
func (c *CPU) Name() string { return c.name }

// Halted reports whether the CPU has executed HLT or SWI exit.
func (c *CPU) Halted() bool { return c.state == cpuHalted }

// ExitCode returns r0 at the time of SWI exit (0 for HLT).
func (c *CPU) ExitCode() uint32 { return c.exitCode }

// Console returns everything the program printed via SWI services.
func (c *CPU) Console() string { return c.console.String() }

// Reg returns the current value of register i.
func (c *CPU) Reg(i int) uint32 { return c.regs[i] }

// PC returns the current program counter.
func (c *CPU) PC() uint32 { return c.pc }

// fault aborts the simulation: program errors on a model CPU have no
// recovery path and indicate a broken test program.
func (c *CPU) fault(format string, args ...any) {
	c.state = cpuHalted
	c.k.Fault(fmt.Errorf("%s: pc=%#x: %s", c.name, c.pc, fmt.Sprintf(format, args...)))
}

// Tick implements sim.Module.
func (c *CPU) Tick(cycle uint64) {
	switch c.state {
	case cpuHalted:
		return
	case cpuStalled:
		c.Cycles++
		c.StallCycles++
		resp, ok := c.port.Response()
		if !ok {
			return
		}
		c.completeBridge(resp)
		c.state = cpuRunning
	case cpuRunning:
		if c.lead > 0 {
			// This cycle was pre-executed by a batched run (Cycles was
			// counted then); consume the lead.
			c.lead--
			return
		}
		if c.batch {
			c.batchRun(cycle)
			return
		}
		c.Cycles++
		c.step(cycle)
	}
}

// NextWake implements sim.Sleeper. A running CPU retires an instruction
// every cycle and can never sleep — unless a batched run pre-executed
// its next lead cycles, which makes it a pure-wait module until the
// lead is consumed. A halted CPU never runs again; a stalled CPU
// resumes only when the interconnect's completion commits, so WakeNever
// plus the kernel's dirty-signal wakeup is exact.
func (c *CPU) NextWake(now uint64) uint64 {
	switch c.state {
	case cpuHalted, cpuStalled:
		return sim.WakeNever
	default:
		return now + c.lead
	}
}

// Skip implements sim.Sleeper: skipped stall cycles still count as CPU
// cycles spent waiting on the interconnect; skipped lead cycles were
// counted when the batched run executed them, so they only consume
// lead. A halted CPU counts nothing, exactly as its Tick counts
// nothing.
func (c *CPU) Skip(n uint64) {
	switch c.state {
	case cpuStalled:
		c.Cycles += n
		c.StallCycles += n
	case cpuRunning:
		if n <= c.lead {
			c.lead -= n
		}
	}
}

// decode returns the decoded instruction at pc, consulting the decode
// cache when enabled. ok is false for undefined encodings (the caller
// owns the fault, with its diagnostic re-derived from a plain Decode).
func (c *CPU) decode(pc, word uint32) (in isa.Instr, ok bool) {
	if i := int(pc >> 2); c.dc != nil && i < len(c.dc) {
		e := &c.dc[i]
		if e.ok && e.word == word {
			return e.in, true
		}
		in, err := isa.Decode(word)
		if err != nil {
			e.ok = false
			return in, false
		}
		*e = dcEntry{word: word, ok: true, in: in}
		return in, true
	}
	in, err := isa.Decode(word)
	return in, err == nil
}

// batchRun executes a run of instructions starting at the current
// cycle, as long as each next instruction is provably local (see
// localSafe): such instructions touch only CPU-private state, so
// executing them inside one Tick is indistinguishable — at every module
// and signal boundary — from executing them one tick at a time. The
// first non-local instruction either runs immediately (when it is this
// cycle's instruction) through the plain path, or ends the run and
// executes on the tick of its own cycle after the lead drains. Runs
// never cross a batchQuantum boundary, keeping symmetric CPUs aligned.
func (c *CPU) batchRun(cycle uint64) {
	j := uint64(0)
	for {
		in, safe := c.peekLocal()
		if !safe {
			if j == 0 {
				c.Cycles++
				c.step(cycle)
				return
			}
			break
		}
		c.exec(in, cycle+j)
		j++
		if (cycle+j)%batchQuantum == 0 {
			break
		}
	}
	c.Cycles += j
	c.lead = j - 1
}

// peekLocal fetches and decodes the next instruction without executing
// it and reports whether it is provably local: its execution cannot
// touch anything outside the CPU (no port traffic, no halt, no fault,
// no kernel interaction). The check mirrors the fault and shared-state
// conditions of exec exactly; anything it cannot prove local is
// reported unsafe and re-executes through the plain per-cycle path.
func (c *CPU) peekLocal() (isa.Instr, bool) {
	if c.pc%4 != 0 || uint64(c.pc)+4 > uint64(len(c.mem)) {
		return isa.Instr{}, false // would fault on fetch
	}
	word := binary.LittleEndian.Uint32(c.mem[c.pc:])
	in, ok := c.decode(c.pc, word)
	if !ok {
		return in, false // would fault on decode
	}
	if !in.Cond.Holds(c.n, c.z, c.c, c.v) {
		return in, true // retires as a no-op regardless of class
	}
	switch in.Class {
	case isa.ClassMem:
		addr := c.regs[in.Rn] + uint32(in.Off)
		if addr >= c.mmioBase && addr < c.mmioBase+MMIOSize {
			if in.Mem.Width() != 4 || addr%4 != 0 {
				return in, false // would fault: bridge access must be word ldr/str
			}
			off := addr - c.mmioBase
			if off >= IOArray {
				return in, true // staging array: CPU-private
			}
			if in.Mem.IsLoad() {
				return in, off <= RegCycles // defined registers are private reads
			}
			// Stores: GO issues a transaction; anything past RegDType
			// is undefined and would fault.
			return in, off <= RegDType
		}
		return in, uint64(addr)+uint64(in.Mem.Width()) <= uint64(len(c.mem))
	case isa.ClassSWI:
		switch in.Imm {
		case isa.SWIPutc, isa.SWIPutInt, isa.SWICycles:
			return in, true // console buffer and the tick's own cycle: private
		default:
			return in, false // exit, or undefined service (would fault)
		}
	case isa.ClassSys:
		return in, in.Sys == isa.NOP // HLT ends the run
	default:
		// Data processing, branches, multiplies, movw/movt: registers
		// and flags only.
		return in, true
	}
}

// step fetches, decodes and executes one instruction.
func (c *CPU) step(cycle uint64) {
	if c.pc%4 != 0 || uint64(c.pc)+4 > uint64(len(c.mem)) {
		c.fault("instruction fetch out of bounds")
		return
	}
	word := binary.LittleEndian.Uint32(c.mem[c.pc:])
	in, ok := c.decode(c.pc, word)
	if !ok {
		_, err := isa.Decode(word)
		c.fault("undefined instruction %#08x: %v", word, err)
		return
	}
	c.exec(in, cycle)
}

// exec executes one decoded instruction.
func (c *CPU) exec(in isa.Instr, cycle uint64) {
	c.Icount++
	if !in.Cond.Holds(c.n, c.z, c.c, c.v) {
		c.pc += 4
		return
	}
	next := c.pc + 4
	switch in.Class {
	case isa.ClassDPReg, isa.ClassDPImm:
		op2 := in.Imm
		if in.Class == isa.ClassDPReg {
			op2 = c.regs[in.Rm]
		}
		c.dataProcessing(in.DP, in.Rd, c.regs[in.Rn], op2)

	case isa.ClassMem:
		addr := c.regs[in.Rn] + uint32(in.Off)
		if !c.memAccess(in, addr, cycle) {
			return // fault or stall; pc already handled
		}

	case isa.ClassBranch:
		switch in.Br {
		case isa.BX:
			next = c.regs[in.Rm]
		case isa.BL:
			c.regs[isa.RegLR] = c.pc + 4
			next = uint32(int64(c.pc) + 4 + int64(in.Off)*4)
		default:
			next = uint32(int64(c.pc) + 4 + int64(in.Off)*4)
		}

	case isa.ClassMul:
		if in.Mul == isa.MLA {
			c.regs[in.Rd] = c.regs[in.Rn]*c.regs[in.Rm] + c.regs[in.Ra]
		} else {
			c.regs[in.Rd] = c.regs[in.Rn] * c.regs[in.Rm]
		}

	case isa.ClassSWI:
		if !c.swi(in.Imm, cycle) {
			return // halted
		}

	case isa.ClassMovW:
		if in.High {
			c.regs[in.Rd] = c.regs[in.Rd]&0xFFFF | in.Imm<<16
		} else {
			c.regs[in.Rd] = c.regs[in.Rd]&0xFFFF0000 | in.Imm
		}

	case isa.ClassSys:
		if in.Sys == isa.HLT {
			c.state = cpuHalted
			return
		}
	}
	if c.state == cpuRunning {
		c.pc = next
	}
}

// dataProcessing executes a DP operation with resolved operands.
func (c *CPU) dataProcessing(op isa.DPOp, rd uint8, rn, op2 uint32) {
	switch op {
	case isa.MOV:
		c.regs[rd] = op2
	case isa.MVN:
		c.regs[rd] = ^op2
	case isa.ADD:
		c.regs[rd] = rn + op2
	case isa.SUB:
		c.regs[rd] = rn - op2
	case isa.RSB:
		c.regs[rd] = op2 - rn
	case isa.AND:
		c.regs[rd] = rn & op2
	case isa.ORR:
		c.regs[rd] = rn | op2
	case isa.EOR:
		c.regs[rd] = rn ^ op2
	case isa.BIC:
		c.regs[rd] = rn &^ op2
	case isa.LSL:
		c.regs[rd] = rn << (op2 & 31)
	case isa.LSR:
		c.regs[rd] = rn >> (op2 & 31)
	case isa.ASR:
		c.regs[rd] = uint32(int32(rn) >> (op2 & 31))
	case isa.CMP:
		res := rn - op2
		c.n, c.z = res>>31 == 1, res == 0
		c.c = rn >= op2
		c.v = (rn^op2)&(rn^res)>>31 == 1
	case isa.CMN:
		res := rn + op2
		c.n, c.z = res>>31 == 1, res == 0
		c.c = res < rn
		c.v = (^(rn ^ op2))&(rn^res)>>31 == 1
	case isa.TST:
		res := rn & op2
		c.n, c.z = res>>31 == 1, res == 0
	}
}

// memAccess performs a load or store, routing MMIO-window addresses to
// the bridge. It returns false when the CPU faulted or stalled (in which
// case pc has been left pointing at the *next* instruction for stalls).
func (c *CPU) memAccess(in isa.Instr, addr uint32, cycle uint64) bool {
	if addr >= c.mmioBase && addr < c.mmioBase+MMIOSize {
		return c.bridgeAccess(in, addr-c.mmioBase, cycle)
	}
	w := in.Mem.Width()
	if uint64(addr)+uint64(w) > uint64(len(c.mem)) {
		c.fault("%s at %#x out of bounds", in.Mem, addr)
		return false
	}
	if in.Mem.IsLoad() {
		switch w {
		case 1:
			c.regs[in.Rd] = uint32(c.mem[addr])
		case 2:
			c.regs[in.Rd] = uint32(binary.LittleEndian.Uint16(c.mem[addr:]))
		default:
			c.regs[in.Rd] = binary.LittleEndian.Uint32(c.mem[addr:])
		}
	} else {
		v := c.regs[in.Rd]
		switch w {
		case 1:
			c.mem[addr] = byte(v)
		case 2:
			binary.LittleEndian.PutUint16(c.mem[addr:], uint16(v))
		default:
			binary.LittleEndian.PutUint32(c.mem[addr:], v)
		}
	}
	return true
}

// bridgeAccess handles a load/store at the given offset inside the MMIO
// window. cycle is the cycle the instruction executes at — under a
// batched run that may be ahead of the kernel's clock, which is why
// RegCycles reads it rather than the kernel.
func (c *CPU) bridgeAccess(in isa.Instr, off uint32, cycle uint64) bool {
	if in.Mem.Width() != 4 || off%4 != 0 {
		c.fault("bridge access must be word-aligned ldr/str (off=%#x)", off)
		return false
	}
	if off >= IOArray {
		idx := (off - IOArray) / 4
		if in.Mem.IsLoad() {
			c.regs[in.Rd] = c.staging[idx]
		} else {
			c.staging[idx] = c.regs[in.Rd]
		}
		return true
	}
	if in.Mem.IsLoad() {
		switch off {
		case RegOp:
			c.regs[in.Rd] = c.brOp
		case RegSM:
			c.regs[in.Rd] = c.brSM
		case RegVPtr:
			c.regs[in.Rd] = c.brVPtr
		case RegData:
			c.regs[in.Rd] = c.brData
		case RegDim:
			c.regs[in.Rd] = c.brDim
		case RegDType:
			c.regs[in.Rd] = c.brDType
		case RegGo:
			c.regs[in.Rd] = c.brStatus
		case RegResult:
			c.regs[in.Rd] = c.brResult
		case RegCycles:
			c.regs[in.Rd] = uint32(cycle)
		default:
			c.fault("read of undefined bridge register %#x", off)
			return false
		}
		return true
	}
	v := c.regs[in.Rd]
	switch off {
	case RegOp:
		c.brOp = v
	case RegSM:
		c.brSM = v
	case RegVPtr:
		c.brVPtr = v
	case RegData:
		c.brData = v
	case RegDim:
		c.brDim = v
	case RegDType:
		c.brDType = v
	case RegGo:
		return c.issueBridge()
	default:
		c.fault("write to undefined bridge register %#x", off)
		return false
	}
	return true
}

// issueBridge launches the transaction described by the bridge registers
// and stalls the CPU. pc advances first so execution resumes after the
// GO store.
func (c *CPU) issueBridge() bool {
	if c.port == nil {
		c.fault("bridge GO with no interconnect attached")
		return false
	}
	op := bus.Op(c.brOp)
	if int(c.brOp) >= bus.NumOps {
		c.brStatus = StatusErrBase + uint32(bus.ErrBadOp)
		return true // completes immediately, no stall
	}
	req := bus.Request{
		Op:    op,
		SM:    int(c.brSM),
		VPtr:  c.brVPtr,
		Data:  c.brData,
		Dim:   c.brDim,
		DType: bus.DataType(c.brDType),
	}
	switch op {
	case bus.OpWriteBurst:
		if c.brDim > IOWords {
			c.brStatus = StatusErrBase + uint32(bus.ErrBounds)
			return true
		}
		req.Burst = append([]uint32(nil), c.staging[:c.brDim]...)
	case bus.OpReadBurst:
		if c.brDim > IOWords {
			c.brStatus = StatusErrBase + uint32(bus.ErrBounds)
			return true
		}
	}
	c.port.Issue(req)
	c.pc += 4 // resume after the GO store once unstalled
	c.state = cpuStalled
	return false
}

// completeBridge records a transaction completion into the bridge
// registers and staging array.
func (c *CPU) completeBridge(resp bus.Response) {
	if resp.Err != bus.OK {
		c.brStatus = StatusErrBase + uint32(resp.Err)
		c.brResult = 0
		return
	}
	c.brStatus = StatusOK
	switch bus.Op(c.brOp) {
	case bus.OpAlloc:
		c.brResult = resp.VPtr
	case bus.OpRead:
		c.brResult = resp.Data
	case bus.OpReadBurst:
		copy(c.staging[:], resp.Burst)
		c.brResult = uint32(len(resp.Burst))
	default:
		c.brResult = 0
	}
}

// swi dispatches a software-interrupt service. It returns false when the
// CPU halted.
func (c *CPU) swi(num uint32, cycle uint64) bool {
	switch num {
	case isa.SWIExit:
		c.exitCode = c.regs[0]
		c.state = cpuHalted
		return false
	case isa.SWIPutc:
		c.console.WriteByte(byte(c.regs[0]))
	case isa.SWIPutInt:
		fmt.Fprintf(&c.console, "%d\n", c.regs[0])
	case isa.SWICycles:
		c.regs[0] = uint32(cycle)
	default:
		c.fault("undefined SWI service %d", num)
		return false
	}
	return true
}
