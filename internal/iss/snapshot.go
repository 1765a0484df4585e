package iss

import (
	"fmt"

	"repro/internal/snapshot"
)

// SaveState implements snapshot.Saver: the full architectural state
// (registers, flags, PC, run state), the batch lead, the bridge
// registers and staging buffer, the console output, the counters, and
// the entire memory image — program included, so a snapshot restores
// without re-assembling the workload.
//
// The decode cache is deliberately NOT saved: it is host-only
// memoization, revalidated per fetch against the instruction word
// (self-modifying code already relies on that), so an empty cache is
// behavior- and timing-identical. Only its capacity travels, letting
// restore re-create an equally effective cache.
func (c *CPU) SaveState(enc *snapshot.Encoder) {
	for _, r := range c.regs {
		enc.U32(r)
	}
	enc.U32(c.pc)
	enc.Bool(c.n)
	enc.Bool(c.z)
	enc.Bool(c.c)
	enc.Bool(c.v)
	enc.U8(uint8(c.state))
	enc.U32(c.exitCode)
	enc.U64(c.lead)
	enc.Int(len(c.dc))
	enc.U32(c.brOp)
	enc.U32(c.brSM)
	enc.U32(c.brVPtr)
	enc.U32(c.brData)
	enc.U32(c.brDim)
	enc.U32(c.brDType)
	enc.U32(c.brStatus)
	enc.U32(c.brResult)
	for _, w := range c.staging {
		enc.U32(w)
	}
	enc.Bytes32(c.console.Bytes())
	enc.U64(c.Icount)
	enc.U64(c.StallCycles)
	enc.U64(c.Cycles)
	enc.U32(c.mmioBase)
	enc.Bytes32(c.mem)
}

// RestoreState implements snapshot.Restorer. The CPU must have been
// rebuilt with the same memory size and MMIO base; the program image
// arrives inside the memory bytes, so the rebuild may use an empty
// program.
func (c *CPU) RestoreState(dec *snapshot.Decoder) error {
	for i := range c.regs {
		c.regs[i] = dec.U32()
	}
	c.pc = dec.U32()
	c.n = dec.Bool()
	c.z = dec.Bool()
	c.c = dec.Bool()
	c.v = dec.Bool()
	c.state = cpuState(dec.U8())
	c.exitCode = dec.U32()
	c.lead = dec.U64()
	dcLen := dec.Int()
	c.brOp = dec.U32()
	c.brSM = dec.U32()
	c.brVPtr = dec.U32()
	c.brData = dec.U32()
	c.brDim = dec.U32()
	c.brDType = dec.U32()
	c.brStatus = dec.U32()
	c.brResult = dec.U32()
	for i := range c.staging {
		c.staging[i] = dec.U32()
	}
	console := dec.Bytes32()
	c.Icount = dec.U64()
	c.StallCycles = dec.U64()
	c.Cycles = dec.U64()
	mmioBase := dec.U32()
	img := dec.Bytes32()
	if err := dec.Err(); err != nil {
		return err
	}
	if mmioBase != c.mmioBase {
		return fmt.Errorf("cpu %s: MMIO base mismatch: snapshot has %#x, system has %#x", c.name, mmioBase, c.mmioBase)
	}
	if len(img) != len(c.mem) {
		return fmt.Errorf("cpu %s: memory size mismatch: snapshot has %d bytes, system built with %d", c.name, len(img), len(c.mem))
	}
	if dcLen < 0 || dcLen > len(c.mem)/4 {
		return fmt.Errorf("cpu %s: decode cache of %d slots exceeds the %d-byte memory", c.name, dcLen, len(c.mem))
	}
	c.console.Reset()
	c.console.Write(console)
	copy(c.mem, img)
	// Re-create (empty) decode-cache capacity when this build enables
	// it. The rebuild may have used an empty program (New then leaves dc
	// nil), so the capacity comes from the snapshot, not from len(dc).
	if c.dcOn && dcLen > 0 {
		c.dc = make([]dcEntry, dcLen)
	} else {
		c.dc = nil
	}
	return dec.Finish()
}
