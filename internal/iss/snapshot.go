package iss

import (
	"fmt"

	"repro/internal/snapshot"
)

// WalkState walks the full architectural state (registers, flags, PC,
// run state), the batch lead, the bridge registers and staging buffer,
// the console output, the counters, and the entire memory image —
// program included, so a snapshot restores without re-assembling the
// workload. The CPU must have been rebuilt with the same memory size and
// MMIO base; the rebuild may use an empty program.
//
// The decode cache is deliberately NOT walked: it is host-only
// memoization, revalidated per fetch against the instruction word
// (self-modifying code already relies on that), so an empty cache is
// behavior- and timing-identical. Only its capacity travels, letting
// loading re-create an equally effective cache.
func (c *CPU) WalkState(cd *snapshot.Codec) error {
	for i := range c.regs {
		cd.U32(&c.regs[i])
	}
	cd.U32(&c.pc)
	cd.Bool(&c.n)
	cd.Bool(&c.z)
	cd.Bool(&c.c)
	cd.Bool(&c.v)
	snapshot.Byte(cd, &c.state)
	cd.U32(&c.exitCode)
	cd.U64(&c.lead)
	dcLen := len(c.dc)
	cd.Int(&dcLen)
	cd.U32(&c.brOp)
	cd.U32(&c.brSM)
	cd.U32(&c.brVPtr)
	cd.U32(&c.brData)
	cd.U32(&c.brDim)
	cd.U32(&c.brDType)
	cd.U32(&c.brStatus)
	cd.U32(&c.brResult)
	for i := range c.staging {
		cd.U32(&c.staging[i])
	}
	console := c.console.Bytes()
	cd.Bytes(&console)
	cd.U64(&c.Icount)
	cd.U64(&c.StallCycles)
	cd.U64(&c.Cycles)
	mmioBase := c.mmioBase
	cd.U32(&mmioBase)
	if mmioBase != c.mmioBase {
		return cd.Fail(fmt.Errorf("cpu %s: MMIO base mismatch: snapshot has %#x, system has %#x", c.name, mmioBase, c.mmioBase))
	}
	cd.Image(c.mem)
	if dcLen < 0 || dcLen > len(c.mem)/4 {
		return cd.Fail(fmt.Errorf("cpu %s: decode cache of %d slots exceeds the %d-byte memory", c.name, dcLen, len(c.mem)))
	}
	if cd.Loading() && cd.Err() == nil {
		c.console.Reset()
		c.console.Write(console)
		// Re-create (empty) decode-cache capacity when this build enables
		// it. The rebuild may have used an empty program (New then leaves
		// dc nil), so the capacity comes from the snapshot, not from
		// len(dc).
		c.dc = nil
		if c.dcOn && dcLen > 0 {
			c.dc = make([]dcEntry, dcLen)
		}
	}
	return cd.Err()
}

// Check reports an error unless the CPU stalls exactly while its one
// bridge transaction is out: stalled with none out it would never
// resume, running with one out it would issue into a full port.
func (c *CPU) Check() error {
	if out := c.port != nil && c.port.Busy(); (c.state == cpuStalled) != out {
		return fmt.Errorf("cpu %s: stalled=%v, but bridge transaction out=%v", c.name, c.state == cpuStalled, out)
	}
	return nil
}
