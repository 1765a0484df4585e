package mem

import (
	"fmt"

	"repro/internal/snapshot"
)

func (s *Stats) walk(c *snapshot.Codec) {
	c.U64Array(s.Ops[:])
	c.U64Array(s.Errors[:])
	c.U64(&s.BusyCycles)
	c.U64(&s.BurstElems)
}

// WalkState walks the static RAM: the FSM, the sampled input registers,
// the stats, and the full memory image, whose size must match the
// built one. Config (size, delays, port wiring) is rebuilt from
// SystemConfig.
func (m *StaticRAM) WalkState(c *snapshot.Codec) error {
	snapshot.Byte(c, &m.state)
	c.U32(&m.wait)
	m.cur.Walk(c)
	snapshot.Word(c, &m.curTag)
	c.Bool(&m.in.pending)
	snapshot.Byte(c, &m.in.op)
	c.U32(&m.in.vptr)
	c.U32(&m.in.data)
	c.U32(&m.in.dim)
	snapshot.Byte(c, &m.in.dtype)
	m.stats.walk(c)
	c.Image(m.data)
	return c.Err()
}

// WalkState walks the DRAM: the FSM, every bank's row-buffer register,
// the stats, and the full memory image. Bank count and image size must
// match the built geometry. Config (geometry, timing, refresh schedule,
// port wiring) is rebuilt from SystemConfig.
func (r *DRAM) WalkState(c *snapshot.Codec) error {
	snapshot.Byte(c, &r.state)
	c.U32(&r.wait)
	r.cur.Walk(c)
	snapshot.Word(c, &r.curTag)
	nbanks := len(r.banks)
	c.Int(&nbanks)
	if nbanks != len(r.banks) {
		return c.Fail(fmt.Errorf("dram %s: snapshot has %d banks, system built with %d", r.cfg.Name, nbanks, len(r.banks)))
	}
	for i := range r.banks {
		b := &r.banks[i]
		c.Bool(&b.open)
		c.U32(&b.row)
		c.U64(&b.epoch)
	}
	r.stats.walk(c)
	c.U64(&r.stats.RowHits)
	c.U64(&r.stats.RowMisses)
	c.U64(&r.stats.RowConflicts)
	c.U64(&r.stats.RefreshStalls)
	c.U64(&r.stats.RefreshStallCycles)
	c.Image(r.data)
	return c.Err()
}
