package mem

import (
	"fmt"

	"repro/internal/snapshot"
)

// WalkState walks the static RAM: the Server's registers, the sampled
// input registers, the stats, and the full memory image, whose size
// must match the built one. Config (size, delays, port wiring) is
// rebuilt from SystemConfig.
func (m *StaticRAM) WalkState(c *snapshot.Codec) error {
	m.WalkFSM(c, nil)
	m.in.Walk(c)
	m.stats.Walk(c)
	c.Image(m.data)
	return c.Err()
}

// WalkState walks the DRAM: the Server's registers, every bank's
// row-buffer register, the stats, and the full memory image. Bank count
// and image size must match the built geometry. Config (geometry,
// timing, refresh schedule, port wiring) is rebuilt from SystemConfig.
func (r *DRAM) WalkState(c *snapshot.Codec) error {
	r.WalkFSM(c, nil)
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
	r.stats.Stats.Walk(c)
	c.U64(&r.stats.RowHits)
	c.U64(&r.stats.RowMisses)
	c.U64(&r.stats.RowConflicts)
	c.U64(&r.stats.RefreshStalls)
	c.U64(&r.stats.RefreshStallCycles)
	c.Image(r.data)
	return c.Err()
}
