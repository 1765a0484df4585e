package core

import (
	"fmt"

	"repro/internal/snapshot"
)

// WalkState walks the pointer table: every live entry with its host
// backing bytes, the virtual-space cursor, and — when a placement
// policy manages the virtual space — the placer's bookkeeping arena.
// The HostAllocator itself is host-side machinery and does not travel:
// loading re-allocates each entry's backing store through it and
// overwrites the placer arena in place, never re-formatting it.
func (t *PointerTable) WalkState(c *snapshot.Codec) error {
	total, linear := t.TotalSize, t.Linear
	c.U32(&total)
	c.Bool(&linear)
	if total != t.TotalSize || linear != t.Linear {
		return c.Fail(fmt.Errorf("pointer table config mismatch: snapshot has size=%d linear=%v, system has size=%d linear=%v",
			total, linear, t.TotalSize, t.Linear))
	}
	c.U32(&t.used)
	c.U64(&t.Probes)
	c.Int(&t.HighWater)
	if c.Loading() {
		// Release the table's entries: none on a clean build, but a used
		// table must restore too.
		for i := range t.entries {
			t.host.Free(t.entries[i].Host)
		}
	}
	snapshot.Slice(c, &t.entries, func(e *Entry) {
		c.U32(&e.VPtr)
		snapshot.Byte(c, &e.DType)
		c.U32(&e.Dim)
		c.Bool(&e.Reserved)
		c.Int(&e.Owner)
		img := e.Host
		c.Bytes(&img)
		if !c.Loading() || c.Err() != nil {
			return
		}
		buf, err := t.host.Alloc(uint32(len(img)))
		if err != nil {
			c.Fail(fmt.Errorf("host alloc of %d bytes for entry at %#x: %w", len(img), e.VPtr, err))
			return
		}
		copy(buf, img)
		e.Host = buf
	})
	hasPlacer := t.placer != nil
	c.Bool(&hasPlacer)
	if hasPlacer != (t.placer != nil) {
		return c.Fail(fmt.Errorf("placer mismatch: snapshot placer=%v, system placer=%v", hasPlacer, t.placer != nil))
	}
	if hasPlacer {
		c.U64(&t.placerMem.Accesses)
		c.Image(t.placerMem.Buf)
	}
	return c.Err()
}

// WalkState walks the wrapper memory: the Server's registers, the
// sampled input registers, the stats, and the pointer table with all
// host-backed payloads.
func (w *Wrapper) WalkState(c *snapshot.Codec) error {
	w.WalkFSM(c, nil)
	c.Bool(&w.in.pending)
	snapshot.Byte(c, &w.in.op)
	c.Int(&w.in.sm)
	c.U32(&w.in.vptr)
	c.U32(&w.in.data)
	c.U32(&w.in.dim)
	snapshot.Byte(c, &w.in.dtype)
	c.Int(&w.in.master)
	w.stats.Stats.Walk(c)
	c.U64(&w.stats.HostAllocs)
	c.U64(&w.stats.HostFrees)
	c.U64(&w.stats.HostBytes)
	return w.table.WalkState(c)
}

// Check adds the pointer table to the Server's check (see
// PointerTable.check).
func (w *Wrapper) Check() error {
	if err := w.table.check(); err != nil {
		return fmt.Errorf("%s: %w", w.cfg.Name, err)
	}
	return w.Server.Check()
}

// check reports an error unless every entry's host bytes hold exactly
// its elements — the data path indexes them by dim — and, under a
// placement policy, the placer's free lists and blocks tile its arena,
// or the next allocation would follow a link out of it.
func (t *PointerTable) check() error {
	for i := range t.entries {
		if e := &t.entries[i]; uint64(len(e.Host)) != uint64(e.Dim)*uint64(e.DType.Size()) {
			return fmt.Errorf("entry at %#x: %d host bytes for %d elements of %s", e.VPtr, len(e.Host), e.Dim, e.DType)
		}
	}
	if t.placer != nil {
		if err := t.placer.CheckInvariants(); err != nil {
			return fmt.Errorf("placer: %w", err)
		}
	}
	return nil
}
