package cache

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/bus"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/smapi"
	"repro/internal/snapshot"
)

const ramBytes = 4096

// rig is a hand-wired system: n Procs, each behind a private L1, one
// static RAM on a shared bus (the config package cannot be imported here
// — it imports this package).
type rig struct {
	k      *sim.Kernel
	ram    *mem.StaticRAM
	caches []*Cache
	procs  []*smapi.Proc
	dom    *Domain
}

func buildRig(t *testing.T, cfg Config, coherent, split bool, tasks ...smapi.Task) *rig {
	t.Helper()
	k := sim.New()
	slave := bus.NewPort(k, "s0", bus.PortConfig{Depth: 4})
	r := &rig{k: k, ram: mem.NewStaticRAM(k, mem.Config{Name: "ram", Size: ramBytes, Delays: mem.DefaultDelays()}, slave)}
	if coherent {
		r.dom = NewDomain()
	}
	var downs, wbs []*bus.Port
	n := len(tasks)
	for i, task := range tasks {
		up := bus.NewPort(k, fmt.Sprintf("m%d", i), bus.PortConfig{Depth: 4})
		down := bus.NewPort(k, fmt.Sprintf("c%d", i), bus.PortConfig{Depth: 8, OutOfOrder: true})
		wb := bus.NewPort(k, fmt.Sprintf("w%d", i), bus.PortConfig{Depth: 4, OutOfOrder: true})
		c, err := New(k, cfg, up, down, wb)
		if err != nil {
			t.Fatal(err)
		}
		if r.dom != nil {
			r.dom.Attach(c, i, n+i)
		}
		r.caches = append(r.caches, c)
		downs = append(downs, down)
		wbs = append(wbs, wb)
		r.procs = append(r.procs, smapi.NewProc(k, fmt.Sprintf("pe%d", i), i, up, task))
	}
	b := bus.NewBus(k, "bus", append(downs, wbs...), []*bus.Port{slave}, bus.NewRoundRobin())
	if split {
		b.Split = true
	}
	if r.dom != nil {
		b.Snoop = r.dom
	}
	return r
}

func (r *rig) run(t *testing.T) {
	t.Helper()
	done := func() bool {
		for _, p := range r.procs {
			if !p.Done() {
				return false
			}
		}
		return true
	}
	if _, err := r.k.RunUntil(done, 2_000_000); err != nil {
		t.Fatal(err)
	}
}

// drain flushes every cache and runs until all dirty state has landed in
// memory.
func (r *rig) drain(t *testing.T) {
	t.Helper()
	for _, c := range r.caches {
		c.FlushAll()
	}
	synced := func() bool {
		for _, c := range r.caches {
			if !c.Idle() {
				return false
			}
		}
		return true
	}
	if _, err := r.k.RunUntil(synced, 1_000_000); err != nil {
		t.Fatal(err)
	}
}

func must(code bus.ErrCode) {
	if code != bus.OK {
		panic(code)
	}
}

// TestHitServesAndWritesBack: repeated scalar access to one line hits
// after the first miss; the dirty line reaches memory on flush.
func TestHitServesAndWritesBack(t *testing.T) {
	r := buildRig(t, Config{}, false, false, func(ctx *smapi.Ctx) {
		m := ctx.Mem(0)
		for i := uint32(0); i < 8; i++ {
			must(m.WriteAs(4*i, 0xC0DE0000+i, bus.U32))
		}
		for i := uint32(0); i < 8; i++ {
			v, code := m.ReadAs(4*i, bus.U32)
			must(code)
			if v != 0xC0DE0000+i {
				panic(fmt.Sprintf("read %#x at %d", v, i))
			}
		}
	})
	r.run(t)
	st := r.caches[0].Stats()
	if st.Misses != 1 {
		t.Errorf("misses = %d, want 1 (one 32-byte line holds all 8 words)", st.Misses)
	}
	if st.Hits != 15 {
		t.Errorf("hits = %d, want 15", st.Hits)
	}
	if r.ram.Stats().Ops[bus.OpWrite] != 0 {
		t.Errorf("scalar writes reached memory despite write-back caching")
	}
	r.drain(t)
	for i := uint32(0); i < 8; i++ {
		got := uint32(r.ram.Peek(4*i)) | uint32(r.ram.Peek(4*i+1))<<8 |
			uint32(r.ram.Peek(4*i+2))<<16 | uint32(r.ram.Peek(4*i+3))<<24
		if got != 0xC0DE0000+i {
			t.Fatalf("memory[%d] = %#x after flush, want %#x", 4*i, got, 0xC0DE0000+i)
		}
	}
}

// TestVictimWriteback: a working set larger than a tiny cache forces
// dirty evictions mid-run; the final image must still be exact.
func TestVictimWriteback(t *testing.T) {
	const words = 64 // 8 lines through a 2-line cache
	r := buildRig(t, Config{Sets: 2, Ways: 1}, false, false, func(ctx *smapi.Ctx) {
		m := ctx.Mem(0)
		for pass := uint32(0); pass < 2; pass++ {
			for i := uint32(0); i < words; i++ {
				must(m.WriteAs(4*i, pass<<16|i, bus.U32))
			}
		}
	})
	r.run(t)
	if wb := r.caches[0].Stats().Writebacks; wb == 0 {
		t.Fatal("no victim writebacks despite capacity pressure")
	}
	r.drain(t)
	for i := uint32(0); i < words; i++ {
		got := uint32(r.ram.Peek(4*i)) | uint32(r.ram.Peek(4*i+1))<<8 |
			uint32(r.ram.Peek(4*i+2))<<16 | uint32(r.ram.Peek(4*i+3))<<24
		if want := uint32(1)<<16 | i; got != want {
			t.Fatalf("memory[%d] = %#x, want %#x", 4*i, got, want)
		}
	}
}

// TestMESIStates: a lone reader installs Exclusive; a second reader
// downgrades it to Shared; a writer invalidates the peer and the reader
// then observes the written value (dirty supply via deferred grant +
// writeback).
func TestMESIStates(t *testing.T) {
	var stage int // host-shared phase marker, advanced by the tasks
	var observed uint32
	reader := func(ctx *smapi.Ctx) {
		m := ctx.Mem(0)
		if _, code := m.ReadAs(0, bus.U32); code != bus.OK {
			panic("read")
		}
		stage = 1
		for stage < 2 {
			ctx.Sleep(5)
		}
		v, code := m.ReadAs(0, bus.U32)
		must(code)
		observed = v
	}
	writer := func(ctx *smapi.Ctx) {
		for stage < 1 {
			ctx.Sleep(5)
		}
		m := ctx.Mem(0)
		if _, code := m.ReadAs(0, bus.U32); code != bus.OK {
			panic("read")
		}
		must(m.WriteAs(0, 0xBEEF, bus.U32))
		stage = 2
	}
	r := buildRig(t, Config{}, true, false, reader, writer)
	r.run(t)
	if observed != 0xBEEF {
		t.Fatalf("reader observed %#x after peer write, want 0xBEEF", observed)
	}
	st0, st1 := r.caches[0].Stats(), r.caches[1].Stats()
	if st0.SnoopInvalidations == 0 {
		t.Errorf("reader cache was never invalidated: %+v", st0)
	}
	if st1.SnoopFlushes == 0 && st1.SnoopDowngrades == 0 {
		// The writer's M line must have been flushed (or its E downgraded,
		// depending on interleaving) when the reader re-read it.
		t.Errorf("writer cache neither flushed nor downgraded: %+v", st1)
	}
	// After the run no two caches may hold the line exclusively.
	if err := CheckExclusivity(r.caches); err != nil {
		t.Fatal(err)
	}
}

// TestBypassOrdering: bursts bypass the cache but must observe (and be
// observed by) cached scalar traffic — flush-before-forward on reads,
// invalidate on writes.
func TestBypassOrdering(t *testing.T) {
	r := buildRig(t, Config{}, false, false, func(ctx *smapi.Ctx) {
		m := ctx.Mem(0)
		// Dirty a line with byte scalars, then read it back via a burst
		// (ReadArray/WriteArray move U8 elements).
		for i := uint32(0); i < 8; i++ {
			must(m.WriteAs(i, 0xA0+i, bus.U8))
		}
		got, code := m.ReadArray(0, 8)
		must(code)
		for i, v := range got {
			if v != 0xA0+uint32(i) {
				panic(fmt.Sprintf("burst read %#x at %d, want %#x", v, i, 0xA0+uint32(i)))
			}
		}
		// Overwrite via burst, then read back through the cache.
		buf := make([]uint32, 8)
		for i := range buf {
			buf[i] = 0xB0 + uint32(i)
		}
		must(m.WriteArray(0, buf))
		for i := uint32(0); i < 8; i++ {
			v, code := m.ReadAs(i, bus.U8)
			must(code)
			if v != 0xB0+i {
				panic(fmt.Sprintf("scalar read %#x at %d after burst write", v, i))
			}
		}
	})
	r.run(t)
	if by := r.caches[0].Stats().Bypassed; by != 2 {
		t.Errorf("bypassed = %d, want 2 (the two bursts)", by)
	}
}

// scriptMaster issues scalar reads back-to-back up to the port's credit
// pool — a multi-outstanding master exercising MSHR overlap.
type scriptMaster struct {
	port  *bus.Port
	reqs  []bus.Request
	next  int
	resps []bus.Response
}

func (s *scriptMaster) Name() string { return "script" }
func (s *scriptMaster) Tick(cycle uint64) {
	for _, resp := range s.port.Completions() {
		s.resps = append(s.resps, resp)
	}
	for s.next < len(s.reqs) && s.port.CanIssue() {
		s.port.Issue(s.reqs[s.next])
		s.next++
	}
}
func (s *scriptMaster) done() bool {
	return s.next == len(s.reqs) && len(s.resps) == len(s.reqs)
}

// TestMSHROverlap: four reads to four distinct lines issued in one burst
// of credits ride concurrent MSHRs; in-order delivery returns them in
// issue order with correct data.
func TestMSHROverlap(t *testing.T) {
	k := sim.New()
	slave := bus.NewPort(k, "s0", bus.PortConfig{Depth: 4})
	ram := mem.NewStaticRAM(k, mem.Config{Name: "ram", Size: ramBytes, Delays: mem.DefaultDelays()}, slave)
	_ = ram
	up := bus.NewPort(k, "m0", bus.PortConfig{Depth: 4})
	down := bus.NewPort(k, "c0", bus.PortConfig{Depth: 8, OutOfOrder: true})
	wb := bus.NewPort(k, "w0", bus.PortConfig{Depth: 4, OutOfOrder: true})
	c, err := New(k, Config{MSHRs: 4}, up, down, wb)
	if err != nil {
		t.Fatal(err)
	}
	b := bus.NewBus(k, "bus", []*bus.Port{down, wb}, []*bus.Port{slave}, bus.NewRoundRobin())
	b.Split = true
	b.RespArb = bus.NewRoundRobin()

	sm := &scriptMaster{port: up}
	for i := 0; i < 4; i++ {
		sm.reqs = append(sm.reqs, bus.Request{Op: bus.OpRead, SM: 0, VPtr: uint32(i) * 64, DType: bus.U32})
	}
	k.Add(sm)
	if _, err := k.RunUntil(sm.done, 100000); err != nil {
		t.Fatal(err)
	}
	if got := c.Stats().Misses; got != 4 {
		t.Errorf("misses = %d, want 4", got)
	}
	for i, resp := range sm.resps {
		if resp.Err != bus.OK || resp.Data != 0 {
			t.Errorf("resp %d = %+v, want OK/0", i, resp)
		}
	}
}

// TestFalseSharingImage: two PEs hammer adjacent words of the same line
// under coherence; the final image holds both PEs' last values exactly.
func TestFalseSharingImage(t *testing.T) {
	const rounds = 20
	task := func(id uint32) smapi.Task {
		return func(ctx *smapi.Ctx) {
			m := ctx.Mem(0)
			for i := uint32(1); i <= rounds; i++ {
				must(m.WriteAs(4*id, id<<24|i, bus.U32))
				if _, code := m.ReadAs(4*(1-id), bus.U32); code != bus.OK {
					panic("read")
				}
			}
		}
	}
	for _, split := range []bool{false, true} {
		r := buildRig(t, Config{}, true, split, task(0), task(1))
		r.run(t)
		r.drain(t)
		for id := uint32(0); id < 2; id++ {
			got := uint32(r.ram.Peek(4*id)) | uint32(r.ram.Peek(4*id+1))<<8 |
				uint32(r.ram.Peek(4*id+2))<<16 | uint32(r.ram.Peek(4*id+3))<<24
			if want := id<<24 | rounds; got != want {
				t.Fatalf("split=%v: word %d = %#x, want %#x", split, id, got, want)
			}
		}
		inv := r.caches[0].Stats().SnoopInvalidations + r.caches[1].Stats().SnoopInvalidations
		if inv == 0 {
			t.Errorf("split=%v: false sharing produced no invalidations", split)
		}
	}
}

// issuedMSHR steps k until e has an MSHR whose refill is issued.
func issuedMSHR(t *testing.T, k *sim.Kernel, e *engine) *mshr {
	t.Helper()
	for range 1000 {
		for _, m := range e.mshrs {
			if m.issued {
				return m
			}
		}
		if err := k.Run(1); err != nil {
			t.Fatal(err)
		}
	}
	t.Fatal("no MSHR issued within 1000 cycles")
	return nil
}

// loadSection saves from into a snapshot section and loads it into to.
func loadSection(t *testing.T, from, to snapshot.Stateful) error {
	t.Helper()
	w := snapshot.NewWriter()
	w.Save("s", from)
	data, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	f, err := snapshot.Read(data)
	if err != nil {
		t.Fatal(err)
	}
	return f.Load("s", to)
}

// TestRestoreRejectsBadMSHRIndex: an MSHR's set, way and module index
// the line store and the channels when its refill lands, so a
// checksum-valid section carrying one out of range must fail to load
// rather than restore cleanly and panic on resume.
func TestRestoreRejectsBadMSHRIndex(t *testing.T) {
	read := func(ctx *smapi.Ctx) {
		_, code := ctx.Mem(0).ReadAs(64, bus.U32)
		must(code)
	}
	t.Run("l1-way", func(t *testing.T) {
		r := buildRig(t, Config{}, false, false, read)
		fresh := buildRig(t, Config{}, false, false, read)
		if err := loadSection(t, r.caches[0], fresh.caches[0]); err != nil {
			t.Fatalf("unmodified cache: %v", err)
		}
		issuedMSHR(t, r.k, &r.caches[0].engine).way = r.caches[0].cfg.Ways
		if err := loadSection(t, r.caches[0], fresh.caches[0]); err == nil || !strings.Contains(err.Error(), "MSHR targets") {
			t.Fatalf("MSHR way out of range: err = %v", err)
		}
	})
	t.Run("l2-set", func(t *testing.T) {
		l2cfg := L2Config{Sets: 4, Ways: 2}
		r := buildL2Rig(t, Config{}, l2cfg, ramBytes, false, read)
		fresh := buildL2Rig(t, Config{}, l2cfg, ramBytes, false, read)
		issuedMSHR(t, r.k, &r.l2.engine).set = -1
		if err := loadSection(t, r.l2, fresh.l2); err == nil || !strings.Contains(err.Error(), "MSHR targets") {
			t.Fatalf("MSHR set out of range: err = %v", err)
		}
	})
}
