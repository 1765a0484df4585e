package cache

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/bus"
	"repro/internal/sim"
	"repro/internal/smapi"
)

// resumeOutcome resumes k until done, for at most limit cycles, and
// says how the run failed: a panic, a fault, or never finishing. It
// returns "" when the run finishes.
func resumeOutcome(k *sim.Kernel, done func() bool, limit uint64) (outcome string) {
	defer func() {
		if r := recover(); r != nil {
			outcome = fmt.Sprint("panic: ", r)
		}
	}()
	if _, err := k.RunUntil(done, limit); err == sim.ErrLimit {
		return "hang"
	} else if err != nil {
		return "fault: " + err.Error()
	}
	return ""
}

// tagCase crafts one inconsistency between an engine's tag tables and
// its ports into a running rig.
type tagCase struct {
	name  string
	ready func(e *engine) bool // the state craft needs
	craft func(e *engine)
	err   string
}

// checkTagCase runs a rig until tc is ready, crafts it, and expects
// check to report it. The crafted state must be one Check has to
// catch: resumed unchecked, the run panics, faults or never finishes.
func checkTagCase(t *testing.T, k *sim.Kernel, e *engine, check func() error, done func() bool, tc tagCase) {
	t.Helper()
	if _, err := k.RunUntil(func() bool { return tc.ready(e) }, 100_000); err != nil {
		t.Fatalf("%s: never ready: %v", tc.name, err)
	}
	if err := check(); err != nil {
		t.Fatalf("%s: as run: %v", tc.name, err)
	}
	tc.craft(e)
	if err := check(); err == nil || !strings.Contains(err.Error(), tc.err) {
		t.Errorf("%s: err = %v, want %q", tc.name, err, tc.err)
	}
	if out := resumeOutcome(k, done, 1_000_000); out == "" {
		t.Errorf("%s: the crafted state resumed and finished; Check need not reject it", tc.name)
	} else {
		t.Logf("%s: resumed unchecked: %s", tc.name, out)
	}
}

// anyMSHR returns the first issued MSHR that has a waiter, or nil.
func anyMSHR(e *engine) *mshr {
	for _, m := range e.mshrs {
		if m.issued && len(m.waiters) > 0 {
			return m
		}
	}
	return nil
}

// rekey moves one entry of m under key to.
func rekey[V any](m map[bus.Tag]V, to bus.Tag) {
	for k, v := range m {
		delete(m, k)
		m[to] = v
		return
	}
}

// dropOne deletes one entry of m.
func dropOne[V any](m map[bus.Tag]V) {
	for k := range m {
		delete(m, k)
		return
	}
}

// TestCheckRejectsStrayMasterTags crafts an L1's and an L2's tag tables
// out of step with their ports — a refill, forward or writeback under a
// tag its port does not hold, a waiter, forward or pending bypass
// answering an up-port tag not in service, a miss waiter, writeback or
// forward lost from its table — and expects the cache's Check to reject
// each: resumed unchecked, every one faults on an orphan completion,
// panics completing an unknown tag, or never finishes.
func TestCheckRejectsStrayMasterTags(t *testing.T) {
	// One PE dirties more lines than a 2-line L1 holds, so writebacks
	// go out, and reads each line back by a burst, which bypasses the
	// cache as a forward.
	task := func(ctx *smapi.Ctx) {
		m := ctx.Mem(0)
		for pass := uint32(0); pass < 4; pass++ {
			for i := uint32(0); i < 64; i++ {
				must(m.WriteAs(4*i, pass<<16|i, bus.U32))
				if i%8 == 7 {
					_, code := m.ReadArray(4*(i-7), 8)
					must(code)
				}
			}
		}
	}
	issued := func(e *engine) bool { return anyMSHR(e) != nil }
	forwarding := func(e *engine) bool { return len(e.chans[0].fwd) > 0 }
	writingBack := func(e *engine) bool { return len(e.chans[0].wbInflight) > 0 }
	for _, tc := range []tagCase{
		{"refill under a stray tag", issued, func(e *engine) { anyMSHR(e).tag = 999 }, "refill under tag 999, which port c0 does not hold"},
		{"miss waiting under a stray tag", issued, func(e *engine) { anyMSHR(e).waiters[0].tag = 999 }, "miss waiting under tag 999, which port m0 has not handed out"},
		{"forward under a stray tag", forwarding, func(e *engine) { rekey(e.chans[0].fwd, 999) }, "forward under tag 999, which port c0 does not hold"},
		{"forward answering a stray tag", forwarding, func(e *engine) {
			for k := range e.chans[0].fwd {
				e.chans[0].fwd[k] = 999
			}
		}, "forward answers tag 999, which port m0 has not handed out"},
		{"bypass answering a stray tag", func(e *engine) bool { return e.chans[0].pending != nil }, func(e *engine) { e.chans[0].pending.upTag = 999 }, "bypass answers tag 999, which port m0 has not handed out"},
		{"miss waiter lost", issued, func(e *engine) { m := anyMSHR(e); m.waiters = m.waiters[1:] }, "miss waiters, forwards and bypasses, port m0 serves"},
		{"forward lost", forwarding, func(e *engine) { dropOne(e.chans[0].fwd) }, "in flight, port c0 holds"},
		{"writeback under a stray tag", writingBack, func(e *engine) { rekey(e.chans[0].wbInflight, 999) }, "writeback under tag 999, which port w0 does not hold"},
		{"writeback lost", writingBack, func(e *engine) { dropOne(e.chans[0].wbInflight) }, "writebacks in flight, port w0 holds"},
	} {
		r := buildRig(t, Config{Sets: 2, Ways: 1}, false, true, task)
		done := func() bool { return r.procs[0].Done() }
		checkTagCase(t, r.k, &r.caches[0].engine, r.caches[0].Check, done, tc)
	}

	// The L2 writes back on its down link, so a stray writeback tag there
	// is one the down link's completion cannot find.
	r := buildL2Rig(t, Config{Sets: 2, Ways: 1}, L2Config{Sets: 1, Ways: 2, LineBytes: 64}, 2048, false, task)
	done := func() bool { return r.procs[0].Done() }
	checkTagCase(t, r.k, &r.l2.engine, r.l2.Check, done, tagCase{
		"L2 writeback under a stray tag", writingBack, func(e *engine) { rekey(e.chans[0].wbInflight, 999) }, "writeback under tag 999",
	})
}

// TestRestoreRejectsBadWayMask loads L2 sections whose partition masks
// leave a master no way to install into, name ways the L2 does not
// have, or change a static partition, and expects each load to fail:
// an empty mask stalls every miss of its master for good.
func TestRestoreRejectsBadWayMask(t *testing.T) {
	read := func(ctx *smapi.Ctx) {
		for i := uint32(0); i < 64; i++ {
			_, code := ctx.Mem(0).ReadAs(64*i, bus.U32)
			must(code)
		}
	}
	l2cfg := L2Config{Sets: 2, Ways: 4, Partition: PartSWP, SWPMasks: []uint64{0x3, 0xC}}
	for _, tc := range []struct {
		name string
		mask uint64
	}{
		{"empty", 0},
		{"beyond the ways", 0x13},
		{"not the static mask", 0x1},
	} {
		r := buildL2Rig(t, Config{}, l2cfg, ramBytes, false, read, read)
		fresh := buildL2Rig(t, Config{}, l2cfg, ramBytes, false, read, read)
		if err := loadSection(t, r.l2, fresh.l2); err != nil {
			t.Fatalf("unmodified L2: %v", err)
		}
		r.l2.part.masks[0] = tc.mask
		if err := loadSection(t, r.l2, fresh.l2); err == nil || !strings.Contains(err.Error(), "way mask") {
			t.Errorf("%s mask %#x: err = %v", tc.name, tc.mask, err)
		}
	}
	// Resumed with an empty mask, master 0's first miss never installs.
	r := buildL2Rig(t, Config{}, l2cfg, ramBytes, false, read, read)
	r.l2.part.masks[0] = 0
	if out := resumeOutcome(r.k, r.procs[0].Done, 100_000); out != "hang" {
		t.Errorf("an empty mask resumed to %q, want a hang", out)
	}
}
