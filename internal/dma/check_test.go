package dma

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/bus"
	"repro/internal/mem"
	"repro/internal/sim"
)

// TestCheckRejectsStrayInflightTags crafts the engine's in-flight table
// out of step with its port — a chunk under a tag the port does not
// hold, or a transaction whose chunk is lost — and expects Check to
// reject each: resumed unchecked, the completion of the real tag finds
// no chunk and panics.
func TestCheckRejectsStrayInflightTags(t *testing.T) {
	for _, tc := range []struct {
		name  string
		craft func(e *Engine)
		err   string
	}{
		{"chunk under a stray tag", func(e *Engine) {
			for tag, c := range e.inflight {
				delete(e.inflight, tag)
				e.inflight[999], e.isWrite[999] = c, e.isWrite[tag]
				return
			}
		}, "chunk in flight under tag 999, which port p does not hold"},
		{"chunk lost", func(e *Engine) {
			for tag := range e.inflight {
				delete(e.inflight, tag)
				return
			}
		}, "chunks in flight, port p holds"},
	} {
		k := sim.New()
		p := bus.NewPort(k, "p", bus.PortConfig{Depth: 4, OutOfOrder: true})
		mem.NewStaticRAM(k, mem.Config{Size: 4096, Delays: mem.DefaultDelays()}, p)
		e := New(k, "dma", p)
		e.Enqueue(Descriptor{SrcVPtr: 0, DstVPtr: 2048, Elems: 256, DType: bus.U32, Chunk: 16})
		if _, err := k.RunUntil(func() bool { return len(e.inflight) > 1 }, 10_000); err != nil {
			t.Fatal(err)
		}
		if err := e.Check(); err != nil {
			t.Fatalf("%s: as run: %v", tc.name, err)
		}
		tc.craft(e)
		if err := e.Check(); err == nil || !strings.Contains(err.Error(), tc.err) {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.err)
		}
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Errorf("%s: the crafted state resumed without a panic; Check need not reject it", tc.name)
				}
				t.Logf("%s: resumed unchecked: %v", tc.name, fmt.Sprint(r))
			}()
			_, _ = k.RunUntil(e.Idle, 100_000)
		}()
	}
}
