package mem_test

import (
	"encoding/binary"
	"strings"
	"testing"

	"repro/internal/bus"
	"repro/internal/core"
	"repro/internal/heapsim"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/snapshot"
)

// model is one memory model on its own port, with zero configured
// latency, plus the address of its 256 data bytes.
type model struct {
	name string
	k    *sim.Kernel
	port *bus.Port
	mod  snapshot.Stateful
	base uint32
}

// models builds every memory model that serves a port through
// mem.Server: the three table memories, and the wrapper with one
// 64-word allocation at base.
func models(t *testing.T) []model {
	t.Helper()
	var ms []model
	add := func(name string, build func(k *sim.Kernel, p *bus.Port) (snapshot.Stateful, uint32, error)) {
		k := sim.New()
		p := bus.NewPort(k, name+".p", bus.PortConfig{})
		m, base, err := build(k, p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		ms = append(ms, model{name, k, p, m, base})
	}
	add("static", func(k *sim.Kernel, p *bus.Port) (snapshot.Stateful, uint32, error) {
		return mem.NewStaticRAM(k, mem.Config{Size: 256}, p), 0, nil
	})
	add("dram", func(k *sim.Kernel, p *bus.Port) (snapshot.Stateful, uint32, error) {
		d, err := mem.NewDRAMOn(k, mem.DRAMConfig{Size: 256}, p)
		return d, 0, err
	})
	add("heapsim", func(k *sim.Kernel, p *bus.Port) (snapshot.Stateful, uint32, error) {
		h, err := heapsim.NewHeapMem(k, heapsim.Config{ArenaSize: 256}, p)
		return h, 0, err
	})
	add("wrapper", func(k *sim.Kernel, p *bus.Port) (snapshot.Stateful, uint32, error) {
		w, err := core.NewWrapper(k, core.Config{TotalSize: 1024}, p)
		if err != nil {
			return nil, 0, err
		}
		vptr, code := w.Table().Alloc(64, bus.U32)
		if code != bus.OK {
			t.Fatalf("wrapper alloc: %v", code)
		}
		return w, vptr, nil
	})
	return ms
}

func (m model) do(t *testing.T, req bus.Request) bus.Response {
	t.Helper()
	m.port.Issue(req)
	for i := 0; i < 100; i++ {
		if err := m.k.Step(); err != nil {
			t.Fatal(err)
		}
		if resp, ok := m.port.Response(); ok {
			return resp
		}
	}
	t.Fatalf("%s: %v did not complete", m.name, req)
	return bus.Response{}
}

// TestBurstSpanDoesNotWrap sends U32 bursts whose byte span does not
// fit the memory. A read burst of 2³⁰+1 words spans 2³²+4 bytes, which
// a 32-bit span computation wraps to 4 — in bounds — after which the
// copy runs off the table. Every model must answer ErrBounds instead.
// The wrapper is the control: its bounds check was always 64-bit. A
// write burst cannot wrap without a 4 GiB payload, so the matching one
// overruns the last word by one.
func TestBurstSpanDoesNotWrap(t *testing.T) {
	for _, m := range models(t) {
		for _, req := range []bus.Request{
			{Op: bus.OpReadBurst, VPtr: m.base, Dim: 0x40000001, DType: bus.U32},
			{Op: bus.OpWriteBurst, VPtr: m.base + 252, Burst: []uint32{1, 2}, DType: bus.U32},
		} {
			if resp := m.do(t, req); resp.Err != bus.ErrBounds {
				t.Errorf("%s: %v answered %v, want ErrBounds", m.name, req, resp.Err)
			}
		}
	}
}

// TestSnapshotRejectsImpossibleServingState crafts each model's section with
// a serving state the FSM can never hold between cycles — a state
// number beyond the model's states, a busy state with 0 cycles left, or
// one serving a tag its port never handed out — and expects the load
// (the state number) or the model's Check (the rest) to fail. Genuine busy states are restored by the experiments' pinned
// mid-service snapshots.
func TestSnapshotRejectsImpossibleServingState(t *testing.T) {
	for _, m := range models(t) {
		w := snapshot.NewWriter()
		w.Save("mod", m.mod)
		data, err := w.Finish()
		if err != nil {
			t.Fatal(err)
		}
		// The section payload follows the header and the framed name.
		payload := data[len(snapshot.Magic)+4+4+len("mod")+4 : len(data)-4]
		lastState := byte(2)
		if m.name == "heapsim" {
			lastState = 1 // busy, no exec phase
		}
		for _, tc := range []struct {
			state byte
			wait  uint32
			err   string
		}{
			{1, 0, "0 cycles left"},
			{lastState, 0, "0 cycles left"},
			{lastState + 1, 5, "not one of this memory's states"},
			{255, 5, "not one of this memory's states"},
			{lastState, 5, "has not handed out"},
		} {
			crafted := append([]byte(nil), payload...)
			crafted[0] = tc.state
			binary.LittleEndian.PutUint32(crafted[1:], tc.wait)
			cw := snapshot.NewWriter()
			cw.Add("mod", crafted)
			cdata, _ := cw.Finish()
			f, err := snapshot.Read(cdata)
			if err != nil {
				t.Fatal(err)
			}
			err = f.Load("mod", m.mod)
			if err == nil {
				err = m.mod.(interface{ Check() error }).Check()
			}
			if err == nil || !strings.Contains(err.Error(), tc.err) {
				t.Errorf("%s: state %d wait %d: err = %v, want %q", m.name, tc.state, tc.wait, err, tc.err)
			}
		}
	}
}
