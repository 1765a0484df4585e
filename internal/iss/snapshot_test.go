package iss

import (
	"strings"
	"testing"

	"repro/internal/bus"
	"repro/internal/isa"
	"repro/internal/sim"
	"repro/internal/snapshot"
)

// TestSnapshotRejectsStallWithoutTransaction crafts a CPU whose stall
// disagrees with its port — stalled with nothing outstanding, or running
// with its bridge transaction still out — and expects the loaded CPU's
// Check to fail:
// the first would never resume, the second would issue into a full port.
func TestSnapshotRejectsStallWithoutTransaction(t *testing.T) {
	prog, err := isa.Assemble("loop: b loop")
	if err != nil {
		t.Fatal(err)
	}
	build := func() (*sim.Kernel, *CPU, *bus.Port) {
		k := sim.New()
		p := bus.NewPort(k, "cpu-mem", bus.PortConfig{})
		cpu, err := New(k, Config{Prog: prog.Code, Port: p})
		if err != nil {
			t.Fatal(err)
		}
		return k, cpu, p
	}
	for _, tc := range []struct {
		name  string
		craft func(k *sim.Kernel, cpu *CPU, p *bus.Port)
		err   string
	}{
		{"as built", func(*sim.Kernel, *CPU, *bus.Port) {}, ""},
		{"stalled with nothing outstanding", func(_ *sim.Kernel, cpu *CPU, _ *bus.Port) { cpu.state = cpuStalled }, "stalled=true, but bridge transaction out=false"},
		{"running with a transaction out", func(k *sim.Kernel, _ *CPU, p *bus.Port) {
			p.Issue(bus.Request{Op: bus.OpRead})
			if err := k.Run(1); err != nil {
				t.Fatal(err)
			}
		}, "stalled=false, but bridge transaction out=true"},
	} {
		k, cpu, p := build()
		tc.craft(k, cpu, p)
		w := snapshot.NewWriter()
		w.Save("port", p)
		w.Save("cpu", cpu)
		data, err := w.Finish()
		if err != nil {
			t.Fatal(err)
		}
		f, err := snapshot.Read(data)
		if err != nil {
			t.Fatal(err)
		}
		_, cpu, p = build()
		if err := f.Load("port", p); err != nil {
			t.Fatalf("%s: port: %v", tc.name, err)
		}
		err = f.Load("cpu", cpu)
		if err == nil {
			err = cpu.Check()
		}
		if tc.err == "" && err != nil || tc.err != "" && (err == nil || !strings.Contains(err.Error(), tc.err)) {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.err)
		}
	}
}
