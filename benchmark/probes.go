package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/alloc"
	"repro/internal/bus"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/isa"
	"repro/internal/service"
	"repro/internal/workload"
)

// Direct probes: single calls into a layer's public functions, timed
// outside any simulation, so that a layer's cost per operation is on
// record next to the share it takes of a workload.

const probeIters = 200_000

// probeTableResolve is the cost of one PointerTable.Resolve over a table
// of 10 000 live entries, in ns.
func probeTableResolve() float64 {
	const entries = 10_000
	tbl := core.NewPointerTable(0, nil)
	for i := 0; i < entries; i++ {
		if _, code := tbl.Alloc(16, bus.U32); code != bus.OK {
			return 0
		}
	}
	span := uint32(entries) * 64
	start := time.Now()
	for i := 0; i < probeIters; i++ {
		tbl.Resolve(uint32(i*2654435761) % span)
	}
	return float64(time.Since(start).Nanoseconds()) / probeIters
}

// probeAllocOp is the cost of one segregated alloc+free pair on a host
// arena, in ns.
func probeAllocOp() float64 {
	p, err := alloc.New(alloc.Segregated, alloc.NewSliceMem(1<<20))
	if err != nil {
		return 0
	}
	start := time.Now()
	for i := 0; i < probeIters; i++ {
		addr, ok := p.Alloc(uint32(32+i%64*16), false)
		if !ok || !p.Free(addr) {
			return 0
		}
	}
	return float64(time.Since(start).Nanoseconds()) / probeIters
}

// timeMedian calls fn n times, each under a span, and returns the median
// duration.
func timeMedian(tr *tracer, name string, n int, fn func(i int) error) (time.Duration, error) {
	v := make([]float64, n)
	for i := range v {
		sp := tr.start(name, nil, -1, 0)
		err := fn(i)
		v[i] = float64(sp.end().Nanoseconds())
		if err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
	}
	return time.Duration(median(v)), nil
}

// svcProbes times, directly, the layers a job passes through: the leg
// runner, the snapshot encode/restore of the warm workload's system, and
// a second Store's result and snapshot calls.
func svcProbes(res *result, o options, tr *tracer) error {
	const n = 20

	// The legs of a cold job, run without the service around them.
	legs := coldJob(o.seed, 0).Legs
	var legRes experiments.LegResult
	d, err := timeMedian(tr, "SimRunner.RunLeg", n, func(i int) (err error) {
		legRes, err = experiments.SimRunner{}.RunLeg(context.Background(), legs[i%len(legs)], nil)
		return err
	})
	if err != nil {
		return err
	}
	res.layer("runner.runleg_ms", ms(d), "ms", n)

	// The warm workload's system at its snapshot point.
	leg := warmJob(o.seed, 0).Legs[0].Normalized()
	cfg, err := leg.Config()
	if err != nil {
		return err
	}
	sys, err := config.Build(cfg)
	if err != nil {
		return err
	}
	prog, err := isa.Assemble(workload.GSMKernelSource(workload.GSMKernelConfig{Frames: leg.Frames, SM: 0, Seed: leg.Seed}))
	if err != nil {
		return err
	}
	if err := sys.AddCPUs(prog.Code); err != nil {
		return err
	}
	if err := sys.Kernel.Run(svcWarmCycles); err != nil {
		return err
	}
	var snap []byte
	d, err = timeMedian(tr, "System.Snapshot", n, func(int) (err error) {
		snap, err = sys.Snapshot()
		return err
	})
	if err != nil {
		return err
	}
	res.layer("config.snapshot_ms", ms(d), "ms", n)
	res.layer("config.snapshot_bytes", float64(len(snap)), "count", 1)
	res.layer("snapshot.mb_per_s", ratio(float64(len(snap))/(1<<20), d.Seconds()), "MB/s", n)
	d, err = timeMedian(tr, "config.RestoreSystem", n, func(int) error {
		_, err := config.RestoreSystem(cfg, snap)
		return err
	})
	if err != nil {
		return err
	}
	res.layer("config.restore_ms", ms(d), "ms", n)

	// A second store, so the probe does not disturb the measured one's
	// hit and miss counts.
	dir := filepath.Join(o.workDir, res.workload+"-probe")
	store, err := service.OpenStore(dir)
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	key := func(i int) string { return fmt.Sprintf("%032x", i+1) }
	missing := func(ok bool, i int) error {
		if !ok {
			return fmt.Errorf("key %d missing from the probe store", i)
		}
		return nil
	}
	for _, p := range []struct {
		metric, span, unit string
		scale              float64 // ms to unit
		fn                 func(i int) error
	}{
		{"store.put_result_us", "Store.PutResult", "us", 1000, func(i int) error { return store.PutResult(key(i), legRes) }},
		{"store.get_result_us", "Store.GetResult", "us", 1000, func(i int) error { _, ok := store.GetResult(key(i)); return missing(ok, i) }},
		{"store.put_snapshot_ms", "Store.PutSnapshot", "ms", 1, func(i int) error { return store.PutSnapshot(key(i), snap) }},
		{"store.get_snapshot_ms", "Store.GetSnapshot", "ms", 1, func(i int) error { _, ok := store.GetSnapshot(key(i)); return missing(ok, i) }},
	} {
		if d, err = timeMedian(tr, p.span, n, p.fn); err != nil {
			return err
		}
		res.layer(p.metric, ms(d)*p.scale, p.unit, n)
	}
	return nil
}
