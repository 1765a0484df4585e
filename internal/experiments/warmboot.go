package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"time"

	"repro/internal/config"
	"repro/internal/isa"
	"repro/internal/stats"
	"repro/internal/workload"
)

// This file is the warm-boot sweep: instead of paying the workload's
// warm-up phase once per swept configuration, the sweep runs it once,
// snapshots, and fans every scheduler variant out from the snapshot.
// The bit-identical scheduler matrix is what makes this sound — a
// snapshot taken under one kernel mode resumes under any other and
// still produces the cold run's exact cycle count — and the WB
// experiment proves it by checking, not assuming.

// SnapshotHash digests snapshot bytes for result-store keying (see
// LegSpec.Key).
func SnapshotHash(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:16])
}

// wbConfig is the warm-boot experiment's system: the paper's 4-ISS GSM
// configuration against one wrapper memory.
func wbConfig(m Mode) config.SystemConfig {
	cfg := m.sysConfig()
	cfg.Masters, cfg.Memories, cfg.MemKind = 4, 1, config.MemWrapper
	return cfg
}

func wbBuild(frames int, m Mode) (*config.System, error) {
	sys, err := config.Build(wbConfig(m))
	if err != nil {
		return nil, err
	}
	progs := make([][]byte, 4)
	for i := range progs {
		p, err := isa.Assemble(workload.GSMKernelSource(workload.GSMKernelConfig{
			Frames: frames, SM: 0, Seed: uint32(i + 1),
		}))
		if err != nil {
			return nil, err
		}
		progs[i] = p.Code
	}
	if err := sys.AddCPUs(progs...); err != nil {
		return nil, err
	}
	return sys, nil
}

func wbFinish(sys *config.System, m Mode) (uint64, error) {
	if _, err := m.runUntil(sys.Kernel, sys.CPUsHalted, runLimit); err != nil {
		return 0, err
	}
	for i, cpu := range sys.CPUs {
		if cpu.ExitCode() != 0 {
			return 0, fmt.Errorf("iss %d exited %#x", i, cpu.ExitCode())
		}
	}
	return sys.Kernel.Cycle(), nil
}

// WarmBootSnapshot runs the shared warm-up phase — warmFrac of the
// cold run's cycles — once, in mode m, and returns the snapshot bytes
// plus the warm-up cycle count.
func WarmBootSnapshot(frames int, m Mode, coldCycles uint64) ([]byte, uint64, error) {
	warmK := coldCycles / 2
	sys, err := wbBuild(frames, m)
	if err != nil {
		return nil, 0, err
	}
	if err := sys.Kernel.RunCtx(m.ctx, warmK); err != nil {
		return nil, 0, err
	}
	data, err := sys.Snapshot()
	if err != nil {
		return nil, 0, err
	}
	return data, warmK, nil
}

// WarmBootColdRun runs the WB workload from cycle 0 in mode m and
// returns its total cycle count (benchmark support).
func WarmBootColdRun(frames int, m Mode) (uint64, error) {
	sys, err := wbBuild(frames, m)
	if err != nil {
		return 0, err
	}
	return wbFinish(sys, m)
}

// WarmBootResume restores the WB workload's snapshot under mode m and
// runs the remainder, returning the total cycle count (benchmark
// support).
func WarmBootResume(m Mode, snap []byte) (uint64, error) {
	sys, err := config.RestoreSystem(wbConfig(m), snap)
	if err != nil {
		return 0, err
	}
	return wbFinish(sys, m)
}

// WB is the warm-boot experiment: a scheduler sweep over the GSM
// configuration, run cold (from cycle 0) and warm (restored from one
// shared warm-up snapshot). Every warm leg must reproduce the cold
// leg's exact cycle count — restore correctness is asserted inside the
// measurement, not alongside it. Serving a repeated variant without
// simulating is the result store's job (internal/service), not the
// experiment's.
func WB(o Options) (*stats.Table, error) {
	frames := o.pick(20, 3)
	base := o.mode()

	// Cold reference: learns the total cycle count the warm legs must hit.
	refSys, err := wbBuild(frames, base)
	if err != nil {
		return nil, err
	}
	total, err := wbFinish(refSys, base)
	if err != nil {
		return nil, err
	}

	// Shared warm-up: one run to total/2, snapshotted once — or, when
	// o.Restore names a file, loaded from a previous run's checkpoint
	// (an incompatible file fails on the first warm leg's restore).
	var snap []byte
	var warmK uint64
	if o.Restore != "" {
		snap, err = os.ReadFile(o.Restore)
		if err != nil {
			return nil, err
		}
	} else {
		snap, warmK, err = WarmBootSnapshot(frames, base, total)
		if err != nil {
			return nil, err
		}
	}
	if o.Checkpoint != "" {
		if err := os.WriteFile(o.Checkpoint, snap, 0o644); err != nil {
			return nil, err
		}
	}

	variants := []struct {
		name string
		mode Mode
	}{
		{"lockstep/w1", func() Mode { m := base; m.Lockstep, m.Workers = true, 1; return m }()},
		{"event-driven/w1", func() Mode { m := base; m.Lockstep, m.Workers = false, 1; return m }()},
		{"event-driven/w4", func() Mode { m := base; m.Lockstep, m.Workers = false, 4; return m }()},
	}

	warmDesc := fmt.Sprintf("warm-up %d of %d cycles", warmK, total)
	if o.Restore != "" {
		warmDesc = fmt.Sprintf("warm-up restored from %s, %d total cycles", o.Restore, total)
	}
	t := stats.NewTable(
		fmt.Sprintf("WB: warm-boot sweep on GSM 4 ISS / 1 mem (%d frames, %s, snapshot %d KiB)",
			frames, warmDesc, len(snap)/1024),
		"variant", "cold wall", "warm wall", "saving", "cycles")
	for _, v := range variants {
		// Cold leg.
		coldSys, err := wbBuild(frames, v.mode)
		if err != nil {
			return nil, err
		}
		coldStart := time.Now()
		coldCycles, err := wbFinish(coldSys, v.mode)
		if err != nil {
			return nil, err
		}
		coldWall := time.Since(coldStart)
		// Warm leg: restore the shared snapshot under this variant's
		// scheduler knobs and run the remainder.
		warmStart := time.Now()
		warmSys, err := config.RestoreSystem(wbConfig(v.mode), snap)
		if err != nil {
			return nil, err
		}
		warmCycles, err := wbFinish(warmSys, v.mode)
		if err != nil {
			return nil, err
		}
		warmWall := time.Since(warmStart)
		if coldCycles != total || warmCycles != total {
			return nil, fmt.Errorf("wb %s: cycles diverged: cold %d, warm %d, reference %d",
				v.name, coldCycles, warmCycles, total)
		}
		saving := 1 - warmWall.Seconds()/coldWall.Seconds()
		t.Add(v.name, coldWall.Round(time.Millisecond).String(), warmWall.Round(time.Millisecond).String(),
			stats.Pct(saving), fmt.Sprint(warmCycles))
	}
	return t, nil
}
