package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"time"

	"repro/internal/config"
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

// WB is the warm-boot experiment: a scheduler sweep over the paper's
// 4-ISS GSM configuration against one wrapper memory, run cold (from
// cycle 0) and warm (restored from one shared warm-up snapshot). Every
// warm leg must reproduce the cold leg's exact cycle count — restore
// correctness is asserted inside the measurement, not alongside it.
// Serving a repeated variant without simulating is the result store's
// job (internal/service), not the experiment's.
func WB(o Options) (*stats.Table, error) {
	frames := o.pick(20, 3)
	progs, err := workload.ISSImages("gsm", 4, 1, frames, 1)
	if err != nil {
		return nil, err
	}
	cold := simulation{cfg: o.Base, progs: progs}
	cold.cfg.Masters, cold.cfg.Memories, cold.cfg.MemKind = 4, 1, config.MemWrapper

	// Cold reference: learns the total cycle count the warm legs must hit.
	refSys, _, err := cold.run(o.Ctx)
	if err != nil {
		return nil, err
	}
	total := refSys.Kernel.Cycle()

	// Shared warm-up: one run to total/2, snapshotted once — or, when
	// o.Restore names a file, loaded from a previous run's checkpoint
	// (an incompatible file fails on the first warm leg's restore).
	var snap []byte
	warmK := total / 2
	warmDesc := fmt.Sprintf("warm-up %d of %d cycles", warmK, total)
	if o.Restore != "" {
		snap, err = os.ReadFile(o.Restore)
		if err != nil {
			return nil, err
		}
		warmDesc = fmt.Sprintf("warm-up restored from %s, %d total cycles", o.Restore, total)
	} else {
		prefix := cold
		prefix.cycles = warmK
		warmSys, _, err := prefix.run(o.Ctx)
		if err != nil {
			return nil, err
		}
		if snap, err = warmSys.Snapshot(); err != nil {
			return nil, err
		}
	}
	if o.Checkpoint != "" {
		if err := os.WriteFile(o.Checkpoint, snap, 0o644); err != nil {
			return nil, err
		}
	}

	t := stats.NewTable(
		fmt.Sprintf("WB: warm-boot sweep on GSM 4 ISS / 1 mem (%d frames, %s, snapshot %d KiB)",
			frames, warmDesc, len(snap)/1024),
		"variant", "cold wall", "warm wall", "saving", "cycles")
	for _, v := range []struct {
		name     string
		lockstep bool
	}{
		{"lockstep", true},
		{"event-driven", false},
	} {
		leg := cold
		leg.cfg.Lockstep = v.lockstep
		coldSys, coldWall, err := leg.run(o.Ctx)
		if err != nil {
			return nil, err
		}
		// Warm leg: restore the shared snapshot under this variant's
		// scheduler knobs and run the remainder; its wall includes the
		// restore, which is the price of not simulating the warm-up.
		leg.warm = snap
		warmStart := time.Now()
		warmSys, _, err := leg.run(o.Ctx)
		if err != nil {
			return nil, err
		}
		warmWall := time.Since(warmStart)
		if coldCycles, warmCycles := coldSys.Kernel.Cycle(), warmSys.Kernel.Cycle(); coldCycles != total || warmCycles != total {
			return nil, fmt.Errorf("wb %s: cycles diverged: cold %d, warm %d, reference %d",
				v.name, coldCycles, warmCycles, total)
		}
		saving := 1 - warmWall.Seconds()/coldWall.Seconds()
		t.Add(v.name, coldWall.Round(time.Millisecond).String(), warmWall.Round(time.Millisecond).String(),
			stats.Pct(saving), fmt.Sprint(total))
	}
	return t, nil
}
