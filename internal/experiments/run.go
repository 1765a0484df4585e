package experiments

import (
	"context"
	"fmt"
	"time"

	"repro/internal/config"
	"repro/internal/smapi"
)

// runLimit is the cycle budget for any single measured run.
const runLimit = 2_000_000_000

// simulation describes one run from start to finish: the platform, the
// software on it, where it starts and when it stops. Every measured
// system of this package — experiment legs, warm-boot prefixes, service
// legs — is one of these handed to run, so there is one place where
// systems are built or restored, one where they are cancelled, and one
// where ISS exit codes are checked.
type simulation struct {
	cfg config.SystemConfig
	// warm, when non-nil, is a snapshot to resume from instead of
	// building a cold system at cycle 0; it carries the attached
	// masters, so progs and tasks are not consulted.
	warm []byte
	// progs are ISS images and tasks native PE tasks: one master each,
	// ISSs first, on the cold system's master ports in order.
	progs [][]byte
	tasks []smapi.Task
	// attach, when set, wires whatever else the run needs onto the built
	// or restored system before it starts: DMA engines, host-placed
	// buffers, observers.
	attach func(*config.System) error
	// done is the stop condition; nil means every CPU has halted and
	// every Proc has finished.
	done func() bool
	// cycles, when non-zero, replaces the stop condition: the run covers
	// exactly that many cycles (a warm-up prefix).
	cycles uint64
}

// run builds (or restores) the system, attaches its software, runs it
// to its stop condition and checks every ISS exited cleanly. It returns
// the finished system and the wall-clock time of the run phase alone. A
// non-nil ctx makes the run cancellable at the kernel's chunk boundary;
// nil keeps it on the plain uninterruptible path.
func (s simulation) run(ctx context.Context) (*config.System, time.Duration, error) {
	var sys *config.System
	var err error
	if s.warm != nil {
		sys, err = config.RestoreSystem(s.cfg, s.warm)
	} else if sys, err = config.Build(s.cfg); err == nil {
		if err = sys.AddCPUs(s.progs...); err == nil {
			err = sys.AddProcs(s.tasks...)
		}
	}
	if err == nil && s.attach != nil {
		err = s.attach(sys)
	}
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	if s.cycles > 0 {
		err = sys.Kernel.RunCtx(ctx, s.cycles)
	} else {
		done := s.done
		if done == nil {
			done = func() bool { return sys.CPUsHalted() && sys.ProcsDone() }
		}
		_, err = sys.Kernel.RunUntilCtx(ctx, done, runLimit)
	}
	wall := time.Since(start)
	if err != nil {
		return nil, 0, err
	}
	for i, cpu := range sys.CPUs {
		if cpu.ExitCode() != 0 {
			return nil, 0, fmt.Errorf("iss %d exited %#x", i, cpu.ExitCode())
		}
	}
	return sys, wall, nil
}
