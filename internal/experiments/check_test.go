package experiments

import (
	"fmt"
	"testing"

	"repro/internal/config"
)

// TestCheckEveryStep proves that System.Check rejects no state a run
// reaches: every snapshot scenario and every allocation-policy scenario
// runs to completion with Check after every cycle in lockstep and after
// every stepped cycle event-driven. A restore checks its state with the
// same System.Check, so no reachable state fails to restore.
func TestCheckEveryStep(t *testing.T) {
	scs := append(midFlightScenarios(), everyCycleScenarios()...)
	for _, sc := range append(scs, allocPolicyScenarios()...) {
		for _, m := range []config.SystemConfig{{Lockstep: true}, {}} {
			// The /workers=1 suffix keeps the subtest names these runs
			// have always had; the kernel has no other worker count.
			t.Run(sc.name+"/"+modeName(m)+"/workers=1", func(t *testing.T) {
				sys, err := sc.build(m)
				if err != nil {
					t.Fatal(err)
				}
				if err := sys.Check(); err != nil {
					t.Fatalf("as built: %v", err)
				}
				var checkErr error
				checked := uint64(0)
				sys.Kernel.AfterCycle(func(cycle uint64) {
					if checkErr == nil {
						checked++
						if err := sys.Check(); err != nil {
							checkErr = fmt.Errorf("after cycle %d: %w", cycle, err)
						}
					}
				})
				done := sc.done(sys)
				if _, err := sys.Kernel.RunUntil(func() bool { return checkErr != nil || done() }, runLimit); err != nil {
					t.Fatal(err)
				}
				if checkErr != nil {
					t.Fatal(checkErr)
				}
				if want := sys.Kernel.Sched().Stepped; checked != want {
					t.Fatalf("checked %d cycles, the kernel stepped %d", checked, want)
				}
			})
		}
	}
}
