package experiments

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/alloc"
	"repro/internal/cache"
	"repro/internal/config"
	"repro/internal/trace"
	"repro/internal/workload"

	"repro/internal/bus"
)

var quick = Options{Quick: true}

func TestE1ShapeHolds(t *testing.T) {
	// The multi-memory configuration must simulate slower per cycle (the
	// paper's degradation) while the simulated cycle counts stay close.
	one, err := RunGSMISS(nil, config.SystemConfig{}, 4, 1, 6)
	if err != nil {
		t.Fatal(err)
	}
	four, err := RunGSMISS(nil, config.SystemConfig{}, 4, 4, 6)
	if err != nil {
		t.Fatal(err)
	}
	if one.Cycles == 0 || four.Cycles == 0 {
		t.Fatal("no cycles")
	}
	// With 4 memories contention drops, so 4-mem needs no MORE simulated
	// cycles than 1-mem.
	if four.Cycles > one.Cycles {
		t.Errorf("4-mem simulated cycles (%d) exceed 1-mem (%d)", four.Cycles, one.Cycles)
	}
	tbl, err := E1(quick)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tbl.String(), "degradation") {
		t.Error("table malformed")
	}
}

// TestE1CostIsPerModule is E1's host-independent gate, on its quick
// legs. Adding wrapper memories must not change what is simulated, only
// how many modules the kernel ticks per simulated cycle: under lockstep
// that is every module every cycle, so E1's wall-clock degradation is
// pure per-module host cost. Event-driven stepping ticks them only on
// the few cycles it cannot skip.
func TestE1CostIsPerModule(t *testing.T) {
	run := func(nMem int, lockstep bool) (*config.System, uint64) {
		progs, err := workload.ISSImages("gsm", 4, nMem, 4, 1) // E1's quick frames
		if err != nil {
			t.Fatal(err)
		}
		sys, _, err := simulation{
			cfg:    config.SystemConfig{Masters: 4, Memories: nMem, MemKind: config.MemWrapper, Lockstep: lockstep},
			progs:  progs,
			attach: func(sys *config.System) error { sys.Kernel.EnableProfiling(); return nil },
		}.run(nil)
		if err != nil {
			t.Fatal(err)
		}
		var ticks uint64
		for _, c := range sys.Kernel.ProfileReport() {
			ticks += c.Ticks
		}
		return sys, ticks
	}
	var cycles uint64
	prevMods := 0
	for _, nMem := range []int{1, 4} {
		sys, ticks := run(nMem, true)
		mods := len(sys.Kernel.Modules())
		if cycles == 0 {
			cycles = sys.Kernel.Cycle()
		}
		if got := sys.Kernel.Cycle(); got != cycles {
			t.Errorf("lockstep, %d mem: %d cycles, 1 mem: %d", nMem, got, cycles)
		}
		if st := sys.Kernel.Sched(); st.Stepped != sys.Kernel.Cycle() {
			t.Errorf("lockstep, %d mem: stepped %d of %d cycles", nMem, st.Stepped, sys.Kernel.Cycle())
		}
		if ticks != uint64(mods)*sys.Kernel.Cycle() {
			t.Errorf("lockstep, %d mem: %d Tick calls, want %d modules × %d cycles", nMem, ticks, mods, sys.Kernel.Cycle())
		}
		if mods <= prevMods {
			t.Errorf("%d mem: %d modules, not more than %d", nMem, mods, prevMods)
		}
		prevMods = mods

		ev, _ := run(nMem, false)
		if got := ev.Kernel.Cycle(); got != cycles {
			t.Errorf("event-driven, %d mem: %d cycles, lockstep: %d", nMem, got, cycles)
		}
		// Recorded at the commit that introduced this test: 800 of 62597
		// cycles (1.28%) stepped on both legs.
		if st := ev.Kernel.Sched(); float64(st.Stepped) > 0.02*float64(cycles) {
			t.Errorf("event-driven, %d mem: stepped %d of %d cycles, want <= 2%%", nMem, st.Stepped, cycles)
		}
	}
}

// BenchmarkPAR prices the sharded parallel tick engine on E1's
// four-memory system. CI gates the workers=1 / workers=4 ns/op ratio on
// a 4-vCPU runner; a single-core host shows no speedup.
func BenchmarkPAR(b *testing.B) {
	for _, w := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := RunGSMISS(nil, config.SystemConfig{Workers: w}, 4, 4, 10); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func TestE2WrapperOverheadBounded(t *testing.T) {
	tbl, err := E2(quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 2 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
}

func TestE3HeapsimSlower(t *testing.T) {
	events := 1000
	tr := trace.Generate(trace.GenConfig{
		Seed: 31, Events: events, Slots: 32, NumSM: 1,
		MinDim: 8, MaxDim: 128, DType: bus.U32,
		Mix: trace.Mix{Alloc: 30, Free: 28, Read: 21, Write: 21},
	})
	wrap, _, err := RunTrace(nil, config.SystemConfig{}, config.MemWrapper, tr, trace.ModeDynamic, 1<<22)
	if err != nil {
		t.Fatal(err)
	}
	heap, _, err := RunTrace(nil, config.SystemConfig{}, config.MemHeapSim, tr, trace.ModeDynamic, 1<<22)
	if err != nil {
		t.Fatal(err)
	}
	if heap.Cycles <= wrap.Cycles {
		t.Errorf("heapsim %d cycles not slower than wrapper %d", heap.Cycles, wrap.Cycles)
	}
	if _, err := E3(quick); err != nil {
		t.Fatal(err)
	}
}

func TestE4Deterministic(t *testing.T) {
	tabs, err := E4(quick)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(tabs[0].String(), "DIVERGED") {
		t.Errorf("determinism broken:\n%s", tabs[0])
	}
}

func TestE1bPipelineRuns(t *testing.T) {
	tbl, err := E1b(quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 2 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
}

func TestE5E6E7E8RunClean(t *testing.T) {
	if _, err := E5(quick); err != nil {
		t.Fatal(err)
	}
	if _, err := E6(quick); err != nil {
		t.Fatal(err)
	}
	if _, err := E7(quick); err != nil {
		t.Fatal(err)
	}
	if _, err := E8(quick); err != nil {
		t.Fatal(err)
	}
}

func TestA1CrossbarNoSlowerInSimTime(t *testing.T) {
	tbl, err := A1(quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 2 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
}

func TestA2BinaryFewerProbes(t *testing.T) {
	tbl, err := A2(quick)
	if err != nil {
		t.Fatal(err)
	}
	// At 10000 allocations the binary search must probe far less than
	// linear. Probe columns are 3 (linear) and 4 (binary).
	last := tbl.Rows[len(tbl.Rows)-1]
	var lin, bin float64
	if _, err := fmtSscan(last[3], &lin); err != nil {
		t.Fatal(err)
	}
	if _, err := fmtSscan(last[4], &bin); err != nil {
		t.Fatal(err)
	}
	if bin*10 > lin {
		t.Errorf("binary probes %.1f not ≪ linear %.1f", bin, lin)
	}
}

// fmtSscan wraps fmt.Sscan for float cells.
func fmtSscan(s string, v *float64) (int, error) {
	return fmt.Sscan(s, v)
}

// TestE9PolicyShape pins E9's acceptance claim on the quick workload:
// first-fit's alloc latency (metered accesses per allocation) grows
// from the early to the late quarter of the adversarial churn, while
// buddy and segregated stay near-flat.
func TestE9PolicyShape(t *testing.T) {
	ops := E9Workload(quick)
	results := map[alloc.Kind]ChurnResult{}
	for _, kind := range alloc.Kinds() {
		r, err := RunChurn(kind, E9Arena(quick), ops)
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if r.Allocs == 0 {
			t.Fatalf("%v: no allocations", kind)
		}
		results[kind] = r
	}
	if g := results[alloc.FirstFit].Growth(); g < 5 {
		t.Errorf("first-fit growth %.1fx; want ≥ 5x on the adversarial churn", g)
	}
	for _, kind := range []alloc.Kind{alloc.Buddy, alloc.Segregated} {
		if g := results[kind].Growth(); g > 2 {
			t.Errorf("%v growth %.1fx; want near-flat (≤ 2x)", kind, g)
		}
		if results[kind].LatePerAlloc >= results[alloc.FirstFit].LatePerAlloc/4 {
			t.Errorf("%v late cost %.1f vs first-fit %.1f; want far below",
				kind, results[kind].LatePerAlloc, results[alloc.FirstFit].LatePerAlloc)
		}
	}
	if _, err := E9(quick); err != nil {
		t.Fatal(err)
	}
}

// TestE10MLPAcceptance pins the tentpole's quantitative claim: on the
// multi-memory MLP configuration, depth-4 split-bus transactions beat
// the single-outstanding occupied protocol by at least 1.3× simulated
// cycles, and the split crossbar scales further with depth. Quick-sized
// so CI replays it on every run.
func TestE10MLPAcceptance(t *testing.T) {
	elems := E10Elems(Options{Quick: true})
	streams := E10Streams()
	ref, err := RunMLP(nil, config.SystemConfig{OutstandingDepth: 1}, streams, elems, config.InterBus)
	if err != nil {
		t.Fatal(err)
	}
	deep, err := RunMLP(nil, config.SystemConfig{OutstandingDepth: 4, SplitBus: true}, streams, elems, config.InterBus)
	if err != nil {
		t.Fatal(err)
	}
	if ratio := float64(ref.Cycles) / float64(deep.Cycles); ratio < 1.3 {
		t.Errorf("depth-4 split bus improved only %.2fx over the occupied protocol (%d vs %d cycles), want ≥ 1.3x",
			ratio, ref.Cycles, deep.Cycles)
	} else {
		t.Logf("depth-4 split bus: %.2fx (%d → %d cycles)", ratio, ref.Cycles, deep.Cycles)
	}
	x1, err := RunMLP(nil, config.SystemConfig{OutstandingDepth: 1, SplitBus: true}, streams, elems, config.InterCrossbar)
	if err != nil {
		t.Fatal(err)
	}
	x4, err := RunMLP(nil, config.SystemConfig{OutstandingDepth: 4, SplitBus: true}, streams, elems, config.InterCrossbar)
	if err != nil {
		t.Fatal(err)
	}
	if x4.Cycles >= x1.Cycles {
		t.Errorf("split crossbar did not scale with depth: %d cycles at d=1, %d at d=4", x1.Cycles, x4.Cycles)
	}
}

// TestE10Table smoke-runs the full E10 sweep at quick scale.
func TestE10Table(t *testing.T) {
	if _, err := E10(Options{Quick: true}); err != nil {
		t.Fatal(err)
	}
}

// TestE11CacheAcceptance pins the cache hierarchy's quantitative claim:
// on the locality-heavy configuration, coherent private L1s cut
// simulated cycles by at least 1.5x versus the uncached system, with the
// final memory image verified exactly (RunCache fails on any mismatch).
// The sharing-heavy configuration must stay correct under the
// false-sharing invalidation storm and actually exercise the snoop
// protocol. Quick-sized so CI replays it on every run.
func TestE11CacheAcceptance(t *testing.T) {
	locality, sharing := E11Workload(Options{Quick: true})
	base, _, err := RunCache(nil, config.SystemConfig{}, locality, false, config.InterBus)
	if err != nil {
		t.Fatal(err)
	}
	cached, _, err := RunCache(nil, config.SystemConfig{}, locality, true, config.InterBus)
	if err != nil {
		t.Fatal(err)
	}
	if ratio := float64(base.Cycles) / float64(cached.Cycles); ratio < 1.5 {
		t.Errorf("coherent L1s improved only %.2fx on the locality-heavy config (%d vs %d cycles), want ≥ 1.5x",
			ratio, base.Cycles, cached.Cycles)
	} else {
		t.Logf("coherent L1s: %.2fx (%d → %d cycles), hit rate %.1f%%",
			ratio, base.Cycles, cached.Cycles, 100*cached.HitRate())
	}
	if cached.HitRate() < 0.5 {
		t.Errorf("locality-heavy hit rate %.1f%% implausibly low", 100*cached.HitRate())
	}
	share, _, err := RunCache(nil, config.SystemConfig{}, sharing, true, config.InterBus)
	if err != nil {
		t.Fatal(err)
	}
	if share.Invalidations == 0 || share.Flushes == 0 {
		t.Errorf("sharing-heavy config exercised no snooping: %+v", share)
	}
}

// TestE11Table smoke-runs the full E11 sweep at quick scale.
func TestE11Table(t *testing.T) {
	if _, err := E11(Options{Quick: true}); err != nil {
		t.Fatal(err)
	}
}

// TestE12PartitionAcceptance pins the L2 partitioning claim: on the
// asymmetric thrasher/reuse workload, UCP finishes the reuse-heavy PE
// at least 1.5x sooner than unpartitioned shared LRU, actually
// repartitions, and produces the exact final memory image (RunE12
// fails on any mismatch). Full-sized — the quick scale ends before the
// utility monitors amortize their warm-up.
func TestE12PartitionAcceptance(t *testing.T) {
	w := E12Params(Options{})
	lru, _, err := RunE12(nil, config.SystemConfig{}, w, cache.PartNone)
	if err != nil {
		t.Fatal(err)
	}
	ucp, _, err := RunE12(nil, config.SystemConfig{}, w, cache.PartUCP)
	if err != nil {
		t.Fatal(err)
	}
	if ucp.L2.Repartitions == 0 {
		t.Error("UCP never repartitioned")
	}
	if ratio := float64(lru.ReuseCycles) / float64(ucp.ReuseCycles); ratio < 1.5 {
		t.Errorf("UCP recovered only %.2fx reuse-PE throughput (%d vs %d cycles), want ≥ 1.5x; L2 %+v vs %+v",
			ratio, lru.ReuseCycles, ucp.ReuseCycles, lru.L2, ucp.L2)
	} else {
		t.Logf("UCP recovery: %.2fx (%d → %d reuse-PE cycles), hit rate %.1f%% vs %.1f%%, %d repartitions",
			ratio, lru.ReuseCycles, ucp.ReuseCycles,
			100*ucp.L2.HitRate(), 100*lru.L2.HitRate(), ucp.L2.Repartitions)
	}
	// The DRAM leg must stay correct and exercise the bank model.
	dr, _, err := RunE12(nil, config.SystemConfig{MemKind: config.MemDRAM}, w, cache.PartUCP)
	if err != nil {
		t.Fatal(err)
	}
	if dr.DRAM.RowHits+dr.DRAM.RowMisses+dr.DRAM.RowConflicts == 0 {
		t.Errorf("DRAM leg recorded no row activity: %+v", dr.DRAM)
	}
}

// TestE12Table smoke-runs the full E12 sweep at quick scale.
func TestE12Table(t *testing.T) {
	tbl, err := E12(Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 6 {
		t.Fatalf("rows = %d, want 6", len(tbl.Rows))
	}
}
