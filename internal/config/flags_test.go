package config

import (
	"flag"
	"io"
	"reflect"
	"strings"
	"testing"

	"repro/internal/alloc"
	"repro/internal/cache"
)

// parseFlags parses an mpsim-shaped command line: the platform flags
// through BindFlags plus the handful of mpsim's own flags the recorded
// CI lines carry, of which only -isses reaches the config.
func parseFlags(t *testing.T, line string) SystemConfig {
	t.Helper()
	var cfg SystemConfig
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	resolve := cfg.BindFlags(fs)
	isses := fs.Int("isses", 0, "")
	for _, own := range []string{"workload", "frames", "iters", "checkpoint", "checkpoint-file", "restore"} {
		fs.String(own, "", "")
	}
	if err := fs.Parse(strings.Fields(line)); err != nil {
		t.Fatalf("%q: %v", line, err)
	}
	resolve()
	cfg.Masters = *isses
	return cfg
}

// flagDefaults is what an empty command line yields.
var flagDefaults = SystemConfig{Memories: 1, OutstandingDepth: 1}

// TestBindFlagsEveryFlagLandsInItsField sets each platform flag alone
// and compares the whole struct: the flag's field moved, nothing else
// did.
func TestBindFlagsEveryFlagLandsInItsField(t *testing.T) {
	cases := []struct {
		line string
		set  func(*SystemConfig)
	}{
		{"", func(c *SystemConfig) {}},
		{"-memories 3", func(c *SystemConfig) { c.Memories = 3 }},
		{"-memkind heapsim", func(c *SystemConfig) { c.MemKind = MemHeapSim }},
		{"-memkind dram", func(c *SystemConfig) { c.MemKind = MemDRAM }},
		{"-interconnect crossbar", func(c *SystemConfig) { c.Interconnect = InterCrossbar }},
		{"-lockstep", func(c *SystemConfig) { c.Lockstep = true }},
		{"-alloc buddy", func(c *SystemConfig) { c.AllocPolicy = alloc.Buddy }},
		{"-depth 8", func(c *SystemConfig) { c.OutstandingDepth = 8 }},
		{"-split", func(c *SystemConfig) { c.SplitBus = true }},
		{"-ooo", func(c *SystemConfig) { c.OutOfOrder = true }},
		{"-cache", func(c *SystemConfig) { c.Cache, c.Coherent = true, true }},
		{"-cache -coherent=false", func(c *SystemConfig) { c.Cache = true }},
		{"-l1sets 16", func(c *SystemConfig) { c.CacheSets = 16 }},
		{"-l1ways 4", func(c *SystemConfig) { c.CacheWays = 4 }},
		{"-l1line 64", func(c *SystemConfig) { c.CacheLineBytes = 64 }},
		{"-mshrs 2", func(c *SystemConfig) { c.CacheMSHRs = 2 }},
		{"-l2sets 32", func(c *SystemConfig) { c.L2Sets = 32 }},
		{"-l2ways 16", func(c *SystemConfig) { c.L2Ways = 16 }},
		{"-l2line 128", func(c *SystemConfig) { c.L2LineBytes = 128 }},
		{"-l2mshrs 6", func(c *SystemConfig) { c.L2MSHRs = 6 }},
		{"-partition ucp", func(c *SystemConfig) { c.Partition = cache.PartUCP }},
		{"-ucp-period 64", func(c *SystemConfig) { c.UCPPeriod = 64 }},
		{"-dram-banks 4", func(c *SystemConfig) { c.DRAMBanks = 4 }},
		{"-dram-rowbytes 512", func(c *SystemConfig) { c.DRAMRowBytes = 512 }},
		{"-dram-close-page", func(c *SystemConfig) { c.DRAMClosePage = true }},
		{"-dram-refresh-period 2048", func(c *SystemConfig) { c.DRAMRefreshPeriod = 2048 }},
		{"-dram-refresh-cycles 32", func(c *SystemConfig) { c.DRAMRefreshCycles = 32 }},
		// The rules that span flags.
		{"-coherent", func(c *SystemConfig) {}}, // means nothing without -cache
		{"-l2", func(c *SystemConfig) { c.L2, c.Cache, c.Coherent = true, true, true }},
		{"-l2 -coherent=false", func(c *SystemConfig) { c.L2, c.Cache, c.Coherent = true, true, true }},
	}
	seen := map[string]bool{}
	for _, tc := range cases {
		want := flagDefaults
		tc.set(&want)
		if got := parseFlags(t, tc.line); !reflect.DeepEqual(got, want) {
			t.Errorf("%q:\n got %+v\nwant %+v", tc.line, got, want)
		}
		for _, f := range strings.Fields(tc.line) {
			if strings.HasPrefix(f, "-") {
				seen[strings.SplitN(f[1:], "=", 2)[0]] = true
			}
		}
	}
	// The table above covers the whole flag set: a flag added to
	// BindFlags without a row here fails.
	var cfg SystemConfig
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	cfg.BindFlags(fs)
	fs.VisitAll(func(f *flag.Flag) {
		if !seen[f.Name] {
			t.Errorf("platform flag -%s has no row in this test", f.Name)
		}
	})

	for _, bad := range []string{"-memkind rom", "-interconnect ring", "-alloc slab", "-partition diag", "-l1line 4294967296"} {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		cfg.BindFlags(fs)
		if err := fs.Parse(strings.Fields(bad)); err == nil {
			t.Errorf("%q accepted", bad)
		}
	}
}

// TestFlagConfigHashesMatchRecorded parses the mpsim command lines of
// CI's snapshot job and compares Hash and StateHash with the values the
// commit before BindFlags produced for the same lines (mpsim's own
// flag→config block, since deleted). hash() digests "%+v" of the whole
// struct, so equality here also pins that no SystemConfig field was
// added, removed, reordered or retyped — i.e. that snapshots and stored
// results written before this change still match. The Hash column was
// re-recorded when the -workers flag, whose default 1 every line
// carried, was deleted; the StateHash column is unchanged, so snapshots
// written before that still restore.
func TestFlagConfigHashesMatchRecorded(t *testing.T) {
	const l2Flags = "-isses 2 -memories 1 -memkind dram -l2 -l2sets 4 -l2ways 4 " +
		"-partition ucp -dram-refresh-period 2048 -dram-refresh-cycles 32 " +
		"-split -depth 4 -workload sweep -iters 40"
	for _, tc := range []struct {
		line, hash, stateHash string
	}{
		{"-isses 4", "a9c8050274d6d95f9660923f4a4d9746", "a9c8050274d6d95f9660923f4a4d9746"},
		{"-isses 2 -memories 1 -workload gsm -frames 2 -checkpoint 3000 -checkpoint-file mp.snap",
			"e5090909c960bf309b04c0c7f60e475e", "e5090909c960bf309b04c0c7f60e475e"},
		{"-isses 2 -memories 1 -restore mp.snap -lockstep",
			"ccdc704c3e3b72831553f98bdc309b24", "e5090909c960bf309b04c0c7f60e475e"},
		{l2Flags + " -checkpoint 3000 -checkpoint-file l2.snap",
			"468462e8662b3058885240d54a8f39ba", "468462e8662b3058885240d54a8f39ba"},
		{l2Flags + " -restore l2.snap -lockstep",
			"5bea61e4c976c5d585439185785ed7cb", "468462e8662b3058885240d54a8f39ba"},
	} {
		cfg := parseFlags(t, tc.line)
		if got := cfg.Hash(); got != tc.hash {
			t.Errorf("%q: Hash = %s, recorded %s", tc.line, got, tc.hash)
		}
		if got := cfg.StateHash(); got != tc.stateHash {
			t.Errorf("%q: StateHash = %s, recorded %s", tc.line, got, tc.stateHash)
		}
	}
}
