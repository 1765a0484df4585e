package config

import (
	"flag"
	"fmt"
	"runtime"
	"strconv"

	"repro/internal/alloc"
	"repro/internal/cache"
)

// This file is the command-line face of SystemConfig: the one set of
// platform flags cmd/mpsim and cmd/experiments share, and the one run
// header both print. A new platform axis is a SystemConfig field plus a
// line in BindFlags (and, if a run should report it, in Describe).

// u32Flag binds a flag to a uint32 field; the flag package stops at
// uint and uint64.
type u32Flag uint32

func (v *u32Flag) String() string { return strconv.FormatUint(uint64(*v), 10) }

func (v *u32Flag) Set(s string) error {
	n, err := strconv.ParseUint(s, 0, 32)
	if err == nil {
		*v = u32Flag(n)
	}
	return err
}

// BindFlags declares the platform flags on fs, each bound to its field
// of c and defaulted as the flag help says; Masters is not a flag — the
// command sizes the master side from its own workload flags. Call the
// returned resolve once fs has been parsed: it applies the rules that
// span flags (-l2 implies -cache -coherent, and -coherent means nothing
// without -cache).
func (c *SystemConfig) BindFlags(fs *flag.FlagSet) (resolve func()) {
	fs.IntVar(&c.Memories, "memories", 1, "number of shared memory modules")
	fs.TextVar(&c.MemKind, "memkind", MemWrapper, "memory `model`: wrapper | static | heapsim | dram")
	fs.TextVar(&c.Interconnect, "interconnect", InterBus, "interconnect `topology`: bus | crossbar")
	fs.BoolVar(&c.Lockstep, "lockstep", false, "pin the kernel to lockstep stepping (default: event-driven idle-skip)")
	fs.TextVar(&c.AllocPolicy, "alloc", alloc.Default, "allocation `policy`: default | first-fit | best-fit | buddy | segregated (heapsim metadata allocator / wrapper virtual placement)")
	fs.IntVar(&c.OutstandingDepth, "depth", 1, "per-port outstanding-transaction depth (credit pool; 1 = classic single-outstanding)")
	fs.BoolVar(&c.SplitBus, "split", false, "split-transaction interconnect: address phase releases the bus, responses re-arbitrate")
	fs.BoolVar(&c.OutOfOrder, "ooo", false, "deliver completions out of order (default: in issue order)")
	fs.BoolVar(&c.Cache, "cache", false, "front every master with a private write-back L1 cache (MESI-snooped when -coherent)")
	fs.BoolVar(&c.Coherent, "coherent", true, "attach the L1s to a MESI snoop domain (only meaningful with -cache)")
	fs.IntVar(&c.CacheSets, "l1sets", 0, "L1 sets (0 = default 64)")
	fs.IntVar(&c.CacheWays, "l1ways", 0, "L1 ways (0 = default 2)")
	fs.Var((*u32Flag)(&c.CacheLineBytes), "l1line", "L1 line size in `bytes` (0 = default 32)")
	fs.IntVar(&c.CacheMSHRs, "mshrs", 0, "L1 miss-status-holding registers (0 = default 4)")
	fs.BoolVar(&c.L2, "l2", false, "interpose a shared inclusive L2 between interconnect and memory (implies -cache -coherent)")
	fs.IntVar(&c.L2Sets, "l2sets", 0, "L2 sets (0 = default 64)")
	fs.IntVar(&c.L2Ways, "l2ways", 0, "L2 ways (0 = default 8)")
	fs.Var((*u32Flag)(&c.L2LineBytes), "l2line", "L2 line size in `bytes` (0 = default 64)")
	fs.IntVar(&c.L2MSHRs, "l2mshrs", 0, "L2 miss-status-holding registers (0 = default 8)")
	fs.TextVar(&c.Partition, "partition", cache.PartNone, "L2 way partitioning `policy`: none | swp | ucp")
	fs.Uint64Var(&c.UCPPeriod, "ucp-period", 0, "demand accesses between UCP repartitions (0 = default)")
	fs.IntVar(&c.DRAMBanks, "dram-banks", 0, "DRAM banks (0 = default 8)")
	fs.Var((*u32Flag)(&c.DRAMRowBytes), "dram-rowbytes", "DRAM row-buffer `bytes` per bank (0 = default 1024)")
	fs.BoolVar(&c.DRAMClosePage, "dram-close-page", false, "DRAM close-page policy (default: open-page row buffers)")
	fs.Uint64Var(&c.DRAMRefreshPeriod, "dram-refresh-period", 0, "cycles between DRAM refresh epochs (0 = refresh off)")
	fs.Var((*u32Flag)(&c.DRAMRefreshCycles), "dram-refresh-cycles", "`cycles` a bank stalls per refresh epoch")
	return func() {
		if c.L2 {
			// The L2's inclusion machinery back-invalidates L1 lines through
			// the MESI domain, so an L2 always implies coherent L1s.
			c.Cache, c.Coherent = true, true
		}
		c.Coherent = c.Coherent && c.Cache
	}
}

// Describe renders the run header: every platform axis the numbers a
// command prints below it are attributable to, plus the host's
// parallelism. Counts (masters, memories) are left to the caller —
// cmd/experiments sizes them per experiment.
func (c SystemConfig) Describe() string {
	caches := "uncached"
	if c.Cache || c.Coherent {
		coh := "private"
		if c.Coherent {
			coh = "MESI-coherent"
		}
		caches = fmt.Sprintf("%s L1 (%dB lines)", coh, c.l1LineBytes())
	}
	if c.L2 {
		caches += fmt.Sprintf(" + shared inclusive L2 (%s partitioning)", c.Partition)
	}
	if c.MemKind == MemDRAM {
		page := "open-page"
		if c.DRAMClosePage {
			page = "close-page"
		}
		caches += fmt.Sprintf("; banked DRAM (%s)", page)
	}
	proto, order, sched := "occupied", "in-order", "event-driven"
	if c.SplitBus {
		proto = "split"
	}
	if c.OutOfOrder {
		order = "out-of-order"
	}
	if c.Lockstep {
		sched = "lockstep"
	}
	return fmt.Sprintf("%s × %s memory (alloc %s); %s; %s protocol × depth=%d × %s; scheduler %s (host GOMAXPROCS %d, NumCPU %d)",
		c.Interconnect, c.MemKind, c.AllocPolicy, caches, proto, c.OutstandingDepth, order,
		sched, runtime.GOMAXPROCS(0), runtime.NumCPU())
}
