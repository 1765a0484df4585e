package mem

import (
	"fmt"

	"repro/internal/bus"
	"repro/internal/sim"
)

// DRAMTiming is the banked DRAM's latency model. All values are cycles
// added to the access in the exec phase; zero values mean minimum
// latency (useful for functional-only runs and the static-equivalence
// regression).
type DRAMTiming struct {
	// Decode is the request decode latency, charged before the bank
	// model is consulted (the analogue of Delays.Decode).
	Decode uint32
	// RowHit is the cost of an access to the currently open row of its
	// bank (CAS only).
	RowHit uint32
	// RowMiss is the cost of an access to a bank with no open row
	// (activate + CAS).
	RowMiss uint32
	// RowConflict is the cost of an access to a bank whose open row
	// differs (precharge + activate + CAS).
	RowConflict uint32
	// BurstPerElem is the per-element transfer cost of bursts, added on
	// top of the row latency of the burst's first element.
	BurstPerElem uint32
}

// DefaultDRAMTiming returns a latency set with the classic hit < miss <
// conflict ordering, scaled so that a row conflict costs roughly an
// order of magnitude more than an L2 hit would.
func DefaultDRAMTiming() DRAMTiming {
	return DRAMTiming{Decode: 1, RowHit: 2, RowMiss: 6, RowConflict: 11, BurstPerElem: 1}
}

// DRAMConfig parameterizes a DRAM module.
type DRAMConfig struct {
	// Name labels the module.
	Name string
	// Size is the table size in bytes.
	Size uint32
	// Banks is the number of independent banks, a power of two
	// (default 4).
	Banks int
	// RowBytes is the per-bank row-buffer size in bytes, a power of two
	// and a multiple of Interleave (default 1024).
	RowBytes uint32
	// Interleave is the bank-interleave granularity: consecutive
	// Interleave-byte blocks map to consecutive banks. A power of two,
	// default 64 (two 32-byte cache lines).
	Interleave uint32
	// ClosePage selects the close-page policy: every access pays the
	// activate cost (RowMiss) and the bank auto-precharges, trading the
	// open-page row-hit fast path for conflict-free worst-case latency.
	// Default is open-page: the row stays open until a conflicting
	// access or a refresh closes it.
	ClosePage bool
	// Timing is the latency model; the zero value means minimum latency.
	Timing DRAMTiming
	// RefreshPeriod, when non-zero, stalls the whole device for
	// RefreshCycles at the start of every RefreshPeriod-cycle window and
	// closes every open row (all banks precharge for refresh).
	RefreshPeriod uint64
	// RefreshCycles is the length of each refresh stall.
	RefreshCycles uint32
}

// DRAMStats extends the table-memory counters with row-buffer and
// refresh accounting. All counters are event counts except the two
// cycle tallies, which are functions of deterministic service cycles —
// identical across every kernel scheduling mode either way.
type DRAMStats struct {
	Stats
	// RowHits, RowMisses and RowConflicts classify every bank access:
	// open-row hit, closed-bank activate, open-row conflict. Close-page
	// mode counts everything as RowMisses.
	RowHits, RowMisses, RowConflicts uint64
	// RefreshStalls counts accesses delayed by a refresh window;
	// RefreshStallCycles is the total delay charged.
	RefreshStalls, RefreshStallCycles uint64
}

// dramBank is one bank's row-buffer register.
type dramBank struct {
	open bool
	row  uint32
	// epoch is the refresh window the row was opened in; a row opened
	// before the most recent refresh has been closed by it (checked
	// lazily on the next access).
	epoch uint64
}

// DRAM is a banked table memory with row-buffer timing: functionally
// identical to StaticRAM (flat little-endian byte array, dynamic
// operations answer ErrBadOp), but the exec-phase latency depends on
// which bank and row an access targets, the row-buffer policy, and the
// periodic refresh schedule. Service start cycles are deterministic
// (the port protocol is), so the whole timing model is bit-identical
// across every kernel scheduling mode. The refresh model is lazy and
// needs no wakeups of its own: refresh cost and row closure are
// computed from the exec-entry cycle the Server hands its Exec hook.
type DRAM struct {
	Server[*DRAM]
	cfg   DRAMConfig
	data  []byte
	banks []dramBank
	stats DRAMStats
}

// NewDRAM creates the module, allocates its full table, and registers
// it with the kernel.
func NewDRAM(k *sim.Kernel, cfg DRAMConfig) (*DRAM, *bus.Port, error) {
	port := bus.NewPort(k, cfg.Name+".p", bus.PortConfig{})
	d, err := NewDRAMOn(k, cfg, port)
	return d, port, err
}

// NewDRAMOn creates the module on an existing slave port.
func NewDRAMOn(k *sim.Kernel, cfg DRAMConfig, port *bus.Port) (*DRAM, error) {
	if cfg.Name == "" {
		cfg.Name = "dram"
	}
	if cfg.Banks <= 0 {
		cfg.Banks = 4
	}
	if cfg.RowBytes == 0 {
		cfg.RowBytes = 1024
	}
	if cfg.Interleave == 0 {
		cfg.Interleave = 64
	}
	if cfg.Banks&(cfg.Banks-1) != 0 {
		return nil, fmt.Errorf("dram %s: banks %d not a power of two", cfg.Name, cfg.Banks)
	}
	if cfg.Interleave&(cfg.Interleave-1) != 0 {
		return nil, fmt.Errorf("dram %s: interleave %d not a power of two", cfg.Name, cfg.Interleave)
	}
	if cfg.RowBytes%cfg.Interleave != 0 {
		return nil, fmt.Errorf("dram %s: row size %d not a multiple of the %d-byte interleave", cfg.Name, cfg.RowBytes, cfg.Interleave)
	}
	if cfg.RefreshPeriod > 0 && uint64(cfg.RefreshCycles) >= cfg.RefreshPeriod {
		return nil, fmt.Errorf("dram %s: refresh stall %d cycles >= period %d", cfg.Name, cfg.RefreshCycles, cfg.RefreshPeriod)
	}
	r := &DRAM{
		cfg:   cfg,
		data:  make([]byte, cfg.Size),
		banks: make([]dramBank, cfg.Banks),
	}
	r.Server = NewServer(r, port, &r.stats.Stats, &dramHooks)
	k.Add(r)
	return r, nil
}

// dramHooks time a DRAM by its bank model and serve it from its table.
var dramHooks = Hooks[*DRAM]{
	Decode:  func(r *DRAM, _ bus.Request) uint32 { return r.cfg.Timing.Decode },
	Exec:    (*DRAM).opCycles,
	Respond: func(r *DRAM, req bus.Request) bus.Response { return ExecuteTable(r.data, req, &r.stats.BurstElems) },
}

// Name implements sim.Module.
func (r *DRAM) Name() string { return r.cfg.Name }

// Stats returns a snapshot of the counters.
func (r *DRAM) Stats() DRAMStats { return r.stats }

// Size returns the configured table size in bytes.
func (r *DRAM) Size() uint32 { return r.cfg.Size }

// Peek returns the byte at addr for white-box tests and harness image
// verification.
func (r *DRAM) Peek(addr uint32) byte { return r.data[addr] }

// bankOf maps an address to its bank index.
func (r *DRAM) bankOf(addr uint32) int {
	return int((addr / r.cfg.Interleave) % uint32(r.cfg.Banks))
}

// rowOf maps an address to its row index within its bank: consecutive
// Interleave-byte frames of a bank fill one row before advancing.
func (r *DRAM) rowOf(addr uint32) uint32 {
	frame := addr / (r.cfg.Interleave * uint32(r.cfg.Banks))
	return frame / (r.cfg.RowBytes / r.cfg.Interleave)
}

// access charges the bank model for one data access starting at addr in
// exec-entry cycle `cycle` and updates the touched bank's row buffer.
// Multi-row bursts are charged by their first element's row — the
// transfer cost covers the rest (a deliberate simplification, applied
// identically everywhere).
func (r *DRAM) access(addr uint32, cycle uint64) uint32 {
	t := &r.cfg.Timing
	var extra uint32
	epoch := uint64(0)
	if r.cfg.RefreshPeriod > 0 {
		epoch = cycle / r.cfg.RefreshPeriod
		if end := epoch*r.cfg.RefreshPeriod + uint64(r.cfg.RefreshCycles); cycle < end {
			extra = uint32(end - cycle)
			r.stats.RefreshStalls++
			r.stats.RefreshStallCycles += uint64(extra)
		}
	}
	b := &r.banks[r.bankOf(addr)]
	row := r.rowOf(addr)
	open := b.open && b.epoch == epoch
	var lat uint32
	switch {
	case r.cfg.ClosePage:
		lat = t.RowMiss
		r.stats.RowMisses++
		b.open = false
	case open && b.row == row:
		lat = t.RowHit
		r.stats.RowHits++
	case open:
		lat = t.RowConflict
		r.stats.RowConflicts++
	default:
		lat = t.RowMiss
		r.stats.RowMisses++
	}
	if !r.cfg.ClosePage {
		b.open, b.row, b.epoch = true, row, epoch
	}
	return extra + lat
}

// opCycles returns the exec-phase cost of req entering exec at `cycle`.
func (r *DRAM) opCycles(req bus.Request, cycle uint64) uint32 {
	t := &r.cfg.Timing
	switch req.Op {
	case bus.OpRead, bus.OpWrite:
		return r.access(req.VPtr, cycle)
	case bus.OpReadBurst:
		return r.access(req.VPtr, cycle) + t.BurstPerElem*req.Dim
	case bus.OpWriteBurst:
		return r.access(req.VPtr, cycle) + t.BurstPerElem*uint32(len(req.Burst))
	default:
		return 0
	}
}
