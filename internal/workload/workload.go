package workload

import (
	"fmt"
	"strings"

	"repro/internal/isa"
	"repro/internal/smapi"
)

// ISSImages assembles the program image of every ISS of an n-ISS run of
// the named workload — "gsm", "traffic" or "sweep" — and is the one
// place the per-ISS parameters are decided, so the CLI, the experiments
// and the service run the same software on equal arguments. ISS i
// targets memory i mod memories; work is the per-ISS amount (GSM frames,
// traffic or sweep iterations); seed offsets the data each ISS
// generates.
func ISSImages(name string, n, memories, work int, seed uint32) ([][]byte, error) {
	if n < 0 || memories < 1 {
		return nil, fmt.Errorf("workload: %d ISSs over %d memories", n, memories)
	}
	progs := make([][]byte, n)
	for i := range progs {
		var src string
		switch name {
		case "gsm":
			src = GSMKernelSource(GSMKernelConfig{Frames: work, SM: i % memories, Seed: seed + uint32(i)})
		case "traffic":
			src = TrafficKernelSource(TrafficKernelConfig{Iterations: work, SM: i % memories})
		case "sweep":
			// Interleaved word ranges: ISS i owns words i, i+n, i+2n, … —
			// neighbouring ISSs falsely share every cache line.
			src = SweepKernelSource(SweepKernelConfig{
				Iterations: work, SM: i % memories,
				Base: 4 * i, Stride: 4 * n, Words: 64,
				Seed: seed + uint32(16*(i+1)),
			})
		default:
			return nil, fmt.Errorf("workload: unknown ISS workload %q (want gsm, traffic or sweep)", name)
		}
		p, err := isa.Assemble(src)
		if err != nil {
			return nil, fmt.Errorf("workload: assemble iss %d: %w", i, err)
		}
		progs[i] = p.Code
	}
	return progs, nil
}

// GSMKernelConfig parameterizes one ISS's program.
type GSMKernelConfig struct {
	// Frames is the number of frame iterations.
	Frames int
	// SM is the shared-memory module this ISS allocates in.
	SM int
	// ComputeReps repeats the autocorrelation kernel per frame to scale
	// the compute-to-traffic ratio (default 2 ≈ a few thousand cycles
	// per frame, the right order for a full-rate coder on a simple
	// core).
	ComputeReps int
	// Seed initializes the program's sample generator so different ISSs
	// produce different data.
	Seed uint32
}

// GSMKernelSource returns the assembly source for one ISS of the E1
// experiment. The program exits with code 0 on success and 0xDEAD on
// any unexpected shared-memory status.
func GSMKernelSource(cfg GSMKernelConfig) string {
	if cfg.Frames <= 0 {
		cfg.Frames = 1
	}
	if cfg.ComputeReps <= 0 {
		cfg.ComputeReps = 2
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, `
; GSM traffic kernel: alloc / burst-write / LPC-style MAC loop /
; burst-read / free, per frame.
.equ FRAMES, %d
.equ SMADDR, %d
.equ NSAMP,  160
.equ ACFLEN, 48
.equ REPS,   %d

	li   r8, FRAMES
	li   r9, %d          ; LCG state
frame_loop:
	; ---- synthesize NSAMP samples into the bridge I/O array ----
	li   r3, 0xFFFF0100
	mov  r1, #0
fill:
	li   r5, 1103515245
	mul  r9, r9, r5
	li   r5, 12345
	add  r9, r9, r5
	lsr  r2, r9, #17     ; 15-bit sample
	str  r2, [r3]
	add  r3, r3, #4
	add  r1, r1, #1
	cmp  r1, #NSAMP
	bne  fill

	; ---- frame buffer = sm_malloc(NSAMP, i16) ----
	li   r0, NSAMP
	mov  r1, #3          ; bus.I16
	mov  r2, #SMADDR
	bl   sm_malloc
	cmp  r1, #0
	bne  fail
	mov  r4, r0

	; ---- burst write the samples ----
	mov  r0, r4
	li   r1, NSAMP
	mov  r2, #SMADDR
	bl   sm_writen
	cmp  r1, #0
	bne  fail

	; ---- LPC-style autocorrelation over the staged samples ----
	mov  r11, #REPS
reps:
	mov  r5, #0          ; lag j
acf_j:
	mov  r6, #0          ; accumulator
	mov  r7, r5          ; k = j
acf_k:
	lsl  r0, r7, #2
	li   r1, 0xFFFF0100
	add  r0, r0, r1
	ldr  r2, [r0]        ; s[k]
	sub  r1, r7, r5
	lsl  r1, r1, #2
	li   r3, 0xFFFF0100
	add  r1, r1, r3
	ldr  r3, [r1]        ; s[k-j]
	mla  r6, r2, r3, r6
	add  r7, r7, #1
	cmp  r7, #ACFLEN
	blt  acf_k
	add  r5, r5, #1
	cmp  r5, #9
	blt  acf_j
	sub  r11, r11, #1
	cmp  r11, #0
	bne  reps

	; ---- burst read the frame back (the decoder side of the hand-off) ----
	mov  r0, r4
	li   r1, NSAMP
	mov  r2, #SMADDR
	bl   sm_readn
	cmp  r1, #0
	bne  fail

	; ---- release the frame ----
	mov  r0, r4
	mov  r2, #SMADDR
	bl   sm_free
	cmp  r1, #0
	bne  fail

	sub  r8, r8, #1
	cmp  r8, #0
	bne  frame_loop
	mov  r0, #0
	swi  #0
fail:
	li   r0, 0xDEAD
	swi  #0
`, cfg.Frames, cfg.SM, cfg.ComputeReps, cfg.Seed|1)
	sb.WriteString(smapi.Runtime)
	return sb.String()
}

// TrafficKernelConfig parameterizes a pure memory-traffic program (no
// compute), used to stress the interconnect and wrapper in isolation.
type TrafficKernelConfig struct {
	// Iterations is the number of alloc/write/read/free rounds.
	Iterations int
	// SM is the target module.
	SM int
	// Dim is the allocation size in u32 elements.
	Dim int
}

// SweepKernelConfig parameterizes SweepKernelSource.
type SweepKernelConfig struct {
	// Iterations is the number of write-then-verify sweeps.
	Iterations int
	// SM is the flat-addressed shared memory the sweep targets.
	SM int
	// Base is the byte address of the first word, Stride the byte
	// distance between consecutive words, Words the words per sweep.
	Base, Stride, Words int
	// Seed offsets the written values so different ISSs write
	// distinguishable data.
	Seed uint32
}

// SweepKernelSource returns assembly performing a scalar-only
// write-then-verify sweep: the cacheable traffic class for the
// flat-addressed memories (static, DRAM), where the allocating GSM and
// traffic kernels cannot run. Interleaving Base/Stride across masters
// makes neighbouring ISSs share cache lines, so coherent multi-master
// runs exercise MESI invalidation (and, with an L2, inclusion
// back-invalidation) mid-flight. The program exits 0 on success and
// 0xDEAD on any error status or failed readback.
func SweepKernelSource(cfg SweepKernelConfig) string {
	if cfg.Iterations <= 0 {
		cfg.Iterations = 1
	}
	if cfg.Stride <= 0 {
		cfg.Stride = 4
	}
	if cfg.Words <= 0 {
		cfg.Words = 16
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, `
; scalar write/verify sweep over a flat-addressed memory
.equ ITERS, %d
.equ SMADDR, %d
.equ BASE, %d
.equ STRIDE, %d
.equ N, %d
.equ SEED, %d

	li   r8, ITERS
iter:
	mov  r5, #0
	li   r4, BASE
wr:
	mov  r0, r4
	add  r1, r5, #SEED
	mov  r2, #SMADDR
	bl   sm_write
	cmp  r1, #0
	bne  fail
	add  r4, r4, #STRIDE
	add  r5, r5, #1
	cmp  r5, #N
	bne  wr
	mov  r5, #0
	li   r4, BASE
rd:
	mov  r0, r4
	mov  r2, #SMADDR
	bl   sm_read
	cmp  r1, #0
	bne  fail
	add  r2, r5, #SEED
	cmp  r0, r2
	bne  fail
	add  r4, r4, #STRIDE
	add  r5, r5, #1
	cmp  r5, #N
	bne  rd
	sub  r8, r8, #1
	cmp  r8, #0
	bne  iter
	mov  r0, #0
	swi  #0
fail:
	li   r0, 0xDEAD
	swi  #0
`, cfg.Iterations, cfg.SM, cfg.Base, cfg.Stride, cfg.Words, cfg.Seed)
	sb.WriteString(smapi.Runtime)
	return sb.String()
}

// TrafficKernelSource returns assembly performing scalar-only dynamic
// memory traffic: allocate, write and read back each element, free.
func TrafficKernelSource(cfg TrafficKernelConfig) string {
	if cfg.Iterations <= 0 {
		cfg.Iterations = 1
	}
	if cfg.Dim <= 0 {
		cfg.Dim = 16
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, `
.equ ITERS, %d
.equ SMADDR, %d
.equ DIM, %d

	li   r8, ITERS
iter:
	li   r0, DIM
	mov  r1, #2          ; bus.U32
	mov  r2, #SMADDR
	bl   sm_malloc
	cmp  r1, #0
	bne  fail
	mov  r4, r0          ; vptr

	mov  r5, #0          ; i
wr:
	lsl  r6, r5, #2
	add  r0, r4, r6
	add  r1, r5, #100
	mov  r2, #SMADDR
	bl   sm_write
	cmp  r1, #0
	bne  fail
	add  r5, r5, #1
	cmp  r5, #DIM
	bne  wr

	mov  r5, #0
rd:
	lsl  r6, r5, #2
	add  r0, r4, r6
	mov  r2, #SMADDR
	bl   sm_read
	cmp  r1, #0
	bne  fail
	add  r2, r5, #100
	cmp  r0, r2
	bne  fail            ; data integrity check
	add  r5, r5, #1
	cmp  r5, #DIM
	bne  rd

	mov  r0, r4
	mov  r2, #SMADDR
	bl   sm_free
	cmp  r1, #0
	bne  fail

	sub  r8, r8, #1
	cmp  r8, #0
	bne  iter
	mov  r0, #0
	swi  #0
fail:
	li   r0, 0xDEAD
	swi  #0
`, cfg.Iterations, cfg.SM, cfg.Dim)
	sb.WriteString(smapi.Runtime)
	return sb.String()
}
