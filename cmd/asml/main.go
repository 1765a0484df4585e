// Command asml is the armlet toolchain driver: assembler, disassembler
// and a standalone program runner (one CPU, optional shared-memory
// wrapper behind the MMIO bridge).
//
// Examples (flags precede the file, as usual for Go tools):
//
//	asml asm -o prog.bin prog.s
//	asml dis prog.bin
//	asml run prog.s            # assembles and executes, prints exit code
//	asml run -trace prog.s     # ... with an instruction trace
package main

import (
	"encoding/binary"
	"flag"
	"fmt"
	"os"

	"repro/internal/bus"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/iss"
	"repro/internal/sim"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "asml:", err)
		os.Exit(1)
	}
}

func usage() error {
	return fmt.Errorf("usage: asml {asm|dis|run} [flags] file")
}

func run() error {
	if len(os.Args) < 2 {
		return usage()
	}
	cmd, args := os.Args[1], os.Args[2:]
	switch cmd {
	case "asm":
		fs := flag.NewFlagSet("asm", flag.ExitOnError)
		out := fs.String("o", "a.bin", "output image")
		fs.Parse(args)
		if fs.NArg() != 1 {
			return usage()
		}
		src, err := os.ReadFile(fs.Arg(0))
		if err != nil {
			return err
		}
		prog, err := isa.Assemble(string(src))
		if err != nil {
			return err
		}
		if err := os.WriteFile(*out, prog.Code, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "%s: %d bytes, %d symbols\n", *out, len(prog.Code), len(prog.Symbols))
		return nil

	case "dis":
		fs := flag.NewFlagSet("dis", flag.ExitOnError)
		fs.Parse(args)
		if fs.NArg() != 1 {
			return usage()
		}
		img, err := os.ReadFile(fs.Arg(0))
		if err != nil {
			return err
		}
		for pc := 0; pc+4 <= len(img); pc += 4 {
			w := binary.LittleEndian.Uint32(img[pc:])
			fmt.Printf("%08x  %08x  %s\n", pc, w, isa.DisassembleWord(w, uint32(pc)))
		}
		return nil

	case "run":
		fs := flag.NewFlagSet("run", flag.ExitOnError)
		traceFlag := fs.Bool("trace", false, "print executed instructions")
		memBytes := fs.Uint("mem", 1<<20, "shared wrapper memory capacity")
		limit := fs.Uint64("limit", 100_000_000, "cycle budget")
		fs.Parse(args)
		if fs.NArg() != 1 {
			return usage()
		}
		src, err := os.ReadFile(fs.Arg(0))
		if err != nil {
			return err
		}
		prog, err := isa.Assemble(string(src))
		if err != nil {
			return err
		}
		k := sim.New()
		link := bus.NewPort(k, "cpu-mem", bus.PortConfig{})
		if _, err := core.NewWrapper(k, core.Config{
			TotalSize: uint32(*memBytes),
			Delays:    core.DefaultDelays(),
		}, link); err != nil {
			return err
		}
		cpu, err := iss.New(k, iss.Config{Prog: prog.Code, Port: link})
		if err != nil {
			return err
		}
		if *traceFlag {
			img := prog.Code
			k.AfterCycle(func(cycle uint64) {
				pc := cpu.PC()
				if int(pc)+4 <= len(img) && !cpu.Halted() {
					w := binary.LittleEndian.Uint32(img[pc:])
					fmt.Fprintf(os.Stderr, "%8d  %08x  %s\n", cycle, pc, isa.DisassembleWord(w, pc))
				}
			})
		}
		if _, err := k.RunUntil(cpu.Halted, *limit); err != nil {
			return fmt.Errorf("run: %w (pc=%#x)", err, cpu.PC())
		}
		if out := cpu.Console(); out != "" {
			fmt.Print(out)
		}
		fmt.Fprintf(os.Stderr, "exit=%d cycles=%d instructions=%d stalls=%d\n",
			cpu.ExitCode(), k.Cycle(), cpu.Icount, cpu.StallCycles)
		if cpu.ExitCode() != 0 {
			os.Exit(int(cpu.ExitCode() & 0xFF))
		}
		return nil

	default:
		return usage()
	}
}
