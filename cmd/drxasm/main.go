// Command drxasm is the DRX toolchain driver: assemble, disassemble,
// compile, and execute restructuring programs on the simulated machine.
//
//	drxasm asm  prog.s  prog.drx     # assemble text → binary
//	drxasm dis  prog.drx             # disassemble binary → text
//	drxasm compile mel 64 128 32     # compile a library kernel, print asm
//	drxasm time    mel 2048 512 40   # compile + simulate, print cycles
//
// Library kernels and their size arguments:
//
//	mel    <frames> <bins> <mels>
//	video  <pixels>
//	signal <batch> <bins>
//	record <nrec> <reclen>
//	column <nrows> <keyDigits> <amtDigits> <payBytes>
//	ner    <nrec> <reclen> <seqlen>
//	sum    <k> <n>
package main

import (
	"fmt"
	"os"
	"strconv"

	"dmx/internal/drx"
	"dmx/internal/drxc"
	"dmx/internal/isa"
	"dmx/internal/restructure"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	var err error
	switch os.Args[1] {
	case "asm":
		err = assemble(os.Args[2:])
	case "dis":
		err = disassemble(os.Args[2:])
	case "compile":
		err = compile(os.Args[2:], false)
	case "time":
		err = compile(os.Args[2:], true)
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "drxasm: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: drxasm asm <in.s> <out.drx> | dis <in.drx> | compile <kernel> <dims...> | time <kernel> <dims...>")
	os.Exit(2)
}

func assemble(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("asm wants <in.s> <out.drx>")
	}
	src, err := os.ReadFile(args[0])
	if err != nil {
		return err
	}
	prog, err := isa.Assemble(string(src))
	if err != nil {
		return err
	}
	bin, err := isa.Encode(prog)
	if err != nil {
		return err
	}
	if err := os.WriteFile(args[1], bin, 0o644); err != nil {
		return err
	}
	fmt.Printf("assembled %s: %d instructions, %d bytes\n", prog.Name, len(prog.Instrs), len(bin))
	return nil
}

func disassemble(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("dis wants <in.drx>")
	}
	bin, err := os.ReadFile(args[0])
	if err != nil {
		return err
	}
	prog, err := isa.Decode(bin)
	if err != nil {
		return err
	}
	fmt.Print(prog.Disassemble())
	return nil
}

// kernelFromArgs builds a library restructuring kernel from CLI sizes.
func kernelFromArgs(args []string) (*restructure.Kernel, error) {
	if len(args) == 0 {
		return nil, fmt.Errorf("missing kernel name")
	}
	dims := make([]int, len(args)-1)
	for i, a := range args[1:] {
		v, err := strconv.Atoi(a)
		if err != nil {
			return nil, fmt.Errorf("dimension %q: %w", a, err)
		}
		dims[i] = v
	}
	need := func(n int) error {
		if len(dims) != n {
			return fmt.Errorf("kernel %q wants %d dimensions, got %d", args[0], n, len(dims))
		}
		return nil
	}
	switch args[0] {
	case "mel":
		if err := need(3); err != nil {
			return nil, err
		}
		return restructure.MelSpectrogram(dims[0], dims[1], dims[2]), nil
	case "video":
		if err := need(1); err != nil {
			return nil, err
		}
		return restructure.VideoPreprocess(dims[0]), nil
	case "signal":
		if err := need(2); err != nil {
			return nil, err
		}
		return restructure.SignalNormalize(dims[0], dims[1]), nil
	case "record":
		if err := need(2); err != nil {
			return nil, err
		}
		return restructure.RecordFrame(dims[0], dims[1]), nil
	case "column":
		if err := need(4); err != nil {
			return nil, err
		}
		return restructure.ColumnPack(dims[0], dims[1], dims[2], dims[3]), nil
	case "ner":
		if err := need(3); err != nil {
			return nil, err
		}
		return restructure.NERPrep(dims[0], dims[1], dims[2]), nil
	case "sum":
		if err := need(2); err != nil {
			return nil, err
		}
		return restructure.SumReduce(dims[0], dims[1]), nil
	}
	return nil, fmt.Errorf("unknown kernel %q", args[0])
}

func compile(args []string, simulate bool) error {
	k, err := kernelFromArgs(args)
	if err != nil {
		return err
	}
	cfg := drx.DefaultConfig()
	c, err := drxc.Compile(k, cfg)
	if err != nil {
		return err
	}
	if !simulate {
		fmt.Print(c.Prog.Disassemble())
		fmt.Printf("; DRAM layout (%d bytes total):\n", c.DRAMBytes)
		for _, p := range k.Params {
			fmt.Printf(";   %-10s %v %v @ %d\n", p.Name, p.DType, p.Shape, c.Layout[p.Name])
		}
		return nil
	}
	res, err := drxc.Time(c)
	if err != nil {
		return err
	}
	fmt.Printf("kernel %s on %d-lane DRX @ %.0f MHz:\n", k.Name, cfg.Lanes, cfg.ClockHz/1e6)
	fmt.Printf("  instructions executed: %d\n", res.Instrs)
	fmt.Printf("  compute cycles:        %d\n", res.ComputeCycles)
	fmt.Printf("  memory cycles:         %d\n", res.MemCycles)
	fmt.Printf("  control cycles:        %d\n", res.CtrlCycles)
	fmt.Printf("  total cycles:          %d (%.3f ms)\n", res.Cycles(), res.Seconds(cfg.ClockHz)*1e3)
	fmt.Printf("  DRAM traffic:          %d B loaded, %d B stored\n", res.BytesLoaded, res.BytesStored)
	return nil
}
