package drxc

import (
	"fmt"

	"dmx/internal/drx"
	"dmx/internal/restructure"
	"dmx/internal/tensor"
)

// Execute runs a compiled kernel on a machine: inputs are placed at their
// layout addresses, the program runs, and the Out parameters are read
// back as tensors. The machine must have been created with (at least) the
// configuration the kernel was compiled for.
func Execute(c *Compiled, m *drx.Machine, inputs map[string]*tensor.Tensor) (map[string]*tensor.Tensor, drx.Result, error) {
	if err := checkTarget(c, m.Config()); err != nil {
		return nil, drx.Result{}, err
	}
	k := c.kernel
	for _, p := range k.Inputs() {
		t, ok := inputs[p.Name]
		if !ok {
			return nil, drx.Result{}, fmt.Errorf("drxc: missing input %q", p.Name)
		}
		if t.DType() != p.DType {
			return nil, drx.Result{}, fmt.Errorf("drxc: input %q dtype %v, want %v", p.Name, t.DType(), p.DType)
		}
		if err := m.WriteDRAM(c.Layout[p.Name], t.Contiguous().Bytes()); err != nil {
			return nil, drx.Result{}, err
		}
	}
	res, err := m.Run(c.Prog)
	if err != nil {
		return nil, drx.Result{}, err
	}
	outs := make(map[string]*tensor.Tensor)
	for _, p := range k.Outputs() {
		raw, err := m.ReadDRAM(c.Layout[p.Name], int64(p.SizeBytes()))
		if err != nil {
			return nil, drx.Result{}, err
		}
		t := tensor.FromBytes(raw, p.SizeBytes()).Reinterpret(p.DType, p.Shape...)
		outs[p.Name] = t
	}
	return outs, res, nil
}

// Time reports the cycle accounting of a compiled kernel without moving
// data. DRX timing is data-independent, so rather than executing over
// materialized inputs it walks the program (drx.Machine.Time) on a fresh
// machine of the compiled configuration, after Execute's layout checks.
// The Result is the one Execute returns for any inputs of the kernel's
// declared shapes and dtypes, and Time fails exactly when such an
// Execute would. The walk runs once per Compiled: later calls, from any
// goroutine, return its Result and error without walking again, so a
// kernel timed through CompileCached is walked once per process.
func Time(c *Compiled) (drx.Result, error) {
	c.timed.Do(func() { c.timing, c.timeErr = walk(c) })
	return c.timing, c.timeErr
}

// walk is Time's uncached body.
func walk(c *Compiled) (drx.Result, error) {
	if err := checkTarget(c, c.cfg); err != nil {
		return drx.Result{}, err
	}
	m, err := drx.New(c.cfg)
	if err != nil {
		return drx.Result{}, err
	}
	return m.Time(c.Prog)
}

// checkTarget makes Execute's layout checks against a machine
// configuration: its scratchpad holds the compiled tiling, and every
// input and output span lies inside its DRAM.
func checkTarget(c *Compiled, cfg drx.Config) error {
	if cfg.ScratchBytes < c.cfg.ScratchBytes {
		return fmt.Errorf("drxc: machine scratchpad smaller than compiled target")
	}
	for _, p := range c.kernel.Params {
		if p.Dir == restructure.Temp {
			continue
		}
		addr, n := c.Layout[p.Name], int64(p.SizeBytes())
		if addr < 0 || addr+n > cfg.DRAMBytes {
			return fmt.Errorf("drxc: %s %q at [%d,%d) outside DRAM", p.Dir, p.Name, addr, addr+n)
		}
	}
	return nil
}

// CompileAndRun is a convenience wrapper: compile the kernel for the
// machine's configuration (through the process-wide program cache, so
// repeat dispatches of one kernel compile once), execute it, and return
// outputs plus timing.
func CompileAndRun(k *restructure.Kernel, m *drx.Machine, inputs map[string]*tensor.Tensor) (map[string]*tensor.Tensor, drx.Result, error) {
	c, err := CompileCached(k, m.Config())
	if err != nil {
		return nil, drx.Result{}, err
	}
	return Execute(c, m, inputs)
}
