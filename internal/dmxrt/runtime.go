package dmxrt

import (
	"fmt"

	"dmx/internal/accel"
	"dmx/internal/drx"
	"dmx/internal/drxc"
	"dmx/internal/restructure"
	"dmx/internal/tensor"
)

// DeviceKind distinguishes application accelerators from DRXs.
type DeviceKind int

// Device kinds.
const (
	AcceleratorDevice DeviceKind = iota
	DRXDevice
)

// Device is one enqueue target.
type Device struct {
	name    string
	kind    DeviceKind
	spec    *accel.Spec
	machine *drx.Machine
}

// Name reports the device's name.
func (d *Device) Name() string { return d.name }

// Platform enumerates devices, like PCIe enumeration does in the
// paper's driver stack.
type Platform struct {
	devices []*Device
}

// NewPlatform creates an empty platform.
func NewPlatform() *Platform { return &Platform{} }

// AddAccelerator registers an application accelerator.
func (p *Platform) AddAccelerator(spec *accel.Spec) *Device {
	d := &Device{name: fmt.Sprintf("accel%d:%s", len(p.devices), spec.Name),
		kind: AcceleratorDevice, spec: spec}
	p.devices = append(p.devices, d)
	return d
}

// AddDRX registers a DRX with the given hardware configuration.
func (p *Platform) AddDRX(cfg drx.Config) (*Device, error) {
	m, err := drx.New(cfg)
	if err != nil {
		return nil, err
	}
	d := &Device{name: fmt.Sprintf("drx%d", len(p.devices)), kind: DRXDevice, machine: m}
	p.devices = append(p.devices, d)
	return d, nil
}

// Devices lists registered devices in registration order.
func (p *Platform) Devices() []*Device { return append([]*Device(nil), p.devices...) }

// Buffer is a host-visible data buffer passed between kernels.
type Buffer struct {
	name string
	t    *tensor.Tensor
}

// Tensor exposes the buffer's current contents.
func (b *Buffer) Tensor() *tensor.Tensor { return b.t }

// Context owns buffers and queues for one application.
type Context struct {
	platform *Platform
	buffers  []*Buffer
	queues   []*CommandQueue
	pending  []*Event // global submission order for deterministic execution
}

// NewContext creates an execution context on the platform.
func (p *Platform) NewContext() *Context { return &Context{platform: p} }

// CreateBuffer wraps a tensor as a named buffer.
func (c *Context) CreateBuffer(name string, t *tensor.Tensor) *Buffer {
	b := &Buffer{name: name, t: t}
	c.buffers = append(c.buffers, b)
	return b
}

// CreateEmptyBuffer allocates a zeroed buffer of the given shape.
func (c *Context) CreateEmptyBuffer(name string, dt tensor.DType, shape ...int) *Buffer {
	return c.CreateBuffer(name, tensor.New(dt, shape...))
}

// Queue creates an in-order command queue bound to a device.
func (c *Context) Queue(d *Device) *CommandQueue {
	q := &CommandQueue{ctx: c, dev: d}
	c.queues = append(c.queues, q)
	return q
}

// Event tracks one enqueued command. Wait forces execution of the
// command and everything it depends on.
type Event struct {
	desc string
	deps []*Event
	run  func() error
	done bool
	err  error
}

// Wait executes the command (and, transitively, its dependencies) if it
// has not run yet, returning its error. Waiting on an event is the
// blocking-execution mode of the paper's programming model. Once the
// command has run (or been failed by a dependency) the event drops its
// dependencies and closure: its cached error already carries any
// failure, so a retired event pins nothing that came before it.
func (e *Event) Wait() error {
	if e.done {
		return e.err
	}
	defer e.retire()
	for _, d := range e.deps {
		if err := d.Wait(); err != nil {
			e.err = fmt.Errorf("dmxrt: dependency %q failed: %w", d.desc, err)
			return e.err
		}
	}
	if err := e.run(); err != nil {
		e.err = fmt.Errorf("dmxrt: %s: %w", e.desc, err)
	}
	return e.err
}

func (e *Event) retire() {
	e.done = true
	e.deps = nil
	e.run = nil
}

// CommandQueue is an in-order queue on one device: each enqueued command
// implicitly depends on the queue's previous command, plus any explicit
// events passed at enqueue time.
type CommandQueue struct {
	ctx  *Context
	dev  *Device
	last *Event
}

func (q *CommandQueue) enqueue(desc string, deps []*Event, run func() error) *Event {
	all := deps
	// A predecessor that already ran cleanly orders nothing.
	if q.last != nil && !(q.last.done && q.last.err == nil) {
		all = append(append([]*Event(nil), deps...), q.last)
	}
	ev := &Event{desc: desc, deps: all, run: run}
	q.last = ev
	q.ctx.pending = append(q.ctx.pending, ev)
	return ev
}

// EnqueueKernel schedules the device's application kernel over the given
// input buffers; outputs maps the kernel's output names onto buffers to
// fill. Only accelerator devices accept application kernels.
func (q *CommandQueue) EnqueueKernel(inputs map[string]*Buffer, outputs map[string]*Buffer, deps ...*Event) *Event {
	return q.enqueue("kernel "+q.dev.name, deps, func() error {
		if q.dev.kind != AcceleratorDevice {
			return fmt.Errorf("device %s cannot run application kernels", q.dev.name)
		}
		in := make(map[string]*tensor.Tensor, len(inputs))
		for name, b := range inputs {
			in[name] = b.t
		}
		out, err := q.dev.spec.Run(in)
		if err != nil {
			return err
		}
		return bindOutputs(out, outputs)
	})
}

// EnqueueRestructure schedules a data restructuring kernel. On a DRX
// device the kernel compiles (internal/drxc, through the process-wide
// compiled-program cache, so repeat enqueues of one kernel compile once)
// and executes on the machine simulator; on an accelerator device it is
// rejected — restructuring belongs to DRXs, keeping the separation
// Sec. V prescribes.
func (q *CommandQueue) EnqueueRestructure(k *restructure.Kernel,
	inputs map[string]*Buffer, outputs map[string]*Buffer, deps ...*Event) *Event {

	return q.enqueue("restructure "+k.Name+" on "+q.dev.name, deps, func() error {
		if q.dev.kind != DRXDevice {
			return fmt.Errorf("device %s is not a DRX", q.dev.name)
		}
		c, err := drxc.CompileCached(k, q.dev.machine.Config())
		if err != nil {
			return err
		}
		in := make(map[string]*tensor.Tensor, len(inputs))
		for name, b := range inputs {
			in[name] = b.t
		}
		q.dev.machine.ResetDRAM()
		out, _, err := drxc.Execute(c, q.dev.machine, in)
		if err != nil {
			return err
		}
		return bindOutputs(out, outputs)
	})
}

// Finish executes every pending command in the context, in submission
// order, and returns the first error in that order. Commands that
// depend on a failed one still fail, with a dependency error. Every
// command has then run, so the pending list is emptied and each queue
// forgets its last command: a failure poisons only what was submitted
// before this Finish, and a long-lived context recovers from it.
func (c *Context) Finish() error {
	var first error
	for _, ev := range c.pending {
		if err := ev.Wait(); err != nil && first == nil {
			first = err
		}
	}
	clear(c.pending)
	c.pending = c.pending[:0]
	for _, q := range c.queues {
		q.last = nil
	}
	return first
}

func bindOutputs(out map[string]*tensor.Tensor, outputs map[string]*Buffer) error {
	for name, b := range outputs {
		t, ok := out[name]
		if !ok {
			return fmt.Errorf("kernel produced no output %q", name)
		}
		b.t = t
	}
	return nil
}
