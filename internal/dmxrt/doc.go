// Package dmxrt implements the OpenCL-style host programming model of
// Sec. V: a host program creates a context over accelerators and DRXs,
// allocates buffers, and enqueues kernels and data restructuring on
// per-device command queues. Commands execute in order within a queue;
// events express cross-queue dependencies; execution is deferred until a
// Finish or Wait, mirroring the non-blocking enqueue semantics the
// paper describes — so the control plane stays a plain CPU program while
// the data plane runs on devices.
//
// The runtime is *functional*: enqueued kernels execute the real
// accelerator implementations, and restructuring kernels targeted at a
// DRX device compile and run on the machine simulator, so a host
// program's results are actual bytes. (System-level timing lives in
// internal/dmxsys; this package is the programmability layer.)
package dmxrt
