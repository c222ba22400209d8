package dmxrt

import (
	"fmt"
	"strings"
	"testing"

	"dmx/internal/accel"
	"dmx/internal/drx"
	"dmx/internal/restructure"
	"dmx/internal/tensor"
)

// buildSoundChain assembles the Sound Detection chain on the runtime:
// FFT accelerator → DRX (mel spectrogram) → SVM accelerator.
func buildSoundChain(t *testing.T) (*Context, *CommandQueue, *CommandQueue, *CommandQueue, soundDims) {
	t.Helper()
	d := soundDims{frames: 8, win: 64, mels: 8, classes: 4}
	p := NewPlatform()
	fftSpec, err := accel.NewFFT(d.frames, d.win)
	if err != nil {
		t.Fatal(err)
	}
	fftDev := p.AddAccelerator(fftSpec)
	svmDev := p.AddAccelerator(accel.NewSVM(d.frames, d.mels, d.classes, 7))
	drxDev, err := p.AddDRX(drx.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	ctx := p.NewContext()
	return ctx, ctx.Queue(fftDev), ctx.Queue(drxDev), ctx.Queue(svmDev), d
}

type soundDims struct{ frames, win, mels, classes int }

func genAudio(d soundDims) *tensor.Tensor {
	audio := tensor.New(tensor.Float32, d.frames, d.win)
	for f := 0; f < d.frames; f++ {
		for i := 0; i < d.win; i++ {
			audio.Set(float64((f*31+i*7)%17)/17.0-0.5, f, i)
		}
	}
	return audio
}

func TestChainedPipelineThroughRuntime(t *testing.T) {
	ctx, fftQ, drxQ, svmQ, d := buildSoundChain(t)
	bins := d.win / 2

	audio := ctx.CreateBuffer("audio", genAudio(d))
	spectrum := ctx.CreateEmptyBuffer("spectrum", tensor.Complex64, d.frames, bins)
	melw := ctx.CreateBuffer("melw", restructure.MelWeights(bins, d.mels))
	logmel := ctx.CreateEmptyBuffer("logmel", tensor.Float32, d.frames, d.mels)
	labels := ctx.CreateEmptyBuffer("labels", tensor.Int32, d.frames)

	ev1 := fftQ.EnqueueKernel(
		map[string]*Buffer{"audio": audio},
		map[string]*Buffer{"spectrum": spectrum})
	ev2 := drxQ.EnqueueRestructure(restructure.MelSpectrogram(d.frames, bins, d.mels),
		map[string]*Buffer{"spectrum": spectrum, "melw": melw},
		map[string]*Buffer{"logmel": logmel}, ev1)
	ev3 := svmQ.EnqueueKernel(
		map[string]*Buffer{"features": logmel},
		map[string]*Buffer{"labels": labels}, ev2)

	// Nothing runs before the blocking wait (non-blocking enqueue).
	if ev1.done || ev3.done {
		t.Fatal("commands executed eagerly")
	}
	if err := ev3.Wait(); err != nil {
		t.Fatal(err)
	}
	// Dependencies executed transitively.
	if !ev1.done || !ev2.done {
		t.Error("dependencies did not execute")
	}
	for f := 0; f < d.frames; f++ {
		v := labels.Tensor().At(f)
		if v < 0 || v >= float64(d.classes) {
			t.Errorf("label[%d] = %v out of range", f, v)
		}
	}
	if err := ctx.Finish(); err != nil {
		t.Fatal(err)
	}
}

func TestRuntimeMatchesDirectExecution(t *testing.T) {
	// The runtime-chained result must equal running the same pieces by
	// hand with the reference restructuring interpreter.
	ctx, fftQ, drxQ, svmQ, d := buildSoundChain(t)
	bins := d.win / 2
	audio := ctx.CreateBuffer("audio", genAudio(d))
	spectrum := ctx.CreateEmptyBuffer("spectrum", tensor.Complex64, d.frames, bins)
	melw := ctx.CreateBuffer("melw", restructure.MelWeights(bins, d.mels))
	logmel := ctx.CreateEmptyBuffer("logmel", tensor.Float32, d.frames, d.mels)
	labels := ctx.CreateEmptyBuffer("labels", tensor.Int32, d.frames)

	e1 := fftQ.EnqueueKernel(map[string]*Buffer{"audio": audio}, map[string]*Buffer{"spectrum": spectrum})
	e2 := drxQ.EnqueueRestructure(restructure.MelSpectrogram(d.frames, bins, d.mels),
		map[string]*Buffer{"spectrum": spectrum, "melw": melw},
		map[string]*Buffer{"logmel": logmel}, e1)
	svmQ.EnqueueKernel(map[string]*Buffer{"features": logmel}, map[string]*Buffer{"labels": labels}, e2)
	if err := ctx.Finish(); err != nil {
		t.Fatal(err)
	}

	fftSpec, _ := accel.NewFFT(d.frames, d.win)
	spec, err := fftSpec.Run(map[string]*tensor.Tensor{"audio": genAudio(d)})
	if err != nil {
		t.Fatal(err)
	}
	mel, err := restructure.Run(restructure.MelSpectrogram(d.frames, bins, d.mels),
		map[string]*tensor.Tensor{"spectrum": spec["spectrum"], "melw": restructure.MelWeights(bins, d.mels)})
	if err != nil {
		t.Fatal(err)
	}
	want, err := accel.NewSVM(d.frames, d.mels, d.classes, 7).Run(
		map[string]*tensor.Tensor{"features": mel["logmel"]})
	if err != nil {
		t.Fatal(err)
	}
	if !tensor.Equal(want["labels"], labels.Tensor()) {
		t.Error("runtime chain diverges from direct execution")
	}
}

// transpose24 turns a uint8 [2, 4] buffer into [4, 2].
var transpose24 = &restructure.Kernel{
	Name: "transpose24",
	Params: []restructure.Param{
		{Name: "x", DType: tensor.Uint8, Shape: []int{2, 4}, Dir: restructure.In},
		{Name: "y", DType: tensor.Uint8, Shape: []int{4, 2}, Dir: restructure.Out},
	},
	Stages: []restructure.Stage{&restructure.TransposeStage{Out: "y", In: "x", Perm: []int{1, 0}}},
}

func TestInOrderQueueSemantics(t *testing.T) {
	// Two commands on ONE queue with no explicit dependency still run in
	// order: the transpose sees the framing kernel's output.
	p := NewPlatform()
	drxDev, err := p.AddDRX(drx.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	ctx := p.NewContext()
	q := ctx.Queue(drxDev)

	in := ctx.CreateBuffer("in", tensor.FromBytes([]byte{65, 66, 67, 68, 69, 70, 71, 72}, 8))
	mid := ctx.CreateEmptyBuffer("mid", tensor.Uint8, 2, 4)
	out := ctx.CreateEmptyBuffer("out", tensor.Uint8, 4, 2)
	q.EnqueueRestructure(restructure.RecordFrame(2, 4),
		map[string]*Buffer{"plain": in}, map[string]*Buffer{"records": mid})
	last := q.EnqueueRestructure(transpose24, // no explicit event: in-order dependency
		map[string]*Buffer{"x": mid}, map[string]*Buffer{"y": out})
	if err := last.Wait(); err != nil {
		t.Fatal(err)
	}
	if out.Tensor().At(3, 1) != 72 {
		t.Errorf("transpose observed stale buffer: %v", out.Tensor())
	}
}

func TestKernelOnWrongDeviceFails(t *testing.T) {
	p := NewPlatform()
	drxDev, err := p.AddDRX(drx.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	fftSpec, _ := accel.NewFFT(2, 64)
	fftDev := p.AddAccelerator(fftSpec)
	ctx := p.NewContext()

	// Application kernel on a DRX: rejected.
	ev := ctx.Queue(drxDev).EnqueueKernel(nil, nil)
	if err := ev.Wait(); err == nil || !strings.Contains(err.Error(), "cannot run application kernels") {
		t.Errorf("want device-kind error, got %v", err)
	}
	// Restructuring on an accelerator: rejected.
	ev2 := ctx.Queue(fftDev).EnqueueRestructure(restructure.RecordFrame(2, 4), nil, nil)
	if err := ev2.Wait(); err == nil || !strings.Contains(err.Error(), "not a DRX") {
		t.Errorf("want not-a-DRX error, got %v", err)
	}
}

func TestDependencyFailurePropagates(t *testing.T) {
	p := NewPlatform()
	drxDev, err := p.AddDRX(drx.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	fftSpec, _ := accel.NewFFT(2, 64)
	fftDev := p.AddAccelerator(fftSpec)
	ctx := p.NewContext()

	// First command fails (missing input); the dependent must surface it.
	bad := ctx.Queue(fftDev).EnqueueKernel(nil, nil)
	x := ctx.CreateEmptyBuffer("x", tensor.Uint8, 2, 4)
	y := ctx.CreateEmptyBuffer("y", tensor.Uint8, 4, 2)
	dep := ctx.Queue(drxDev).EnqueueRestructure(transpose24,
		map[string]*Buffer{"x": x}, map[string]*Buffer{"y": y}, bad)
	if err := dep.Wait(); err == nil || !strings.Contains(err.Error(), "dependency") {
		t.Errorf("want dependency error, got %v", err)
	}
	if ctx.Finish() == nil {
		t.Error("context Finish swallowed the failure")
	}
}

// TestFinishRetiresEvents runs 10 000 enqueue + Finish cycles on one
// context: each clean Finish empties the pending list and every retired
// event drops its dependencies, so nothing accumulates. A failed event
// keeps failing its dependents with the same error text after it has
// retired. A failed Finish runs every pending command, returns the
// first failure, and leaves nothing pending and no queue chained to a
// failure, so the next command on that queue succeeds.
func TestFinishRetiresEvents(t *testing.T) {
	p := NewPlatform()
	drxDev, err := p.AddDRX(drx.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	fftSpec, _ := accel.NewFFT(2, 64)
	fftDev := p.AddAccelerator(fftSpec)
	ctx := p.NewContext()
	q := ctx.Queue(drxDev)
	x := ctx.CreateBuffer("x", tensor.FromBytes([]byte{1, 2, 3, 4, 5, 6, 7, 8}, 2, 4))
	y := ctx.CreateEmptyBuffer("y", tensor.Uint8, 4, 2)
	var deps []*Event
	for i := 0; i < 10_000; i++ {
		// Each command also names the previous one explicitly.
		ev := q.EnqueueRestructure(transpose24, map[string]*Buffer{"x": x}, map[string]*Buffer{"y": y}, deps...)
		deps = []*Event{ev}
		if err := ctx.Finish(); err != nil {
			t.Fatal(err)
		}
		if len(ctx.pending) != 0 || cap(ctx.pending) > 1 {
			t.Fatalf("cycle %d: %d pending events (capacity %d) after a clean Finish", i, len(ctx.pending), cap(ctx.pending))
		}
		if ev.deps != nil || ev.run != nil {
			t.Fatalf("cycle %d: a retired event still holds its dependencies or closure", i)
		}
	}
	if y.Tensor().At(3, 1) != 8 {
		t.Errorf("transpose output %v", y.Tensor())
	}

	bad := ctx.Queue(fftDev).EnqueueKernel(nil, nil)
	dep := func() *Event {
		return q.EnqueueRestructure(transpose24, map[string]*Buffer{"x": x}, map[string]*Buffer{"y": y}, bad)
	}
	first := dep().Wait()
	if first == nil || !strings.Contains(first.Error(), "dependency") {
		t.Fatalf("want dependency error, got %v", first)
	}
	if bad.deps != nil || bad.run != nil {
		t.Error("the failed event did not retire")
	}
	if err := dep().Wait(); err == nil || err.Error() != first.Error() {
		t.Errorf("dependent of the retired failure: got %v, want %q", err, first)
	}
	// The queue's next command depends on its failed predecessor.
	next := q.EnqueueRestructure(transpose24, map[string]*Buffer{"x": x}, map[string]*Buffer{"y": y})
	if err := next.Wait(); err == nil || !strings.Contains(err.Error(), "dependency") {
		t.Errorf("in-order successor of a failure: got %v, want a dependency error", err)
	}
	// A command enqueued before the failing Finish still fails as a
	// dependent, with the same text, and Finish returns the first
	// failure in submission order.
	queued := q.EnqueueRestructure(transpose24, map[string]*Buffer{"x": x}, map[string]*Buffer{"y": y})
	if err := ctx.Finish(); err == nil || err.Error() != bad.Wait().Error() {
		t.Errorf("Finish returned %v, want the first failure %q", err, bad.Wait())
	}
	want := fmt.Sprintf("dmxrt: dependency %q failed: %v", next.desc, next.Wait())
	if err := queued.Wait(); err == nil || err.Error() != want {
		t.Errorf("queued dependent of the failure: got %v, want %q", err, want)
	}
	// The failing Finish retired everything: nothing is pending, and
	// the queue no longer chains new commands to its failed last one.
	if len(ctx.pending) != 0 {
		t.Errorf("%d pending events after a failed Finish", len(ctx.pending))
	}
	fresh := q.EnqueueRestructure(transpose24, map[string]*Buffer{"x": x}, map[string]*Buffer{"y": y})
	if err := ctx.Finish(); err != nil {
		t.Errorf("Finish after recovery: %v", err)
	}
	if err := fresh.Wait(); err != nil {
		t.Errorf("a new command on the recovered queue: %v", err)
	}
}

func TestPlatformEnumeration(t *testing.T) {
	p := NewPlatform()
	fftSpec, _ := accel.NewFFT(2, 64)
	p.AddAccelerator(fftSpec)
	if _, err := p.AddDRX(drx.DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	devs := p.Devices()
	if len(devs) != 2 {
		t.Fatalf("%d devices", len(devs))
	}
	if devs[0].kind != AcceleratorDevice || devs[1].kind != DRXDevice {
		t.Error("device kinds wrong")
	}
	if !strings.Contains(devs[0].Name(), "fft") {
		t.Errorf("device name %q", devs[0].Name())
	}
}
