package dmxsys

import (
	"strings"
	"testing"
	"testing/quick"

	"dmx/internal/accel"
	"dmx/internal/restructure"
	"dmx/internal/sim"
)

func TestQueueProvisioningMatchesPaper(t *testing.T) {
	// Sec. V: 8 GB of queue memory at 100 MB per queue pair supports up
	// to 40 accelerators.
	if MaxPeers != 40 {
		t.Errorf("MaxPeers = %d, want 40", MaxPeers)
	}
}

func TestDataQueueHeadTail(t *testing.T) {
	q := &DataQueue{owner: "q", capacity: 100}
	if err := q.Enqueue(60); err != nil {
		t.Fatal(err)
	}
	if err := q.Enqueue(50); err == nil {
		t.Error("overfill accepted")
	}
	if q.Used() != 60 || q.Free() != 40 {
		t.Errorf("used/free = %d/%d", q.Used(), q.Free())
	}
	if err := q.Dequeue(60); err != nil {
		t.Fatal(err)
	}
	// Ring reuse: capacity is fully available again.
	if err := q.Enqueue(100); err != nil {
		t.Errorf("ring reuse failed: %v", err)
	}
	if q.HighWater != 100 {
		t.Errorf("HighWater = %d, want 100", q.HighWater)
	}
	if err := q.Dequeue(200); err == nil {
		t.Error("over-dequeue accepted")
	}
	if err := q.Enqueue(-1); err == nil {
		t.Error("negative enqueue accepted")
	}
}

// Property: any sequence of admissible enqueue/dequeue operations keeps
// 0 ≤ Used ≤ capacity.
func TestDataQueueInvariantProperty(t *testing.T) {
	prop := func(ops []int16) bool {
		q := &DataQueue{owner: "p", capacity: 1000}
		for _, op := range ops {
			n := int64(op)
			if n >= 0 {
				if n <= q.Free() {
					if err := q.Enqueue(n); err != nil {
						return false
					}
				}
			} else if -n <= q.Used() {
				if err := q.Dequeue(-n); err != nil {
					return false
				}
			}
			if q.Used() < 0 || q.Used() > 1000 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestQueueSetPeers(t *testing.T) {
	qs, err := NewQueueSet("drx.a0", []string{"a0", "a1"})
	if err != nil {
		t.Fatal(err)
	}
	var qp QueuePair
	if err := qs.Pair("a1", &qp); err != nil {
		t.Fatal(err)
	}
	if qp.RX.Free() != QueuePairBytes || qp.TX.Free() != QueuePairBytes {
		t.Errorf("fresh queue free = %d/%d", qp.RX.Free(), qp.TX.Free())
	}
	if err := qp.TX.Dequeue(1); err == nil || !strings.Contains(err.Error(), "drx.a0.tx.a1") {
		t.Errorf("want an error naming drx.a0.tx.a1, got %v", err)
	}
	if err := qs.Pair("ghost", &qp); err == nil {
		t.Error("unknown peer accepted")
	}
	peers := make([]string, MaxPeers+1)
	for i := range peers {
		peers[i] = strings.Repeat("x", i+1)
	}
	if _, err := NewQueueSet("drx.big", peers); err == nil {
		t.Error("over-provisioned queue set accepted")
	}
}

func TestBumpFlowDrainsQueues(t *testing.T) {
	s, err := New(DefaultConfig(BumpInTheWire), pipelines(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	for _, a := range s.apps {
		for _, h := range a.hops {
			if h.rx.Used() != 0 || h.tx.Used() != 0 {
				t.Errorf("%s: queues not drained after run: rx %d tx %d", h.rx.owner, h.rx.Used(), h.tx.Used())
			}
			// The hop queues actually carried the payload.
			if h.rx.HighWater == 0 || h.tx.HighWater == 0 {
				t.Errorf("%s: no payload ever entered the RX/TX pair", h.rx.owner)
			}
		}
	}
}

func TestPipelinePayloadExceedingQueueRejected(t *testing.T) {
	p := testPipeline("huge")
	p.Hops[0].InBytes = QueuePairBytes + 1
	if _, err := New(DefaultConfig(BumpInTheWire), []*Pipeline{p}); err == nil ||
		!strings.Contains(err.Error(), "data queue") {
		t.Fatalf("want queue-size rejection, got %v", err)
	}
}

// threeStagePipeline builds a 3-kernel chain (the Fig. 16 shape) without
// importing workload (which would cycle).
func threeStagePipeline() *Pipeline {
	const nrec, reclen, seqlen = 512, 128, 64
	batch := int64(nrec * reclen)
	aes, err := accel.NewAESGCM("three-stage")
	if err != nil {
		panic(err)
	}
	re := accel.NewRegexRedact(nrec, reclen)
	nseq := nrec * reclen / seqlen
	ner := accel.NewBERTNER(nseq, seqlen, 8, 1)
	tokBytes := int64(nseq * seqlen * 4)
	return &Pipeline{
		Name: "three-stage",
		Stages: []Stage{
			{Accel: aes, InBytes: batch + 16},
			{Accel: re, InBytes: batch},
			{Accel: ner, InBytes: tokBytes},
		},
		Hops: []Hop{
			{Kernel: restructure.RecordFrame(nrec, reclen), InBytes: batch, OutBytes: batch},
			{Kernel: restructure.NERPrep(nrec, reclen, seqlen), InBytes: batch, OutBytes: tokBytes},
		},
		InputBytes:  batch + 16,
		OutputBytes: 4096,
	}
}

func TestThreeStagePipelineUnderEveryPlacement(t *testing.T) {
	for _, p := range []Placement{AllCPU, MultiAxl, Integrated, Standalone, PCIeIntegrated, BumpInTheWire} {
		pipes := []*Pipeline{threeStagePipeline(), threeStagePipeline()}
		s, err := New(DefaultConfig(p), pipes)
		if err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		rep, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range rep.Apps {
			if a.Total <= 0 || a.KernelTime <= 0 || a.RestructureTime <= 0 {
				t.Errorf("%v: incomplete 3-stage report: %+v", p, a)
			}
		}
	}
}

func TestThreeStageDMXBeatsBaseline(t *testing.T) {
	mk := func(p Placement) RunReport {
		s, err := New(DefaultConfig(p), []*Pipeline{threeStagePipeline()})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	base := mk(MultiAxl)
	dmxRep := mk(BumpInTheWire)
	if dmxRep.MeanTotal() >= base.MeanTotal() {
		t.Errorf("3-stage DMX (%v) not faster than baseline (%v)", dmxRep.MeanTotal(), base.MeanTotal())
	}
}

// idle advances an engine with nothing pending by d.
func idle(eng *sim.Engine, d sim.Duration) {
	eng.Schedule(d, func() {})
	eng.Run()
}

func TestDriverCoalescingIsRateBased(t *testing.T) {
	s, err := New(DefaultConfig(BumpInTheWire), pipelines(1))
	if err != nil {
		t.Fatal(err)
	}
	// Sparse completions: always interrupt mode.
	for i := 0; i < 20; i++ {
		if d := s.driverDelay(); d != InterruptLatency {
			t.Fatalf("sparse completion %d got %v, want interrupt latency", i, d)
		}
		idle(s.Eng, 2*CoalesceWindow)
	}
	// A burst within one window must flip the driver to polling...
	var last sim.Duration
	for i := 0; i < CoalesceThreshold+2; i++ {
		last = s.driverDelay()
	}
	if last != PollLatency {
		t.Fatalf("burst did not trigger polling: got %v", last)
	}
	// ...and quiescence must restore interrupts.
	idle(s.Eng, 2*CoalesceWindow)
	if d := s.driverDelay(); d != InterruptLatency {
		t.Fatalf("driver stuck in polling after quiescence: %v", d)
	}
}
