package cpu

import (
	"testing"

	"dmx/internal/restructure"
)

func benchKernels() []*restructure.Kernel {
	return []*restructure.Kernel{
		restructure.VideoPreprocess(1 << 20),
		restructure.MelSpectrogram(256, 512, 40),
		restructure.SignalNormalize(64, 4096),
		restructure.RecordFrame(4096, 2048),
		restructure.ColumnPack(1<<18, 6, 7, 24),
	}
}

func TestCharacterizeMatchesPaperRanges(t *testing.T) {
	m := DefaultModel()
	for _, k := range benchKernels() {
		p := m.Characterize(k)
		sum := p.FrontendPct + p.BadSpecPct + p.BackendCorePct + p.BackendMemPct + p.RetiringPct
		if sum < 99.9 || sum > 100.1 {
			t.Errorf("%s: shares sum to %.2f%%", k.Name, sum)
		}
		// Paper: ≤14% front-end, ≤12.5% bad speculation, backend 53–77.6%.
		if p.FrontendPct > 14+0.1 {
			t.Errorf("%s: frontend %.1f%% above paper ceiling", k.Name, p.FrontendPct)
		}
		if p.BadSpecPct > 12.5+0.1 {
			t.Errorf("%s: bad speculation %.1f%% above paper ceiling", k.Name, p.BadSpecPct)
		}
		be := p.BackendCorePct + p.BackendMemPct
		if be < 53-0.1 || be > 77.6+0.1 {
			t.Errorf("%s: backend %.1f%% outside 53–77.6%%", k.Name, be)
		}
		// Paper: 50–215 L1D MPKI, 25–109 L2 MPKI, ~2.3 average L1I MPKI.
		if p.L1DMPKI < 50 || p.L1DMPKI > 215 {
			t.Errorf("%s: L1D MPKI %.1f outside 50–215", k.Name, p.L1DMPKI)
		}
		if p.L2MPKI < 25 || p.L2MPKI > 109 {
			t.Errorf("%s: L2 MPKI %.1f outside 25–109", k.Name, p.L2MPKI)
		}
		if p.L1IMPKI > 7.8 {
			t.Errorf("%s: L1I MPKI %.1f not small", k.Name, p.L1IMPKI)
		}
		if p.VectorUtilization != 1.0 {
			t.Errorf("%s: vector utilization %.2f, want 1.0", k.Name, p.VectorUtilization)
		}
		if p.EphemeralThreads < 130 || p.EphemeralThreads > 140 {
			t.Errorf("%s: %d threads outside 130–140", k.Name, p.EphemeralThreads)
		}
	}
}

func TestVideoHasHighestBranchShares(t *testing.T) {
	// Fig. 5 singles out Video Surveillance for front-end and bad
	// speculation; its pipeline is the most permutation-heavy.
	m := DefaultModel()
	video := m.Characterize(restructure.VideoPreprocess(1 << 20))
	sound := m.Characterize(restructure.MelSpectrogram(256, 512, 40))
	if video.BadSpecPct <= sound.BadSpecPct {
		t.Errorf("video bad-spec %.1f%% not above sound %.1f%%", video.BadSpecPct, sound.BadSpecPct)
	}
	if video.FrontendPct <= sound.FrontendPct {
		t.Errorf("video frontend %.1f%% not above sound %.1f%%", video.FrontendPct, sound.FrontendPct)
	}
}

func TestProfileString(t *testing.T) {
	m := DefaultModel()
	s := m.Characterize(restructure.RecordFrame(64, 64)).String()
	if s == "" || len(s) < 20 {
		t.Errorf("profile string too short: %q", s)
	}
}
