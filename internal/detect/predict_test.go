package detect

import (
	"testing"

	"repro/internal/sim/cache"
)

// feedPattern populates the detector's archive with two threads' stores at
// the given absolute addresses.
func feedPattern(f *fixture, addrs map[int][]uint64, perAddr int) {
	for tid, as := range addrs {
		for _, a := range as {
			f.feed(tid, f.st.PC(), a, true, perAddr)
		}
	}
	f.det.Tick(1.0)
}

func TestPredictSmallerLinesSeparateFalseSharing(t *testing.T) {
	f := newFixture(t, 1, Config{ThresholdPerSec: 1, MinRecords: 1})
	// Threads 32 bytes apart in one 64B line: false sharing at 64B, none at
	// 32B or 16B.
	feedPattern(f, map[int][]uint64{
		0: {heapLo + 0x40},
		1: {heapLo + 0x60},
	}, 2000)
	at64 := f.det.History.PredictAtLineSize(64)
	if at64.FalseLines != 1 {
		t.Fatalf("at 64B: %+v, want 1 false line", at64)
	}
	at32 := f.det.History.PredictAtLineSize(32)
	if at32.FalseLines != 0 {
		t.Errorf("at 32B the fields separate: %+v", at32)
	}
	at16 := f.det.History.PredictAtLineSize(16)
	if at16.FalseLines != 0 {
		t.Errorf("at 16B the fields separate: %+v", at16)
	}
}

func TestPredictLargerLinesCreateFalseSharing(t *testing.T) {
	f := newFixture(t, 1, Config{ThresholdPerSec: 1, MinRecords: 1})
	// Threads on adjacent 64B lines within one 128-aligned pair: clean at
	// 64B (single-thread lines are not archived), false sharing at 128B.
	feedPattern(f, map[int][]uint64{
		0: {heapLo + 0x100, heapLo + 0x108},
		1: {heapLo + 0x140, heapLo + 0x148},
	}, 1000)
	at64 := f.det.History.PredictAtLineSize(64)
	if at64.FalseLines != 0 {
		t.Errorf("at 64B the lines are private: %+v", at64)
	}
	at128 := f.det.History.PredictAtLineSize(128)
	if at128.FalseLines == 0 {
		t.Errorf("at 128B adjacent-thread lines should falsely share: %+v", at128)
	}
}

func TestPredictTrueSharingStaysTrue(t *testing.T) {
	f := newFixture(t, 1, Config{ThresholdPerSec: 1, MinRecords: 1})
	feedPattern(f, map[int][]uint64{
		0: {heapLo + 0x80},
		1: {heapLo + 0x80},
	}, 1000)
	for _, size := range []int{16, 64, 256} {
		p := f.det.History.PredictAtLineSize(size)
		if p.TrueLines == 0 || p.FalseLines != 0 {
			t.Errorf("overlapping writes stay true sharing at %dB: %+v", size, p)
		}
	}
}

func TestPredictLineSizesSweep(t *testing.T) {
	f := newFixture(t, 1, Config{ThresholdPerSec: 1, MinRecords: 1})
	feedPattern(f, map[int][]uint64{
		0: {heapLo + 0x40},
		1: {heapLo + 0x48},
	}, 500)
	sweep := f.det.History.PredictLineSizes()
	if len(sweep) != 5 {
		t.Fatalf("sweep has %d entries", len(sweep))
	}
	for i := 1; i < len(sweep); i++ {
		if sweep[i].LineSize <= sweep[i-1].LineSize {
			t.Error("sweep must be ordered by line size")
		}
	}
	// 8 bytes apart: shared at >=16B, separate at... never (8B apart means
	// same 16B block only if aligned together). At 16B: offsets 0x40,0x48
	// share the 16B block at 0x40 -> still false sharing.
	if sweep[0].LineSize != 16 || sweep[0].FalseLines != 1 {
		t.Errorf("8B-apart fields share a 16B block: %+v", sweep[0])
	}
}

func TestPredictManualSpeedup(t *testing.T) {
	f := newFixture(t, 1, Config{ThresholdPerSec: 1, MinRecords: 1})
	feedPattern(f, map[int][]uint64{
		0: {heapLo + 0x40},
		1: {heapLo + 0x48},
	}, 5000)
	// All records are stores, so the estimator scales them back up by the
	// capture rate; size the runtime so the saved cycles are half of it,
	// giving a ~2x prediction.
	estEvents := float64(f.det.History.FalseRecords) / 0.4
	saved := estEvents * float64(cache.LatHITM-cache.LatL1Hit) / 2
	runtime := int64(saved * 2)
	got := f.det.History.PredictManualSpeedup(1, runtime, 2)
	if got < 1.8 || got > 2.2 {
		t.Errorf("predicted %.2fx, want ~2x", got)
	}
	// No false sharing -> no predicted benefit.
	clean := newFixture(t, 1, DefaultConfig())
	if v := clean.det.History.PredictManualSpeedup(1, 1_000_000, 2); v != 1 {
		t.Errorf("clean prediction %.2f, want 1.0", v)
	}
	// Saturation guard.
	if v := f.det.History.PredictManualSpeedup(1000, 1000, 2); v > 101 {
		t.Errorf("prediction should saturate, got %f", v)
	}
}
