package service

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/detect"
	"repro/internal/sim/trace"
	"repro/internal/toolio"
)

// variedLog builds a trace whose windows all differ: sampling period and
// interval, window size (one window is empty, one below MinRecords),
// thread count, the pages and lines touched, and the sharing shape —
// disjoint fields (false sharing), one shared word (true sharing), a
// private line, and random byte spans that stress the per-thread span
// merge. syntheticLog repeats one window shape; this one makes a window's
// advice depend on which lines it touches, so a leak of state across
// windows would show.
func variedLog() *trace.SampleLog {
	rng := rand.New(rand.NewSource(7))
	log := &trace.SampleLog{PageSize: 4096}
	sizes := []int{300, 0, 700, 3, 450, 1200, 90, 600}
	for w, n := range sizes {
		threads := 2 + w%3
		// Each window draws its lines from a window-dependent slice of four
		// pages, so consecutive windows overlap on some lines and not others.
		line := func() uint64 {
			page := uint64(0x100000 + ((w+rng.Intn(2))%4)*4096)
			return page + uint64((w*3+rng.Intn(3))%64)*64
		}
		for i := 0; i < n; i++ {
			tid := rng.Intn(threads)
			switch shape := rng.Intn(8); {
			case shape < 5: // disjoint 8-byte fields: false sharing
				log.TapSample(detect.Sample{TID: tid, Addr: line() + uint64(tid)*8, Width: 8, Write: tid != 1 || shape == 0})
			case shape < 6: // one shared word: true sharing
				log.TapSample(detect.Sample{TID: tid, Addr: 0x200000 + uint64(w%2)*64, Width: 8, Write: true})
			case shape < 7: // a line only thread 0 touches
				log.TapSample(detect.Sample{TID: 0, Addr: 0x300000 + uint64(rng.Intn(64)), Width: 1, Write: true})
			default: // random byte spans
				off := uint64(rng.Intn(64))
				log.TapSample(detect.Sample{TID: tid, Addr: line() + off, Width: 1 + rng.Intn(8), Write: rng.Intn(2) == 0})
			}
		}
		periods := []int{1, 10, 100, 1000}
		log.TapWindow(0.0001*float64(1+w%3), periods[w%4])
	}
	return log
}

// adviseAfter feeds the prefix windows and then window w through one
// session — the path shards and Replay share — and returns w's rendered
// advice. Every window is closed with its own tick, so the rendering of w
// differs from a fresh session's only if state leaked across windows.
func adviseAfter(t *testing.T, log *trace.SampleLog, prefix []int, w int) []byte {
	t.Helper()
	dcfg := Config{}.withDefaults().Detect
	periods := detect.DefaultPeriodController()
	s, err := newSession("prefix", log.PageSize, dcfg)
	if err != nil {
		t.Fatal(err)
	}
	tick := func(i int) toolio.WireTick {
		win := log.Windows[i]
		return toolio.WireTick{K: toolio.WireTickKind, Seq: i, IntervalSec: win.IntervalSec, Period: win.Period}
	}
	for _, i := range prefix {
		s.feed(log.WindowSamples(i))
		s.advise(tick(i), periods, "")
	}
	s.feed(log.WindowSamples(w))
	return toolio.EncodeWire(s.advise(tick(w), periods, ""))
}

// TestAdviceIndependentOfPrefix is the correctness argument for bounded
// migratable sessions: a window's advice is a function of that window's
// samples and tick alone. For every window W and several prefixes P — none,
// one window, every earlier window, and the earlier windows twice over — a
// session fed P then W renders W's advice byte-identical to a fresh session
// fed only W. So at a tick boundary a session's migratable state is two
// counters, never a closed window's samples.
func TestAdviceIndependentOfPrefix(t *testing.T) {
	for name, log := range map[string]*trace.SampleLog{"synthetic": syntheticLog(), "varied": variedLog()} {
		flagged := 0
		for w := range log.Windows {
			fresh := adviseAfter(t, log, nil, w)
			if bytes.Contains(fresh, []byte(`"pages"`)) {
				flagged++
			}
			var earlier []int
			for i := 0; i < w; i++ {
				earlier = append(earlier, i)
			}
			prefixes := map[string][]int{
				"one window":       {(w + 1) % len(log.Windows)},
				"earlier windows":  earlier,
				"earlier repeated": append(append([]int(nil), earlier...), earlier...),
				"every window":     append(earlier, w),
			}
			for pname, prefix := range prefixes {
				if got := adviseAfter(t, log, prefix, w); !bytes.Equal(got, fresh) {
					t.Errorf("%s window %d after %s %v:\ngot:  %s\nwant: %s", name, w, pname, prefix, got, fresh)
				}
			}
		}
		// The property is vacuous if no window ever produces repair advice.
		if flagged == 0 {
			t.Errorf("%s: no window flagged a page; the test proves nothing", name)
		}
	}
}
