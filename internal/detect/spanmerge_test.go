package detect

import "testing"

// Regression tests for the span-tracker overflow bug: lineStat.add used to
// silently discard any span once a thread had 24 on a line, so a line with
// many distinct offsets could be misclassified (true sharing read as false)
// with no trace. Overflowing spans are now merged into the nearest
// same-kind span, and unmergeable records are counted.

func newLineStat() *lineStat {
	return &lineStat{}
}

// spansOf returns tid's spans (nil if the thread never touched the line).
func (ls *lineStat) spansOf(tid int) []span {
	for _, t := range ls.threads {
		if t.tid == tid {
			return t.spans
		}
	}
	return nil
}

// fill gives tid the maximum number of distinct single-byte spans.
func fill(ls *lineStat, tid int, wrote bool) {
	for i := 0; i < maxSpansPerThread; i++ {
		ls.add(tid, i, i+1, wrote)
		ls.records++
	}
}

func TestOverflowMergesIntoNearestSpan(t *testing.T) {
	ls := newLineStat()
	fill(ls, 0, true)
	ls.add(0, 40, 48, true)
	ls.records++
	if ls.dropped != 0 {
		t.Fatalf("same-kind overflow was dropped (dropped = %d)", ls.dropped)
	}
	if n := len(ls.spansOf(0)); n != maxSpansPerThread {
		t.Fatalf("span count grew past the cap: %d", n)
	}
	// The nearest span ([23,24), gap 16) must have been widened to cover
	// the new interval.
	var widened bool
	for _, s := range ls.spansOf(0) {
		if s.Lo <= 40 && s.Hi >= 48 {
			widened = true
		}
	}
	if !widened {
		t.Fatalf("no span widened to cover [40,48): %+v", ls.spansOf(0))
	}
}

func TestOverflowWithoutSameKindSpanCountsDrop(t *testing.T) {
	ls := newLineStat()
	fill(ls, 0, false) // 24 read spans
	ls.add(0, 60, 61, true)
	ls.records++
	if ls.dropped != 1 {
		t.Fatalf("dropped = %d, want 1", ls.dropped)
	}
}

// TestTrueSharingBeyondSpanCapIsNotMisclassified reconstructs the original
// defect: thread 0 touches many distinct offsets (overflowing its span
// budget), then both threads hammer one overlapping word. Before the merge
// fix, thread 0's overlapping accesses were discarded, the cross-thread
// overlap weight stayed 0, and the heavily true-shared line was classified
// as false sharing — i.e. eligible for a repair that cannot help.
func TestTrueSharingBeyondSpanCapIsNotMisclassified(t *testing.T) {
	ls := newLineStat()
	fill(ls, 0, true)
	const hot = 400
	for i := 0; i < hot; i++ {
		ls.add(0, 56, 64, true)
		ls.records++
		ls.add(1, 56, 64, true)
		ls.records++
	}
	if got := classify(ls); got != SharingTrue {
		t.Fatalf("classify = %v, want true sharing (overlap lost past the span cap?)", got)
	}
	if ls.dropped != 0 {
		t.Fatalf("mergeable spans were counted as dropped: %d", ls.dropped)
	}
}

// TestDetectorSurfacesDrops drives drops through the public Tick path and
// checks they reach both the per-line report and the cumulative counter.
func TestDetectorSurfacesDrops(t *testing.T) {
	f := newFixture(t, 1, Config{ThresholdPerSec: 1e12, MinRecords: 8})
	line := uint64(heapLo + 0x40)
	// Thread 0: loads at every even offset — 24 tracked spans, then merges
	// keep classification running. Thread 1 writes, making the line hot.
	for off := 0; off < 48; off += 2 {
		f.feed(0, f.ld.PC(), line+uint64(off), false, 4)
	}
	// A store from thread 0 past the cap has no same-kind span to merge
	// into (all 24 are loads): it must be counted, not silently lost.
	f.feed(0, f.st.PC(), line+50, true, 3)
	f.feed(1, f.st.PC(), line+56, true, 40)
	f.det.Tick(1.0)
	if f.det.History.DroppedSpans == 0 {
		t.Fatal("Detector.DroppedSpans = 0, want > 0")
	}
	rep, ok := f.det.History.Lines[line]
	if !ok {
		t.Fatalf("line %#x not classified; lines: %+v", line, f.det.History.Lines)
	}
	if rep.DroppedSpans == 0 {
		t.Error("LineReport.DroppedSpans = 0, want > 0")
	}
}
