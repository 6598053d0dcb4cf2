package pebs

import (
	"testing"

	"repro/internal/raceflag"
)

func TestPeriodControlsRecordRate(t *testing.T) {
	recordsAt := func(period int) uint64 {
		s := NewSampler(1, period, 1)
		for i := 0; i < 10_000; i++ {
			s.OnHITM(0, 0, 0x400000, 0x1000, 8, false, int64(i))
			s.Buffer(0).DrainInto(nil) // keep the buffer from overflowing
		}
		return s.RecordsEmitted
	}
	r1 := recordsAt(1)
	r100 := recordsAt(100)
	if r1 != 10_000 {
		t.Errorf("period 1: %d records, want 10000", r1)
	}
	if r100 != 100 {
		t.Errorf("period 100: %d records, want 100", r100)
	}
}

func TestStoresUnderReport(t *testing.T) {
	s := NewSampler(1, 1, 42)
	for i := 0; i < 10_000; i++ {
		s.OnHITM(0, 0, 0x400000, 0x1000, 8, true, int64(i))
		s.Buffer(0).DrainInto(nil)
	}
	got := float64(s.RecordsEmitted) / 10_000
	if got < StoreCaptureRate-0.05 || got > StoreCaptureRate+0.05 {
		t.Errorf("store capture rate %.3f, want ~%.2f", got, StoreCaptureRate)
	}
}

func TestAssistCostCharged(t *testing.T) {
	s := NewSampler(1, 10, 1)
	var total int64
	for i := 0; i < 100; i++ {
		total += s.OnHITM(0, 0, 0x400000, 0x1000, 8, false, int64(i))
	}
	if total != 10*CostAssist {
		t.Errorf("cost %d, want %d", total, 10*CostAssist)
	}
}

func TestBufferOverflowDropsAndInterrupts(t *testing.T) {
	s := NewSampler(1, 1, 1)
	var cost int64
	for i := 0; i < BufferRecords+50; i++ {
		cost += s.OnHITM(0, 0, 0x400000, 0x1000, 8, false, int64(i))
	}
	b := s.Buffer(0)
	if b.Len() != BufferRecords {
		t.Errorf("buffer holds %d, want %d", b.Len(), BufferRecords)
	}
	if b.Dropped != 50 {
		t.Errorf("dropped %d, want 50", b.Dropped)
	}
	if s.InterruptsTaken != 1 {
		t.Errorf("interrupts %d, want 1", s.InterruptsTaken)
	}
	if cost != int64(BufferRecords+50)*CostAssist+CostInterrupt {
		t.Errorf("unexpected total cost %d", cost)
	}
	recs := b.DrainInto(nil)
	if len(recs) != BufferRecords || b.Len() != 0 {
		t.Error("drain should empty the buffer")
	}
	if recs[0].PC != 0x400000 || recs[0].TID != 0 {
		t.Errorf("record contents: %+v", recs[0])
	}
}

// The sampler is the detector's record source: DrainInto collects every
// thread's buffer, in thread order, and empties them all.
func TestDrainIntoCollectsEveryBuffer(t *testing.T) {
	s := NewSampler(2, 1, 1)
	for i := 0; i < 30; i++ {
		s.OnHITM(1, 1, 0x400004, 0x2000, 8, false, int64(i))
	}
	for i := 0; i < 20; i++ {
		s.OnHITM(0, 0, 0x400000, 0x1000, 8, false, int64(i))
	}
	recs := s.DrainInto(nil)
	if len(recs) != 50 {
		t.Fatalf("drained %d, want 50", len(recs))
	}
	if recs[0].TID != 0 || recs[19].TID != 0 || recs[20].TID != 1 {
		t.Errorf("records not in thread order: %+v %+v %+v", recs[0], recs[19], recs[20])
	}
	if again := s.DrainInto(nil); len(again) != 0 {
		t.Error("second drain should be empty")
	}
}

func TestDroppedSumsEveryBuffer(t *testing.T) {
	s := NewSampler(2, 1, 1)
	for tid := 0; tid < 2; tid++ {
		for i := 0; i < BufferRecords+10*(tid+1); i++ {
			s.OnHITM(tid, tid, 0x400000, 0x1000, 8, false, int64(i))
		}
	}
	if got := s.Dropped(); got != 30 {
		t.Errorf("dropped %d, want 10+20", got)
	}
}

func TestFootprintScalesWithThreads(t *testing.T) {
	small := NewSampler(2, 1, 1).FootprintBytes()
	large := NewSampler(8, 1, 1).FootprintBytes()
	if large != 4*small {
		t.Errorf("footprint should scale with thread count: %d vs %d", small, large)
	}
}

func TestAddressSkidStaysNearAccess(t *testing.T) {
	s := NewSampler(1, 1, 7)
	const addr, size = 0x2000, 8
	skids := 0
	for i := 0; i < 5000; i++ {
		s.OnHITM(0, 0, 0x400000, addr, size, false, int64(i))
	}
	for _, r := range s.Buffer(0).DrainInto(nil) {
		switch r.Addr {
		case addr:
		case addr - size, addr + size:
			skids++
		default:
			t.Fatalf("skid outside one access step: 0x%x", r.Addr)
		}
	}
	if skids == 0 {
		t.Error("expected some address skid")
	}
}

func TestDrainIntoReusesDst(t *testing.T) {
	s := NewSampler(1, 1, 1)
	for i := 0; i < 10; i++ {
		s.OnHITM(0, 0, 0x400000, 0x1000, 8, false, int64(i))
	}
	b := s.Buffer(0)
	got := b.DrainInto(nil)
	if len(got) != 10 || b.Len() != 0 {
		t.Fatalf("DrainInto(nil) returned %d records, buffer holds %d; want 10 and 0", len(got), b.Len())
	}
	if got[0].PC != 0x400000 || got[9].Time != 9 {
		t.Errorf("record contents: first %+v last %+v", got[0], got[9])
	}

	// Appending into a recycled slice must not reallocate once capacity is
	// established, and must preserve the prefix handed in.
	for i := 0; i < 5; i++ {
		s.OnHITM(0, 0, 0x400100, 0x2000, 8, false, int64(100+i))
	}
	before := got[:0]
	again := b.DrainInto(before)
	if len(again) != 5 || &again[0] != &got[0] {
		t.Errorf("DrainInto did not reuse dst backing (len %d)", len(again))
	}
	if again[0].PC != 0x400100 {
		t.Errorf("recycled drain contents: %+v", again[0])
	}
}

func TestDrainIntoSteadyStateDoesNotAllocate(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	s := NewSampler(1, 1, 1)
	scratch := make([]Record, 0, 64)
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 32; i++ {
			s.OnHITM(0, 0, 0x400000, 0x1000, 8, false, int64(i))
		}
		scratch = s.Buffer(0).DrainInto(scratch[:0])
	})
	if allocs != 0 {
		t.Errorf("steady-state DrainInto allocates %.1f times per drain, want 0", allocs)
	}
}
