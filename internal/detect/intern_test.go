package detect

import (
	"testing"

	"repro/internal/disasm"
	"repro/internal/perfev"
	"repro/internal/raceflag"
	"repro/internal/sim/intern"
	"repro/internal/sim/mem"
	"repro/internal/sim/osim"
)

// internedFixture is the detector wired the way core wires it: against a
// simulated memory's page-interning table, with the heap range actually
// mapped so samples resolve through the PageID fast path.
type internedFixture struct {
	*fixture
	memory *mem.Memory
	space  *mem.AddrSpace
	file   *mem.File
	npages int
}

func newInternedFixture(t *testing.T, period int, cfg Config) *internedFixture {
	t.Helper()
	memory := mem.NewMemory(4096)
	space := mem.NewAddrSpace(memory)
	file := memory.NewFile("heap")
	const npages = 16
	space.Map(heapLo, npages, file, 0, false, mem.ProtRW)

	f := &fixture{
		mon:  perfev.NewMonitor(4, period, 99),
		prog: disasm.NewProgram(),
	}
	f.ld = f.prog.Site("w.load", disasm.KindLoad, 8)
	f.st = f.prog.Site("w.store", disasm.KindStore, 8)
	var maps osim.AddressMap
	maps.AddRegion(heapLo, heapHi, osim.RegionHeap, "heap")
	maps.AddRegion(libLo, libHi, osim.RegionLib, "libc")
	f.det = New(cfg, f.mon, f.prog, &maps, memory.PageTable(), 4096)
	return &internedFixture{fixture: f, memory: memory, space: space, file: file, npages: npages}
}

// The interned fast path and the fallback map must agree: the same sample
// stream produces the same classification either way.
func TestInternedIngestMatchesFallback(t *testing.T) {
	cfg := Config{ThresholdPerSec: 1000, MinRecords: 8}
	in := newInternedFixture(t, 1, cfg)
	fb := newFixture(t, 1, cfg)
	line := uint64(heapLo + 0x40)
	for _, f := range []*fixture{in.fixture, fb} {
		f.feed(0, f.st.PC(), line+0, true, 2000)
		f.feed(1, f.st.PC(), line+8, true, 2000)
		f.feed(0, f.st.PC(), heapLo+4096+0x80, true, 200)
		f.feed(1, f.ld.PC(), heapLo+4096+0x80, false, 200)
	}
	reqIn, reqFb := in.det.Tick(1.0), fb.det.Tick(1.0)
	if reqIn == nil || reqFb == nil {
		t.Fatalf("requests: interned=%v fallback=%v, want both non-nil", reqIn, reqFb)
	}
	if len(reqIn.Pages) != len(reqFb.Pages) || reqIn.Pages[0] != reqFb.Pages[0] {
		t.Errorf("pages differ: interned=%v fallback=%v", reqIn.Pages, reqFb.Pages)
	}
	if len(in.det.FalseLines) != len(fb.det.FalseLines) || len(in.det.TrueLines) != len(fb.det.TrueLines) {
		t.Errorf("classes differ: interned false=%d true=%d, fallback false=%d true=%d",
			len(in.det.FalseLines), len(in.det.TrueLines), len(fb.det.FalseLines), len(fb.det.TrueLines))
	}
	// The interned fixture must actually have used the fast path.
	if len(in.det.fallback) != 0 {
		t.Errorf("interned fixture leaked %d lines into the fallback map", len(in.det.fallback))
	}
}

// Steady-state sample aggregation — page already interned, chunk and spans
// already allocated — must not allocate: lookup is two array indexes and
// span bookkeeping reuses capacity across window epochs.
func TestIngestSteadyStateAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("AllocsPerRun is meaningless under -race")
	}
	f := newInternedFixture(t, 1, DefaultConfig())
	lines := [4]uint64{heapLo + 0x40, heapLo + 0x80, heapLo + 4096, heapLo + 2*4096 + 0xc0}
	ingest := func() {
		for _, line := range lines {
			ls := f.det.lineFor(line)
			if ls.epoch != f.det.epoch {
				ls.reset()
				ls.epoch = f.det.epoch
				f.det.touched = append(f.det.touched, touchedLine{line, ls})
			}
			ls.records++
			ls.add(0, 0, 8, true)
			ls.add(1, 8, 16, true)
		}
	}
	ingest() // warm: intern growth, chunk allocation, span slices, touched list
	allocs := testing.AllocsPerRun(1000, ingest)
	if allocs != 0 {
		t.Errorf("steady-state ingest allocates %.1f/op, want 0", allocs)
	}
	// And across an epoch reset: reusing the same stats next window must not
	// allocate either (reset truncates, it does not reallocate).
	f.det.touched = f.det.touched[:0]
	f.det.epoch++
	ingest() // re-touch under the new epoch (touched append has capacity)
	allocs = testing.AllocsPerRun(1000, ingest)
	if allocs != 0 {
		t.Errorf("post-reset ingest allocates %.1f/op, want 0", allocs)
	}
}

// Per-line stats built against a mapping that is then remapped must not mix
// with the new mapping's samples: the generation stamp on the stat page
// makes the next lookup drop the dead mapping's spans, independent of the
// window epoch. Without the reset, the stale thread-0 span below would
// combine with thread 1's fresh writes into a bogus false-sharing verdict
// for data that never coexisted.
func TestRemapDropsStaleLineStats(t *testing.T) {
	f := newInternedFixture(t, 1, Config{ThresholdPerSec: 1000, MinRecords: 8})
	line := uint64(heapLo + 0x40)
	// Ingest a thread-0 write span in the current window, against gen 0.
	ls := f.det.lineFor(line)
	ls.epoch = f.det.epoch
	ls.records = 100
	ls.writeRecords = 100
	ls.add(0, 0, 8, true)

	file2 := f.memory.NewFile("other")
	f.space.Unmap(heapLo, f.npages)
	f.space.Map(heapLo, f.npages, file2, 0, false, mem.ProtRW)

	// Same window epoch, new page generation: the lookup must hand back a
	// clean stat, not the dead mapping's.
	fresh := f.det.lineFor(line)
	if fresh.records != 0 || len(fresh.tids) != 0 {
		t.Fatalf("stale stats survived the remap: records=%d tids=%v", fresh.records, fresh.tids)
	}

	// And through the public path: the remapped page's new generation
	// classifies a fresh cross-thread window as usual.
	f.feed(0, f.st.PC(), line+0, true, 2000)
	f.feed(1, f.st.PC(), line+8, true, 2000)
	if req := f.det.Tick(1.0); req == nil {
		t.Error("post-remap generation failed to classify fresh false sharing")
	}
	// The stale thread-0 span must not have inflated the verdict's records.
	if rep, ok := f.det.Lines[line]; ok && rep.Records > 4000 {
		t.Errorf("stale records leaked into the report: %+v", rep)
	}
}

// A huge page's chunk table grows on demand; growth that happens after a
// generation bump must still drop the dead mapping's chunks, and the new
// chunks must start clean. The stale stat lives in chunk 0 of a 2 MiB page;
// the first post-remap sample lands in chunk 7, so the reset loop runs over
// the one-chunk table before the table grows past it.
func TestRemapThenGrowChunkTable(t *testing.T) {
	const pageSize = 2 << 20
	tab := intern.NewTable(pageSize)
	id := tab.Intern(heapLo)
	det := New(Config{ThresholdPerSec: 1000, MinRecords: 8}, nil, nil, nil, tab, pageSize)

	near := uint64(heapLo + 0x40)
	ls := det.lineFor(near)
	ls.epoch = det.epoch
	ls.records = 100
	ls.writeRecords = 100
	ls.add(0, 0, 8, true)
	sp := det.pages[id]
	if len(sp.chunks) != 1 {
		t.Fatalf("chunk table holds %d pointers after one sample near the base, want 1", len(sp.chunks))
	}

	tab.Invalidate(id)
	far := uint64(heapLo + 7*linesPerChunk*64 + 0x80)
	if got := det.lineFor(far); got.records != 0 || len(got.tids) != 0 {
		t.Fatalf("grown chunk is not clean: records=%d tids=%v", got.records, got.tids)
	}
	if len(sp.chunks) != 8 || sp.gen != tab.Gen(id) {
		t.Fatalf("chunk table len=%d gen=%d, want 8 and %d", len(sp.chunks), sp.gen, tab.Gen(id))
	}
	if sp.chunks[0] != nil {
		t.Error("the dead mapping's chunk survived the generation bump")
	}
	if fresh := det.lineFor(near); fresh.records != 0 || len(fresh.tids) != 0 {
		t.Fatalf("stale stats survived the remap: records=%d tids=%v", fresh.records, fresh.tids)
	}

	// The public path classifies fresh cross-thread traffic on both lines.
	for i := 0; i < 2000; i++ {
		det.Ingest(Sample{TID: 0, Addr: far, Width: 8, Write: true})
		det.Ingest(Sample{TID: 1, Addr: far + 8, Width: 8, Write: true})
		det.Ingest(Sample{TID: 1, Addr: near + 8, Width: 8, Write: true})
	}
	if req := det.Analyze(1.0, 1); req == nil || len(req.Lines) != 1 || req.Lines[0].Line != far {
		t.Fatalf("post-remap window request = %+v, want false sharing on %#x only", req, far)
	}
}

// Window isolation on the interned path: epochs reset lazily, so records
// from a previous tick must never leak into the next window's verdict.
func TestInternedWindowResetsBetweenTicks(t *testing.T) {
	f := newInternedFixture(t, 1, Config{ThresholdPerSec: 1000, MinRecords: 8})
	line := uint64(heapLo + 0x40)
	f.feed(0, f.st.PC(), line, true, 6)
	f.feed(1, f.st.PC(), line+8, true, 6)
	f.det.Tick(1.0)
	f.feed(0, f.st.PC(), line, true, 4)
	f.feed(1, f.st.PC(), line+8, true, 3)
	if req := f.det.Tick(1.0); req != nil {
		t.Error("window state must not accumulate across ticks")
	}
}
