package detect

import (
	"testing"

	"repro/internal/disasm"
	"repro/internal/raceflag"
	"repro/internal/sim/intern"
	"repro/internal/sim/mem"
	"repro/internal/sim/osim"
	"repro/internal/sim/pebs"
)

// internedFixture is the detector wired the way core wires it: against a
// simulated memory's page-interning table, with the heap range actually
// mapped so every sampled line resolves to an interned page, and with a
// History attached.
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
		sampler: pebs.NewSampler(4, period, 99),
		prog:    disasm.NewProgram(),
	}
	f.ld = f.prog.Site("w.load", disasm.KindLoad, 8)
	f.st = f.prog.Site("w.store", disasm.KindStore, 8)
	var maps osim.AddressMap
	maps.AddRegion(heapLo, heapHi, osim.RegionHeap, "heap")
	maps.AddRegion(libLo, libHi, osim.RegionLib, "libc")
	f.det = New(cfg, f.sampler, f.prog, &maps, memory.PageTable(), 4096)
	f.det.History = NewHistory()
	return &internedFixture{fixture: f, memory: memory, space: space, file: file, npages: npages}
}

// A detector wired to a page table and one without must agree: the table
// only decides when a line's stats go stale, never how a window classifies.
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
	hin, hfb := in.det.History, fb.det.History
	if len(hin.FalseLines) != len(hfb.FalseLines) || len(hin.TrueLines) != len(hfb.TrueLines) {
		t.Errorf("classes differ: interned false=%d true=%d, fallback false=%d true=%d",
			len(hin.FalseLines), len(hin.TrueLines), len(hfb.FalseLines), len(hfb.TrueLines))
	}
	// The interned fixture must actually have resolved its lines' pages.
	if in.det.win[0].page == intern.None {
		t.Error("interned fixture never looked its lines' pages up")
	}
}

// Whole windows through the public Ingest and Analyze must not allocate
// once the window table, the line map and the span slices have grown to
// the window's size: Analyze empties the table keeping its capacity, and
// builds a Request only when a page crosses the threshold. Both wirings
// are held to it: the service's (no page table, no history) and the
// simulator's (page table and history).
func TestIngestSteadyStateDoesNotAllocate(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("AllocsPerRun is meaningless under -race")
	}
	cfg := Config{ThresholdPerSec: 1e18, MinRecords: 8}
	service := New(cfg, nil, nil, nil, nil, 4096)
	sim := newInternedFixture(t, 1, cfg).det
	for name, det := range map[string]*Detector{"service": service, "simulator": sim} {
		lines := [4]uint64{heapLo + 0x40, heapLo + 0x80, heapLo + 4096, heapLo + 2*4096 + 0xc0}
		window := func() {
			for i := 0; i < 16; i++ {
				for _, line := range lines {
					det.Ingest(Sample{TID: 0, Addr: line, Width: 8, Write: true})
					det.Ingest(Sample{TID: 1, Addr: line + 8, Width: 8, Write: true})
				}
			}
			if req := det.Analyze(1.0, 1); req != nil {
				t.Fatalf("%s: no page should cross the threshold: %+v", name, req)
			}
		}
		window() // warm: window table, line map, span slices
		if allocs := testing.AllocsPerRun(100, window); allocs != 0 {
			t.Errorf("%s: a steady-state window allocates %.1f/op, want 0", name, allocs)
		}
	}
}

// Per-line stats built against a mapping that is then remapped must not mix
// with the new mapping's samples: the line remembers its page's generation
// at its first sample, and the next sample after the remap resets it.
// Without the reset, the stale thread-0 span below would combine with
// thread 1's fresh writes into a bogus false-sharing verdict for data that
// never coexisted.
func TestRemapDropsStaleLineStats(t *testing.T) {
	f := newInternedFixture(t, 1, Config{ThresholdPerSec: 1000, MinRecords: 8})
	line := uint64(heapLo + 0x40)
	// Ingest a thread-0 write span in the current window, against gen 0.
	for i := 0; i < 100; i++ {
		f.det.Ingest(Sample{TID: 0, Addr: line, Width: 8, Write: true})
	}

	file2 := f.memory.NewFile("other")
	f.space.Unmap(heapLo, f.npages)
	f.space.Map(heapLo, f.npages, file2, 0, false, mem.ProtRW)

	// Same window, new page generation: the line must start clean.
	f.det.Ingest(Sample{TID: 1, Addr: line + 8, Width: 8, Write: true})
	if ls := &f.det.win[f.det.index[line]].stat; ls.records != 1 || len(ls.threads) != 1 {
		t.Fatalf("stale stats survived the remap: records=%d threads=%+v", ls.records, ls.threads)
	}

	// And through the public path: the remapped page's new generation
	// classifies a fresh cross-thread window as usual.
	f.feed(0, f.st.PC(), line+0, true, 2000)
	f.feed(1, f.st.PC(), line+8, true, 2000)
	if req := f.det.Tick(1.0); req == nil {
		t.Error("post-remap generation failed to classify fresh false sharing")
	}
	// The stale thread-0 span must not have inflated the verdict's records:
	// the line holds at most the records ingested after the remap (fewer
	// when PEBS skid moved some to a neighbouring line).
	if rep, ok := f.det.History.Lines[line]; !ok || rep.Records > int(f.det.TotalRecords-100) {
		t.Errorf("report %+v (found %v), want at most the %d post-remap records", rep, ok, f.det.TotalRecords-100)
	}
}

// The remap rule holds per line on a huge page too. The stale stat lives on
// a line near a 2 MiB page's base; the first post-remap sample opens a line
// deep in the page against the new generation, and the next sample on the
// near line resets it.
func TestRemapOnHugePageDropsStaleLine(t *testing.T) {
	const pageSize = 2 << 20
	tab := intern.NewTable(pageSize)
	id := tab.Intern(heapLo)
	det := New(Config{ThresholdPerSec: 1000, MinRecords: 8}, nil, nil, nil, tab, pageSize)

	near, far := uint64(heapLo+0x40), uint64(heapLo+7*4096+0x80)
	for i := 0; i < 100; i++ {
		det.Ingest(Sample{TID: 0, Addr: near, Width: 8, Write: true})
	}
	tab.Invalidate(id)
	det.Ingest(Sample{TID: 0, Addr: far, Width: 8, Write: true})
	if w := det.win[det.index[far]]; w.page != id || w.gen != tab.Gen(id) {
		t.Fatalf("far line opened against page %d gen %d, want %d gen %d", w.page, w.gen, id, tab.Gen(id))
	}
	det.Ingest(Sample{TID: 1, Addr: near + 8, Width: 8, Write: true})
	if ls := &det.win[det.index[near]].stat; ls.records != 1 || len(ls.threads) != 1 {
		t.Fatalf("stale stats survived the remap: records=%d threads=%+v", ls.records, ls.threads)
	}

	// The public path classifies fresh cross-thread traffic on the far line
	// only: the near line holds thread 1 alone once thread 0's stale span
	// is gone.
	for i := 0; i < 2000; i++ {
		det.Ingest(Sample{TID: 0, Addr: far, Width: 8, Write: true})
		det.Ingest(Sample{TID: 1, Addr: far + 8, Width: 8, Write: true})
		det.Ingest(Sample{TID: 1, Addr: near + 8, Width: 8, Write: true})
	}
	if req := det.Analyze(1.0, 1); req == nil || len(req.Lines) != 1 || req.Lines[0].Line != far {
		t.Fatalf("post-remap window request = %+v, want false sharing on %#x only", req, far)
	}
}

// Window isolation on the interned path: the window table empties at every
// tick, so records from a previous tick must never leak into the next
// window's verdict.
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
