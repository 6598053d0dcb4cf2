// Package detect implements TMI's false sharing detector (paper §3.1): a
// per-application detection thread that drains the perf HITM sample buffers
// once per second, filters samples through the process address map (heap and
// globals only), recovers each sample's access kind and width by
// disassembling its PC, aggregates samples per cache line, scales counts by
// the sampling period (a period of n with r records is estimated as n*r
// events), classifies each hot line as true or false sharing, and requests
// repair for pages whose false-sharing rate crosses the threshold.
//
// The detector reasons about one sampling window at a time, and so does its
// state: a slab of the lines sampled this window, in first-sample order,
// and a line → slot map. Analyze walks the slab, then empties both while
// keeping their capacity, so a detector's memory follows its largest window,
// not its age or its page size. What a run reports across windows lives on
// an optional History that only the simulator path attaches.
//
// Given the run's page-interning table, a line remembers its page's
// generation at its first sample of the window; a later sample that finds
// the page remapped resets the line, so spans from two mappings of the same
// virtual page never mix.
package detect

import (
	"cmp"
	"slices"

	"repro/internal/disasm"
	"repro/internal/sim/cache"
	"repro/internal/sim/intern"
	"repro/internal/sim/osim"
	"repro/internal/sim/pebs"
)

// Ingestor supplies the detector's record stream: what the PEBS sampler
// (*pebs.Sampler, the perf boundary) provides in an embedded run, and what
// a replayed or network-fed source provides when no live machine exists. DrainInto appends all pending
// records to dst and returns the extended slice, so a caller-owned scratch
// buffer keeps the per-tick drain allocation-free.
type Ingestor interface {
	DrainInto(dst []pebs.Record) []pebs.Record
	Period() int
}

// Sample is one resolved record: the data address plus the access geometry
// recovered from disassembly, or carried pre-resolved on the wire in the
// tmid service path (where the server has no disassembler or address map).
type Sample struct {
	TID   int
	Addr  uint64
	Width int
	Write bool
}

// Tap observes the detector's accepted sample stream and window boundaries.
// It is the capture hook behind replayable HITM traces (trace.SampleLog):
// everything a Tap sees is exactly what a fresh detector needs to reproduce
// this detector's advice, window by window.
type Tap interface {
	TapSample(s Sample)
	TapWindow(intervalSec float64, period int)
}

// Config tunes the detector.
type Config struct {
	// ThresholdPerSec is the estimated HITM events/second on one line above
	// which false sharing is repaired (the paper repairs structures
	// producing >100k events/s).
	ThresholdPerSec float64
	// MinRecords is the minimum raw records on a line before judging it.
	MinRecords int
}

// DefaultConfig matches the paper's operating point.
func DefaultConfig() Config {
	return Config{ThresholdPerSec: 100_000, MinRecords: 8}
}

// span is an exact byte interval [Lo, Hi) a thread touched within a line,
// with the number of samples that produced it. Spans are kept exact (not
// widened) and classification is count-weighted, because PEBS data
// addresses occasionally skid: a single skidded record must not be able to
// flip a heavily false-shared line to "true sharing".
type span struct {
	Lo, Hi int
	Wrote  bool
	Count  int
}

// maxSpansPerThread caps the distinct spans tracked per (line, thread).
// Past the cap, new spans are merged into the nearest same-kind span
// (widening it) rather than discarded: a line with many distinct offsets
// must keep contributing to classification. Only when no same-kind span
// exists is the record's span dropped, and that is counted.
const maxSpansPerThread = 24

type lineStat struct {
	records      int
	writeRecords int
	// dropped counts records whose span could not be tracked or merged;
	// surfaced per line (LineReport.DroppedSpans) and cumulatively
	// (History.DroppedSpans) so overflow can never silently skew a
	// classification.
	dropped int
	// threads holds each thread's spans in first-touch order. A line has
	// few threads, so a thread is found by linear scan: indexing by TID
	// would let one sample with a large TID pin a slice as long as the TID.
	threads []threadSpans
}

// threadSpans is one thread's spans on one line.
type threadSpans struct {
	tid   int
	spans []span
}

// reset clears the window counters, keeping the thread slots and their
// span capacity.
func (ls *lineStat) reset() {
	ls.records, ls.writeRecords, ls.dropped = 0, 0, 0
	ls.threads = ls.threads[:0]
}

// thread returns tid's slot, appending one (and reusing a dead slot's span
// capacity) at the thread's first touch.
func (ls *lineStat) thread(tid int) *threadSpans {
	for i := range ls.threads {
		if ls.threads[i].tid == tid {
			return &ls.threads[i]
		}
	}
	n := len(ls.threads)
	ls.threads = slices.Grow(ls.threads, 1)[:n+1]
	t := &ls.threads[n]
	t.tid, t.spans = tid, t.spans[:0]
	return t
}

func (ls *lineStat) add(tid, lo, hi int, wrote bool) {
	t := ls.thread(tid)
	spans := t.spans
	for i, s := range spans {
		if s.Lo == lo && s.Hi == hi && s.Wrote == wrote {
			spans[i].Count++
			return
		}
	}
	if len(spans) < maxSpansPerThread {
		t.spans = append(spans, span{lo, hi, wrote, 1})
		return
	}
	// Overflow: merge into the closest span of the same access kind,
	// widening its byte interval. Widening can only add overlap weight the
	// exact spans would also have contributed had there been room.
	best, bestGap := -1, int(^uint(0)>>1)
	for i, s := range spans {
		if s.Wrote != wrote {
			continue
		}
		gap := 0
		switch {
		case lo > s.Hi:
			gap = lo - s.Hi
		case s.Lo > hi:
			gap = s.Lo - hi
		}
		if gap < bestGap {
			best, bestGap = i, gap
		}
	}
	if best < 0 {
		ls.dropped++
		return
	}
	if lo < spans[best].Lo {
		spans[best].Lo = lo
	}
	if hi > spans[best].Hi {
		spans[best].Hi = hi
	}
	spans[best].Count++
}

// Sharing classifies a hot line.
type Sharing int

// Sharing classes.
const (
	SharingNone Sharing = iota
	SharingTrue
	SharingFalse
)

func (s Sharing) String() string {
	switch s {
	case SharingTrue:
		return "true"
	case SharingFalse:
		return "false"
	}
	return "none"
}

// LineReport describes one analyzed cache line.
type LineReport struct {
	Line    uint64 // line-aligned virtual address
	Class   Sharing
	Records int
	// EstEventsPerSec is records * period / interval.
	EstEventsPerSec float64
	// DroppedSpans counts records whose byte span the aggregator could
	// neither track nor merge in this line's hottest window; non-zero means
	// the classification ran on incomplete span data.
	DroppedSpans int
}

// Request asks the repair engine to protect a set of pages.
type Request struct {
	Pages []uint64 // page-aligned virtual addresses
	Lines []LineReport
}

// winLine is one line sampled in the current window. page and gen are the
// line's page identity at its first sample this window (intern.None when
// the detector has no page table or the page was never interned).
type winLine struct {
	line uint64
	page intern.PageID
	gen  uint32
	stat lineStat
}

// Detector is the per-application detection thread's state.
type Detector struct {
	cfg  Config
	src  Ingestor
	prog *disasm.Program
	maps *osim.AddressMap
	tab  *intern.Table
	tap  Tap

	// drain is the scratch buffer Tick reuses for the per-window record
	// drain (no per-tick allocation once it reaches steady-state capacity).
	drain []pebs.Record

	// Window state: win[:n] holds the lines sampled this window in
	// first-sample order, and index maps a line to its slot. Slots past n
	// keep their span capacity for the next window.
	win   []winLine
	n     int
	index map[uint64]int32

	pageSize uint64

	// TotalRecords counts every record fed or ingested; FilteredRecords
	// counts those the address map or the disassembler rejected.
	TotalRecords    uint64
	FilteredRecords uint64

	// History, when set, accumulates every window's classifications for
	// whole-run reporting. The simulator path attaches one; a tmid session
	// does not, so its memory follows its window.
	History *History
}

// New creates a detector. src is the record source (a *pebs.Sampler in
// embedded runs); nil is allowed when the caller only uses the direct
// Ingest/Analyze path. tab is the run's page-interning table, read only to
// reset a line whose page is remapped mid-window; nil (the tmid service,
// unit tests without a simulated memory) means pages never remap.
func New(cfg Config, src Ingestor, prog *disasm.Program, maps *osim.AddressMap, tab *intern.Table, pageSize int) *Detector {
	return &Detector{
		cfg: cfg, src: src, prog: prog, maps: maps, tab: tab,
		index:    make(map[uint64]int32),
		pageSize: uint64(pageSize),
	}
}

// lineFor returns the window stat for the line-aligned address, opening a
// slot at the line's first sample this window. A line whose page was
// remapped since that first sample starts over: its spans describe bytes of
// a dead mapping.
func (d *Detector) lineFor(line uint64) *lineStat {
	if i, ok := d.index[line]; ok {
		w := &d.win[i]
		if w.page != intern.None && d.tab.Gen(w.page) != w.gen {
			w.gen = d.tab.Gen(w.page)
			w.stat.reset()
		}
		return &w.stat
	}
	if d.n == len(d.win) {
		d.win = append(d.win, winLine{})
	}
	w := &d.win[d.n]
	d.index[line] = int32(d.n)
	d.n++
	w.line, w.page, w.gen = line, intern.None, 0
	if d.tab != nil {
		if id := d.tab.Lookup(line); id != intern.None {
			w.page, w.gen = id, d.tab.Gen(id)
		}
	}
	w.stat.reset()
	return &w.stat
}

// SetTap installs (or, with nil, removes) the capture tap.
func (d *Detector) SetTap(t Tap) { d.tap = t }

// Tick drains the record source, analyzes the window of intervalSec
// seconds, and returns a repair request for pages whose false sharing
// crosses the threshold (nil if none).
func (d *Detector) Tick(intervalSec float64) *Request {
	d.drain = d.src.DrainInto(d.drain[:0])
	d.Feed(d.drain)
	return d.Analyze(intervalSec, d.src.Period())
}

// Feed filters raw PEBS records through the address map, resolves each
// survivor's access kind and width by disassembling its PC, and ingests the
// resolved samples into the current window. It is the resolution half of
// Tick, split out so record sources other than a live monitor can drive the
// detector.
func (d *Detector) Feed(recs []pebs.Record) {
	for _, r := range recs {
		if !d.maps.Monitorable(r.Addr) {
			d.TotalRecords++
			d.FilteredRecords++
			continue
		}
		info, ok := d.prog.Disassemble(r.PC)
		if !ok {
			d.TotalRecords++
			d.FilteredRecords++
			continue
		}
		d.Ingest(Sample{TID: r.TID, Addr: r.Addr, Width: info.Width, Write: info.Kind.Writes()})
	}
}

// Ingest aggregates one already-resolved sample into the current window.
// This is the seam the tmid service feeds wire records through: no monitor,
// no disassembler, no address map — just per-line aggregation.
func (d *Detector) Ingest(s Sample) {
	d.TotalRecords++
	if d.tap != nil {
		d.tap.TapSample(s)
	}
	line := s.Addr &^ (cache.LineSize - 1)
	lo := int(s.Addr - line)
	hi := lo + s.Width
	if hi > cache.LineSize {
		hi = cache.LineSize
	}
	ls := d.lineFor(line)
	ls.records++
	if s.Write {
		ls.writeRecords++
	}
	ls.add(s.TID, lo, hi, s.Write)
}

// Analyze closes the window of intervalSec seconds sampled at period and
// returns the repair request (nil if no page crossed the threshold). It is
// the classification half of Tick; period is explicit because a replayed or
// network-fed stream carries the period that was in force when its records
// were sampled, not whatever the local source is programmed to now. The
// window's lines are analyzed in first-sample order, then the window table
// empties, keeping its capacity.
func (d *Detector) Analyze(intervalSec float64, period int) *Request {
	if d.tap != nil {
		d.tap.TapWindow(intervalSec, period)
	}
	var pages []uint64
	var lines []LineReport
	for i := range d.win[:d.n] {
		line, ls := d.win[i].line, &d.win[i].stat
		if d.History != nil {
			d.History.DroppedSpans += uint64(ls.dropped)
		}
		if ls.records < d.cfg.MinRecords {
			continue
		}
		class := classify(ls)
		est := float64(ls.records) * float64(period) / intervalSec
		rep := LineReport{Line: line, Class: class, Records: ls.records, EstEventsPerSec: est, DroppedSpans: ls.dropped}
		if d.History != nil {
			d.History.add(rep, ls)
		}
		if class == SharingFalse && est >= d.cfg.ThresholdPerSec {
			if page := line &^ (d.pageSize - 1); !slices.Contains(pages, page) {
				pages = append(pages, page)
			}
			lines = append(lines, rep)
		}
	}
	clear(d.index)
	d.n = 0
	if len(pages) == 0 {
		return nil
	}
	slices.Sort(pages)
	slices.SortFunc(lines, func(a, b LineReport) int { return cmp.Compare(a.Line, b.Line) })
	return &Request{Pages: pages, Lines: lines}
}

// classify decides true vs false sharing for one line. Overlap is weighted
// by sample counts so that occasional PEBS address skid cannot flip the
// verdict: the line is true sharing only when a meaningful fraction of its
// samples sit in cross-thread overlapping byte ranges (with a write);
// disjoint cross-thread ranges with at least one writer are false sharing.
func classify(ls *lineStat) Sharing {
	if len(ls.threads) < 2 {
		return SharingNone
	}
	anyWrite := false
	for _, t := range ls.threads {
		for _, s := range t.spans {
			anyWrite = anyWrite || s.Wrote
		}
	}
	if !anyWrite {
		return SharingNone
	}
	// Overlap weight is a sum over unordered thread pairs, so the
	// first-touch order of ls.threads does not affect the verdict.
	overlapWeight := 0
	for i, ti := range ls.threads {
		for _, tj := range ls.threads[i+1:] {
			for _, a := range ti.spans {
				for _, b := range tj.spans {
					if a.Lo < b.Hi && b.Lo < a.Hi && (a.Wrote || b.Wrote) {
						w := a.Count
						if b.Count < w {
							w = b.Count
						}
						overlapWeight += w
					}
				}
			}
		}
	}
	// One-in-ten samples overlapping marks genuine true sharing; anything
	// rarer is within PEBS skid noise.
	if overlapWeight*10 >= ls.records {
		return SharingTrue
	}
	return SharingFalse
}

// FootprintBytes estimates detector data-structure memory (Figure 8): the
// disassembly tables plus per-line aggregation state plus fixed overhead
// for the detection thread.
func (d *Detector) FootprintBytes() uint64 {
	const fixed = 48 << 20 // detection thread arenas, maps cache, indexes
	var perLine uint64
	if h := d.History; h != nil {
		perLine = uint64(len(h.TrueLines)+len(h.FalseLines)) * 256
	}
	return fixed + d.prog.FootprintBytes()*16 + perLine
}
