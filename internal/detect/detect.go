// Package detect implements TMI's false sharing detector (paper §3.1): a
// per-application detection thread that drains the perf HITM sample buffers
// once per second, filters samples through the process address map (heap and
// globals only), recovers each sample's access kind and width by
// disassembling its PC, aggregates samples per cache line, scales counts by
// the sampling period (a period of n with r records is estimated as n*r
// events), classifies each hot line as true or false sharing, and requests
// repair for pages whose false-sharing rate crosses the threshold.
//
// Per-line window state lives in PageID-indexed stat pages: sample ingest is
// a radix lookup plus slice indexes, with no hashing and no steady-state
// allocation. Windows are reset by bumping an epoch counter instead of
// reallocating; a page's stats are generation-stamped so a remap elsewhere
// implicitly discards them rather than mixing spans from two different
// mappings of the same virtual page. Sampled addresses that fall outside
// every interned page (PEBS skid past a mapping's edge) go through a small
// fallback map so no record is ever lost to the fast path.
package detect

import (
	"sort"

	"repro/internal/disasm"
	"repro/internal/sim/cache"
	"repro/internal/sim/intern"
	"repro/internal/sim/osim"
	"repro/internal/sim/pebs"
)

// Ingestor supplies the detector's record stream: what perfev.Monitor
// provides in an embedded run, and what a replayed or network-fed source
// provides when no live machine exists. DrainInto appends all pending
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
	// (Detector.DroppedSpans) so overflow can never silently skew a
	// classification.
	dropped int
	// epoch marks the analysis window these counters belong to; a stat
	// touched in an older window resets lazily instead of being reallocated.
	epoch uint32
	// threads holds each thread's spans, indexed by tid; tids lists the
	// threads present, in first-touch order, so reset and iteration never
	// scan the full slice.
	threads [][]span
	tids    []int
}

// reset clears the window counters, keeping the span slices' capacity.
func (ls *lineStat) reset() {
	ls.records, ls.writeRecords, ls.dropped = 0, 0, 0
	for _, tid := range ls.tids {
		ls.threads[tid] = ls.threads[tid][:0]
	}
	ls.tids = ls.tids[:0]
}

// spansOf returns tid's spans (nil if the thread never touched the line).
func (ls *lineStat) spansOf(tid int) []span {
	if tid < len(ls.threads) {
		return ls.threads[tid]
	}
	return nil
}

func (ls *lineStat) add(tid, lo, hi int, wrote bool) {
	for len(ls.threads) <= tid {
		ls.threads = append(ls.threads, nil)
	}
	spans := ls.threads[tid]
	for i, s := range spans {
		if s.Lo == lo && s.Hi == hi && s.Wrote == wrote {
			spans[i].Count++
			return
		}
	}
	if len(spans) == 0 {
		ls.tids = append(ls.tids, tid)
	}
	if len(spans) < maxSpansPerThread {
		ls.threads[tid] = append(spans, span{lo, hi, wrote, 1})
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

// linesPerChunk sizes the lazily allocated blocks of a stat page: 64 lines
// = one 4 KiB page's worth, so small pages allocate exactly one chunk and
// huge pages allocate only the chunks their hot lines live in. The chunk
// pointer table itself grows on demand to the highest chunk touched, so a
// 2 MiB page sampled near its base holds one pointer, not 512.
const linesPerChunk = 64

type statChunk [linesPerChunk]lineStat

// statPage holds one interned page's per-line window stats, stamped with
// the page generation they were built against. chunks covers only up to the
// highest chunk index sampled so far.
type statPage struct {
	gen    uint32
	chunks []*statChunk
}

// touchedLine records one line with samples in the current window, in
// first-sample order — the deterministic iteration order for analysis.
type touchedLine struct {
	line uint64
	ls   *lineStat
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

	// Window state: PageID-indexed stat pages, the touched-line list, and
	// the epoch that lazily invalidates stats from previous windows.
	pages    []*statPage
	fallback map[uint64]*lineStat // samples outside every interned page
	touched  []touchedLine
	epoch    uint32

	pageSize uint64

	// Cumulative results for reporting.
	TotalRecords    uint64
	FilteredRecords uint64
	TrueLines       map[uint64]bool
	FalseLines      map[uint64]bool
	TrueRecords     uint64
	FalseRecords    uint64
	// FalseWriteRecords is the store-triggered subset of FalseRecords;
	// stores under-report (pebs.StoreCaptureRate), which the speedup
	// prediction corrects for.
	FalseWriteRecords uint64
	// DroppedSpans counts, across all windows and lines, records whose byte
	// span overflowed the per-thread tracker and could not be merged.
	DroppedSpans uint64
	// Lines holds, per classified line, the report from its hottest window
	// (capped; for the tmidetect tool and tests).
	Lines map[uint64]LineReport

	// archive folds every window's span data for the prediction analyses
	// (predict.go); capped like Lines.
	archive map[uint64]*lineStat
}

// New creates a detector. src is the record source (a *perfev.Monitor in
// embedded runs); nil is allowed when the caller only uses the direct
// Ingest/Analyze path. tab is the run's page interning table; nil is
// allowed (all samples then aggregate through the fallback map, e.g. in
// unit tests without a simulated memory).
func New(cfg Config, src Ingestor, prog *disasm.Program, maps *osim.AddressMap, tab *intern.Table, pageSize int) *Detector {
	return &Detector{
		cfg: cfg, src: src, prog: prog, maps: maps, tab: tab,
		epoch:      1, // zero-valued lineStats must read as "stale window"
		pageSize:   uint64(pageSize),
		TrueLines:  make(map[uint64]bool),
		FalseLines: make(map[uint64]bool),
		Lines:      make(map[uint64]LineReport),
	}
}

// lineFor returns the window stat for the line-aligned address, resolving
// through the intern table when possible (two array indexes) and through
// the fallback map otherwise. The caller is responsible for the epoch
// check/reset.
func (d *Detector) lineFor(line uint64) *lineStat {
	if d.tab != nil {
		if id := d.tab.Lookup(line); id != intern.None {
			d.pages = intern.Grow(d.pages, id)
			sp := d.pages[id]
			gen := d.tab.Gen(id)
			if sp == nil {
				sp = &statPage{gen: gen}
				d.pages[id] = sp
			} else if sp.gen != gen {
				// The page was remapped since these stats were built: they
				// describe bytes of a dead mapping. Drop every chunk so the
				// new mapping's samples start clean.
				for i := range sp.chunks {
					sp.chunks[i] = nil
				}
				sp.gen = gen
			}
			li := int(line&(d.pageSize-1)) / cache.LineSize
			ci := li / linesPerChunk
			if ci >= len(sp.chunks) {
				sp.chunks = append(sp.chunks, make([]*statChunk, ci+1-len(sp.chunks))...)
			}
			ck := sp.chunks[ci]
			if ck == nil {
				ck = new(statChunk)
				sp.chunks[ci] = ck
			}
			return &ck[li%linesPerChunk]
		}
	}
	ls := d.fallback[line]
	if ls == nil {
		if d.fallback == nil {
			d.fallback = make(map[uint64]*lineStat)
		}
		ls = &lineStat{}
		d.fallback[line] = ls
	}
	return ls
}

// SetTap installs (or, with nil, removes) the capture tap.
func (d *Detector) SetTap(t Tap) { d.tap = t }

// Tick drains the record source, analyzes the window of intervalSec
// seconds, and returns a repair request for pages whose false sharing
// crosses the threshold (nil if none). The window state is reset between
// ticks (an epoch bump; nothing is reallocated).
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
	if ls.epoch != d.epoch {
		ls.reset()
		ls.epoch = d.epoch
		d.touched = append(d.touched, touchedLine{line, ls})
	}
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
// were sampled, not whatever the local source is programmed to now.
func (d *Detector) Analyze(intervalSec float64, period int) *Request {
	if d.tap != nil {
		d.tap.TapWindow(intervalSec, period)
	}
	var req Request
	var pages []uint64
	for _, tl := range d.touched {
		line, ls := tl.line, tl.ls
		d.DroppedSpans += uint64(ls.dropped)
		if ls.records < d.cfg.MinRecords {
			continue
		}
		class := classify(ls)
		est := float64(ls.records) * float64(period) / intervalSec
		rep := LineReport{Line: line, Class: class, Records: ls.records, EstEventsPerSec: est, DroppedSpans: ls.dropped}
		// Archive every sufficiently-sampled line — including single-thread
		// ones: the Predator-style prediction needs them to see false
		// sharing that only appears at larger line sizes.
		d.archiveLine(line, ls)
		if class != SharingNone && len(d.Lines) < 4096 {
			if prev, ok := d.Lines[line]; !ok || est > prev.EstEventsPerSec {
				d.Lines[line] = rep
			}
		}
		switch class {
		case SharingTrue:
			d.TrueLines[line] = true
			d.TrueRecords += uint64(ls.records)
		case SharingFalse:
			d.FalseLines[line] = true
			d.FalseRecords += uint64(ls.records)
			d.FalseWriteRecords += uint64(ls.writeRecords)
			if est >= d.cfg.ThresholdPerSec {
				page := line &^ (d.pageSize - 1)
				dup := false
				for _, p := range pages {
					if p == page {
						dup = true
						break
					}
				}
				if !dup {
					pages = append(pages, page)
				}
				req.Lines = append(req.Lines, rep)
			}
		}
	}
	// Reset the window: everything touched this epoch lazily clears on its
	// next sample.
	d.touched = d.touched[:0]
	d.epoch++
	if len(pages) == 0 {
		return nil
	}
	req.Pages = pages
	sort.Slice(req.Pages, func(i, j int) bool { return req.Pages[i] < req.Pages[j] })
	sort.Slice(req.Lines, func(i, j int) bool { return req.Lines[i].Line < req.Lines[j].Line })
	return &req
}

// classify decides true vs false sharing for one line. Overlap is weighted
// by sample counts so that occasional PEBS address skid cannot flip the
// verdict: the line is true sharing only when a meaningful fraction of its
// samples sit in cross-thread overlapping byte ranges (with a write);
// disjoint cross-thread ranges with at least one writer are false sharing.
func classify(ls *lineStat) Sharing {
	if len(ls.tids) < 2 {
		return SharingNone
	}
	anyWrite := false
	for _, tid := range ls.tids {
		for _, s := range ls.threads[tid] {
			anyWrite = anyWrite || s.Wrote
		}
	}
	if !anyWrite {
		return SharingNone
	}
	// Overlap weight is a sum over unordered thread pairs, so the
	// first-touch order of ls.tids does not affect the verdict.
	overlapWeight := 0
	for i := 0; i < len(ls.tids); i++ {
		for j := i + 1; j < len(ls.tids); j++ {
			for _, a := range ls.threads[ls.tids[i]] {
				for _, b := range ls.threads[ls.tids[j]] {
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
	perLine := uint64(len(d.TrueLines)+len(d.FalseLines)) * 256
	return fixed + d.prog.FootprintBytes()*16 + perLine
}
