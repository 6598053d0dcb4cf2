package detect

// maxHistoryLines caps History.Lines and the prediction archive.
const maxHistoryLines = 4096

// History accumulates what a run reports across windows: the lines
// classified true or false sharing, their record totals, each classified
// line's hottest window, and every window's spans folded into an archive
// for the predictions (predict.go). Advice never reads it, so only the
// simulator path attaches one (Detector.History); a tmid session's memory
// then follows its window alone.
type History struct {
	TrueLines    map[uint64]bool
	FalseLines   map[uint64]bool
	TrueRecords  uint64
	FalseRecords uint64
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

	// archive folds every window's span data for the prediction analyses;
	// capped like Lines.
	archive map[uint64]*lineStat
}

// NewHistory returns an empty history.
func NewHistory() *History {
	return &History{
		TrueLines:  make(map[uint64]bool),
		FalseLines: make(map[uint64]bool),
		Lines:      make(map[uint64]LineReport),
		archive:    make(map[uint64]*lineStat),
	}
}

// add records one line that had enough records to judge in the closing
// window.
func (h *History) add(rep LineReport, ls *lineStat) {
	// Archive every sufficiently-sampled line — including single-thread
	// ones: the Predator-style prediction needs them to see false sharing
	// that only appears at larger line sizes.
	h.archiveLine(rep.Line, ls)
	if rep.Class != SharingNone && len(h.Lines) < maxHistoryLines {
		if prev, ok := h.Lines[rep.Line]; !ok || rep.EstEventsPerSec > prev.EstEventsPerSec {
			h.Lines[rep.Line] = rep
		}
	}
	switch rep.Class {
	case SharingTrue:
		h.TrueLines[rep.Line] = true
		h.TrueRecords += uint64(ls.records)
	case SharingFalse:
		h.FalseLines[rep.Line] = true
		h.FalseRecords += uint64(ls.records)
		h.FalseWriteRecords += uint64(ls.writeRecords)
	}
}

// archiveLine folds one window's span data for a line into the cumulative
// archive, threads in first-touch order, so predictions run over the whole
// execution.
func (h *History) archiveLine(line uint64, ls *lineStat) {
	if len(h.archive) >= maxHistoryLines {
		return
	}
	a := h.archive[line]
	if a == nil {
		a = &lineStat{}
		h.archive[line] = a
	}
	a.records += ls.records
	a.dropped += ls.dropped
	for _, t := range ls.threads {
		for _, s := range t.spans {
			for i := 0; i < s.Count; i++ {
				a.add(t.tid, s.Lo, s.Hi, s.Wrote)
			}
		}
	}
}
