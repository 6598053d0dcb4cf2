package core

import (
	"repro/internal/detect"
	"repro/internal/disasm"
	"repro/internal/repair"
	"repro/internal/sim/cache"
	"repro/internal/sim/trace"
)

// Report is the result of one run.
type Report struct {
	Workload string
	System   string

	// SimSeconds is the simulated wall-clock runtime.
	SimSeconds float64

	// Coherence and sampling activity.
	HITMEvents  uint64 // raw HITM events at the cache
	RecordsSeen uint64 // PEBS records consumed by the detector
	Dropped     uint64 // records lost to full buffers

	// Detection results.
	TrueLines    int
	FalseLines   int
	TrueRecords  uint64
	FalseRecords uint64
	// SpanDrops counts records whose byte span overflowed the detector's
	// per-thread span tracker and could not be merged; non-zero means some
	// line classifications ran on incomplete span data.
	SpanDrops uint64

	// PredictedManualSpeedup is the Cheetah-style estimate of the speedup a
	// manual padding fix would deliver, computed from the sampled false-
	// sharing rate (extension; 1.0 when no false sharing was seen).
	PredictedManualSpeedup float64
	// LineSizePredictions is the Predator-style sweep: expected false/true
	// sharing line counts at alternate coherence granularities (extension).
	LineSizePredictions []detect.Prediction

	// Repair characterization (Table 3).
	Repaired       bool
	RepairAtSec    float64
	T2PMicros      []float64
	PagesProtected int
	Commits        uint64
	CommitsPerSec  float64
	TwinFaults     uint64
	BytesMerged    uint64
	CCCFlushes     uint64
	// RepairBackend names the strategy that serviced detector requests
	// ("t2p" unless Config.RepairBackend chose otherwise); BackendActivity
	// is its cross-backend activity summary.
	RepairBackend   string
	BackendActivity repair.BackendStats

	// MemBytes is the simulated memory footprint including runtime
	// overheads (Figure 8).
	MemBytes uint64

	// Correctness.
	Validated     bool
	ValidationErr string
	Hung          bool
	HangReason    string

	// Notes carries workload-reported metrics.
	Notes map[string]float64

	// Lines holds the detector's per-line classifications (hottest window
	// per line), for the tmidetect tool.
	Lines []detect.LineReport

	// Layout describes the shared-memory organization at the end of the
	// run, in the style of Figure 6.
	Layout []string

	// Events is the runtime lifecycle trace (detection ticks that found
	// something, stop-the-world, per-thread conversions, page arming) in
	// the style of Figure 5.
	Events []string

	// Timeline samples coherence activity once per detection interval
	// (monitored runs only): repair shows up as a cliff in the HITM rate.
	Timeline []IntervalSample

	// Tracer holds the structured event trace when Config.Trace was set.
	Tracer *trace.Recorder

	// SampleLog holds the replayable detector sample trace when
	// Config.CaptureSamples was set.
	SampleLog *trace.SampleLog

	// Sites is the run's instruction-site table: every site the workload
	// and the runtime library registered, executed or not, in PC order.
	Sites []disasm.SiteInfo

	Cache cache.Stats
}

// IntervalSample is one detection-interval snapshot of machine activity.
type IntervalSample struct {
	AtSec          float64
	HITMPerSec     float64
	RecordsInTick  uint64
	PagesProtected int
}

// MemMB is the footprint in MiB.
func (r *Report) MemMB() float64 { return float64(r.MemBytes) / (1 << 20) }

// MeanT2PMicros averages the per-thread conversion times.
func (r *Report) MeanT2PMicros() float64 {
	if len(r.T2PMicros) == 0 {
		return 0
	}
	var s float64
	for _, v := range r.T2PMicros {
		s += v
	}
	return s / float64(len(r.T2PMicros))
}
