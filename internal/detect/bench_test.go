package detect_test

import (
	"testing"

	"repro/internal/detect"
	"repro/tmi"
	"repro/tmi/workloads"
)

// BenchmarkDetectorWindow runs whole windows of the period-1 histogramfs
// trace (the tmid benchmark workloads' input, ~528 records a window)
// through one service-wired detector: Ingest every record, then Analyze.
// One op is one window; ns/record divides the time by the records
// ingested.
func BenchmarkDetectorWindow(b *testing.B) {
	rep, err := tmi.Run(workloads.HistogramFS(workloads.VariantFS), tmi.Config{
		System: tmi.TMIDetect, Period: 1, Seed: 1, CaptureSamples: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	log := rep.SampleLog
	if log == nil || len(log.Windows) == 0 {
		b.Fatal("histogramfs captured no sample window")
	}
	det := detect.New(detect.DefaultConfig(), nil, nil, nil, nil, log.PageSize)
	records := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := i % len(log.Windows)
		samples := log.WindowSamples(w)
		for _, s := range samples {
			det.Ingest(s)
		}
		det.Analyze(log.Windows[w].IntervalSec, log.Windows[w].Period)
		records += len(samples)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(records), "ns/record")
}
