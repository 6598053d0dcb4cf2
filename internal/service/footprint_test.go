package service

import (
	"runtime"
	"testing"

	"repro/internal/detect"
	"repro/internal/raceflag"
	"repro/internal/toolio"
	"repro/tmi"
	"repro/tmi/workloads"
)

// maxSessionBytes bounds the live heap one resident session may hold after
// one window of a real workload. A node's tenant capacity is its memory
// divided by this figure, so it is guarded like the allocation gates.
const maxSessionBytes = 16 << 10

// TestSessionFootprint is the per-tenant memory gate: 32 sessions, each
// fed the first window of a period-1 histogramfs trace and ticked once,
// must hold at most maxSessionBytes of live heap apiece, at 4 KiB and at
// 2 MiB pages. The figure is the HeapAlloc delta across the sessions'
// construction, measured after a full collection on both sides, so only
// what the sessions keep reachable counts.
func TestSessionFootprint(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("heap figures under -race include the detector's bookkeeping")
	}
	const sessions = 32
	for _, tc := range []struct {
		name string
		huge bool
	}{
		{"4KiB", false},
		{"2MiB", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rep, err := tmi.Run(workloads.HistogramFS(workloads.VariantFS), tmi.Config{
				System: tmi.TMIDetect, Period: 1, HugePages: tc.huge, Seed: 1, CaptureSamples: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			log := rep.SampleLog
			if log == nil || len(log.Windows) == 0 || len(log.WindowSamples(0)) == 0 {
				t.Fatal("histogramfs captured no sample window")
			}
			window := log.WindowSamples(0)
			tick := toolio.WireTick{Seq: 1, IntervalSec: log.Windows[0].IntervalSec, Period: log.Windows[0].Period}
			dcfg := Config{}.withDefaults().Detect
			periods := detect.DefaultPeriodController()

			held := make([]*session, 0, sessions)
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			for i := 0; i < sessions; i++ {
				s, err := newSession("tenant", log.PageSize, dcfg)
				if err != nil {
					t.Fatal(err)
				}
				s.feed(window)
				s.advise(tick, periods, "")
				held = append(held, s)
			}
			runtime.GC()
			runtime.ReadMemStats(&after)
			runtime.KeepAlive(held)

			per := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / sessions
			t.Logf("%d-byte pages: %d samples per window, %d live bytes per session", log.PageSize, len(window), per)
			if per > maxSessionBytes {
				t.Errorf("a session fed one window holds %d live bytes, want <= %d", per, maxSessionBytes)
			}
		})
	}
}
