package service

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/detect"
	"repro/internal/raceflag"
	"repro/internal/toolio"
)

// maxSessionBytes bounds the live heap one resident session may hold after
// one window of a real workload. A node's tenant capacity is its memory
// divided by this figure, so it is guarded like the allocation gates.
const maxSessionBytes = 16 << 10

// heapAfterGC returns the live heap after full collections. The second
// collection frees what the first only moved to sync.Pool victim caches.
func heapAfterGC() int64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// TestSessionFootprint is the per-tenant memory gate. Every figure is a
// HeapAlloc delta across a session's construction and feeding, measured
// after a full collection on both sides, so only what the session keeps
// reachable counts.
//
//   - 4KiB, 2MiB: 32 sessions, each fed the first window of a period-1
//     histogramfs trace and ticked once, hold at most maxSessionBytes
//     apiece. They are built the way a cluster node builds them: under
//     the shard turn of a Migratable server, measured from after New.
//   - age: one session fed 10,000 windows, each on a fresh 4 KiB page,
//     holds no more than it held after the first window plus 1 KiB, and at
//     most maxSessionBytes.
//   - 1GiB: a session with 1 GiB pages fed one window of samples near the
//     tops of distinct pages holds at most maxSessionBytes.
//   - hostile-tid: a session fed samples at the largest wire TID on
//     distinct lines holds at most maxSessionBytes.
func TestSessionFootprint(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("heap figures under -race include the detector's bookkeeping")
	}
	dcfg := Config{}.withDefaults().Detect
	periods := detect.DefaultPeriodController()
	tick := toolio.WireTick{Seq: 1, IntervalSec: 0.001, Period: 100}
	for _, tc := range []struct {
		name string
		huge bool
	}{
		{"4KiB", false},
		{"2MiB", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const sessions = 32
			log := histogramfsTrace(t, tc.huge)
			window := log.WindowSamples(0)
			tick := toolio.WireTick{Seq: 1, IntervalSec: log.Windows[0].IntervalSec, Period: log.Windows[0].Period}

			srv := New(Config{Migratable: true})
			defer srv.Drain()
			before := heapAfterGC()
			for i := 0; i < sessions; i++ {
				tenant := fmt.Sprintf("tenant-%d", i)
				var err error
				srv.onShard(tenant, func(sh *shard, now time.Time) {
					var s *session
					if s, err = sh.session(tenant, log.PageSize, now); err == nil {
						s.feed(window)
						s.advise(tick, periods, "")
					}
				})
				if err != nil {
					t.Fatal(err)
				}
			}
			per := (heapAfterGC() - before) / sessions
			runtime.KeepAlive(srv)

			t.Logf("%d-byte pages: %d samples per window, %d live bytes per session", log.PageSize, len(window), per)
			if per > maxSessionBytes {
				t.Errorf("a session fed one window holds %d live bytes, want <= %d", per, maxSessionBytes)
			}
		})
	}

	t.Run("age", func(t *testing.T) {
		const windows = 10_000
		batch := make([]detect.Sample, 64)
		before := heapAfterGC()
		s, err := newSession("age", 4096, dcfg)
		if err != nil {
			t.Fatal(err)
		}
		// Window w: two threads write disjoint words of 8 lines on the
		// fresh page w.
		window := func(w int) {
			page := 0x1000_0000 + uint64(w)*4096
			for i := range batch {
				tid := i % 2
				batch[i] = detect.Sample{TID: tid, Addr: page + uint64(i/2%8)*64 + uint64(tid)*8, Width: 8, Write: true}
			}
			s.feed(batch)
			s.advise(tick, periods, "")
		}
		window(0)
		one := heapAfterGC() - before
		for w := 1; w < windows; w++ {
			window(w)
		}
		aged := heapAfterGC() - before
		runtime.KeepAlive(s)

		t.Logf("live bytes after 1 window: %d, after %d windows: %d", one, windows, aged)
		if aged > one+1024 || aged > maxSessionBytes {
			t.Errorf("a session grew from %d to %d live bytes over %d windows, want <= %d and <= %d",
				one, aged, windows, one+1024, maxSessionBytes)
		}
	})

	// hostile feeds one window of samples to a fresh session and returns
	// the live bytes the session holds after its tick.
	hostile := func(t *testing.T, pageSize int, samples []detect.Sample) int64 {
		t.Helper()
		before := heapAfterGC()
		s, err := newSession("hostile", pageSize, dcfg)
		if err != nil {
			t.Fatal(err)
		}
		s.feed(samples)
		s.advise(tick, periods, "")
		held := heapAfterGC() - before
		runtime.KeepAlive(s)
		return held
	}

	t.Run("1GiB", func(t *testing.T) {
		const page = toolio.MaxWirePageSize
		var samples []detect.Sample
		for k := uint64(1); k <= 16; k++ {
			samples = append(samples, detect.Sample{TID: int(k % 2), Addr: k*page + page - 64, Width: 8, Write: true})
		}
		held := hostile(t, page, samples)
		t.Logf("1 GiB pages, %d samples near page tops: %d live bytes", len(samples), held)
		if held > maxSessionBytes {
			t.Errorf("a 1 GiB-page session holds %d live bytes, want <= %d", held, maxSessionBytes)
		}
	})

	t.Run("hostile-tid", func(t *testing.T) {
		var samples []detect.Sample
		for i := uint64(0); i < 4; i++ {
			samples = append(samples, detect.Sample{TID: toolio.MaxWireTID, Addr: 0x1000_0000 + i*64, Width: 8, Write: true})
		}
		held := hostile(t, 4096, samples)
		t.Logf("%d samples at TID %d: %d live bytes", len(samples), toolio.MaxWireTID, held)
		if held > maxSessionBytes {
			t.Errorf("a session fed TID %d holds %d live bytes, want <= %d", toolio.MaxWireTID, held, maxSessionBytes)
		}
	})
}
