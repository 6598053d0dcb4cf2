package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/tmi"
	"repro/tmi/workloads"
)

// simSystems are the three systems sim-suite runs every FS workload under:
// the pthreads baseline exercises the machine and cache model only,
// TMIDetect adds PEBS sampling and the detector, TMIProtect adds repair.
var simSystems = []tmi.System{tmi.Pthreads, tmi.TMIDetect, tmi.TMIProtect}

// simCounts are the exact Report counts of one simulated run. A change
// that only speeds the simulator up must leave every one of them as it was.
type simCounts struct {
	accesses, hitm, pebsRecords, pebsDropped uint64
	repaired, commits, twinFaults            uint64
	bytesMerged, cccFlushes                  uint64
	simulatedBits                            uint64 // math.Float64bits(SimSeconds)
}

func countsOf(rep *tmi.Report) simCounts {
	repaired := uint64(0)
	if rep.Repaired {
		repaired = 1
	}
	return simCounts{
		accesses: rep.Cache.Accesses, hitm: rep.HITMEvents,
		pebsRecords: rep.RecordsSeen, pebsDropped: rep.Dropped,
		repaired: repaired, commits: rep.Commits, twinFaults: rep.TwinFaults,
		bytesMerged: rep.BytesMerged, cccFlushes: rep.CCCFlushes,
		simulatedBits: math.Float64bits(rep.SimSeconds),
	}
}

// simTotals sums one sim-suite pass for the traced breakdown.
type simTotals struct {
	counts      simCounts
	simulatedS  float64
	hostNS      map[tmi.System]int64  // host time per system
	sysAccesses map[tmi.System]uint64 // simulated accesses per system
}

func (t *simTotals) add(sys tmi.System, rep *tmi.Report, host time.Duration) {
	c := countsOf(rep)
	t.counts.accesses += c.accesses
	t.counts.hitm += c.hitm
	t.counts.pebsRecords += c.pebsRecords
	t.counts.pebsDropped += c.pebsDropped
	t.counts.repaired += c.repaired
	t.counts.commits += c.commits
	t.counts.twinFaults += c.twinFaults
	t.counts.bytesMerged += c.bytesMerged
	t.counts.cccFlushes += c.cccFlushes
	t.simulatedS += rep.SimSeconds
	t.hostNS[sys] += host.Nanoseconds()
	t.sysAccesses[sys] += c.accesses
}

// simBench runs the nine-workload FS suite under each system at the
// paper's defaults. Its operation is one tmi.Run.
type simBench struct {
	seed int64
	// want holds each run's counts from the first pass; later passes must
	// repeat them exactly.
	want []simCounts
}

func newSimBench(seed int64) (*simBench, error) {
	b := &simBench{seed: seed}
	// Warm-up: the first suite workload once under each system, so lazily
	// built tables and the heap's size are settled before the first pass.
	w := workloads.FSSuite()[0]
	for _, sys := range simSystems {
		if _, err := tmi.Run(w, tmi.Config{System: sys, Seed: seed}); err != nil {
			return nil, fmt.Errorf("sim-suite warm-up %s/%s: %w", sys, w.Name(), err)
		}
	}
	return b, nil
}

func (b *simBench) close() {}

func (b *simBench) pass(tr *tracer, n int) (*passResult, error) {
	r := &passResult{sim: simTotals{hostNS: map[tmi.System]int64{}, sysAccesses: map[tmi.System]uint64{}}}
	root := tr.begin("bench.pass", 0, "sim-suite")
	var got []simCounts
	// The pass's reports stay live until the heap is read: heap_mb is what
	// a caller holding the suite's results keeps resident.
	var reports []*tmi.Report
	for _, sys := range simSystems {
		for _, w := range workloads.FSSuite() {
			id := tr.begin("sim.run", root, sys.String()+"/"+w.Name())
			c0, t := cpuNow(), time.Now()
			rep, err := tmi.Run(w, tmi.Config{System: sys, Seed: b.seed})
			d, cpu := time.Since(t), cpuNow()-c0
			tr.end(id)
			if err != nil {
				return nil, fmt.Errorf("sim-suite %s/%s: %w", sys, w.Name(), err)
			}
			reports = append(reports, rep)
			i := len(got)
			c := countsOf(rep)
			got = append(got, c)
			r.attempted++
			if !rep.Validated || (b.want != nil && c != b.want[i]) {
				r.failed++
			}
			r.elapsed += d
			r.cpu += cpu
			r.lat = append(r.lat, float64(d.Nanoseconds())/1e3)
			r.work += float64(c.accesses)
			r.sim.add(sys, rep, d)
		}
	}
	tr.end(root)
	if b.want == nil {
		b.want = got
	}
	r.heapMB = heapMB()
	runtime.KeepAlive(reports)
	return r, nil
}
