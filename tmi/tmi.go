// Package tmi is the public API of the TMI reproduction: it runs workloads
// (package tmi/workload) on the simulated multicore under a chosen system —
// the pthreads baseline, TMI in its alloc/detect/protect modes, or the
// Sheriff and LASER comparison systems — and reports runtime, detection and
// repair results.
//
// Quick start:
//
//	w := workloads.Histogram(workloads.VariantFS)
//	rep, err := tmi.Run(w, tmi.Config{System: tmi.TMIProtect})
//	fmt.Printf("runtime %.3fs, repaired=%v\n", rep.SimSeconds, rep.Repaired)
//
// Every run is deterministic for a fixed Config.Seed.
package tmi

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/tmi/workload"
)

// System selects which runtime supervises the workload. String names it
// as in the paper's figures; ParseSystem inverts String.
type System = core.Setup

// Systems.
const (
	// Pthreads is the unmonitored baseline (Lockless-style allocator).
	Pthreads = core.Pthreads
	// TMIAlloc redirects allocations into TMI's process-shared memory and
	// replaces synchronization with process-shared objects.
	TMIAlloc = core.TMIAlloc
	// TMIDetect adds HITM sampling and the false-sharing detection thread.
	TMIDetect = core.TMIDetect
	// TMIProtect is full TMI: detection plus online repair.
	TMIProtect = core.TMIProtect
	// SheriffDetect and SheriffProtect model Sheriff's threads-as-processes
	// design (no code-centric consistency).
	SheriffDetect  = core.SheriffDetect
	SheriffProtect = core.SheriffProtect
	// LASER detects like TMI and repairs with a TSO-preserving software
	// store buffer.
	LASER = core.LASER
	// Plastic models the EuroSys'13 system: whole-program dynamic binary
	// instrumentation plus byte-granularity remapping of contended lines.
	Plastic = core.Plastic
)

// systems lists every system in declaration order.
var systems = []System{Pthreads, TMIAlloc, TMIDetect, TMIProtect, SheriffDetect, SheriffProtect, LASER, Plastic}

// ParseSystem returns the system whose String is name.
func ParseSystem(name string) (System, error) {
	names := make([]string, len(systems))
	for i, s := range systems {
		if s.String() == name {
			return s, nil
		}
		names[i] = s.String()
	}
	return 0, fmt.Errorf("unknown system %q (one of %s)", name, strings.Join(names, ", "))
}

// Config controls a run. The zero value runs the pthreads baseline with the
// paper's defaults (period 100, 4 KiB pages, CCC on, 100k events/s repair
// threshold).
type Config struct {
	System System
	// Threads overrides the workload's default thread count when > 0.
	Threads int
	// Period is the perf sampling period (default 100).
	Period int
	// HugePages backs shared memory with 2 MiB pages (§4.4).
	HugePages bool
	// PTSBEverywhere arms the whole heap at first repair (§4.3 ablation).
	PTSBEverywhere bool
	// RepairBackend selects the repair strategy for TMIProtect runs: ""
	// or "t2p" (the paper's thread-to-process conversion + PTSB), "pad"
	// (allocator re-segregation onto private lines), "map" (thread-and-
	// data mapping toward the hot page's home node), or "tmebox"
	// (fork-free keyed in-process isolation).
	RepairBackend string
	// Sockets splits the simulated cores across that many sockets with a
	// home-node directory and remote-socket latency penalties. 0 or 1
	// keeps the flat single-socket machine (byte-identical defaults).
	Sockets int
	// ThresholdPerSec overrides the detector's repair threshold.
	ThresholdPerSec float64
	// Seed fixes determinism (default 1).
	Seed int64
	// AdaptivePeriod lets the detection thread retune the sampling period
	// each interval (extension; see Figure 4 for the static tradeoff).
	AdaptivePeriod bool
	// TeardownIdleIntervals un-repairs pages whose commits merge nothing
	// for that many consecutive detection intervals (extension; 0 = off).
	TeardownIdleIntervals int
	// Trace records structured runtime events into Report.Tracer.
	Trace bool
	// CaptureSamples records the detector's accepted sample stream and
	// window boundaries into Report.SampleLog — a replayable HITM trace
	// (the input format of cmd/tmiload and tmidetect -advice).
	CaptureSamples bool
}

// Report is the outcome of one run. See the field documentation in
// internal/core; the aliases here are the public stable surface.
type Report = core.Report

// ErrIncompatible reports a system that cannot run a workload (Sheriff on
// most of the suite).
type ErrIncompatible = core.ErrIncompatible

// Run executes w under cfg.
func Run(w workload.Workload, cfg Config) (*Report, error) {
	c := core.Config{
		Setup:                 cfg.System,
		Threads:               cfg.Threads,
		Period:                cfg.Period,
		HugePages:             cfg.HugePages,
		PTSBEverywhere:        cfg.PTSBEverywhere,
		RepairBackend:         cfg.RepairBackend,
		Sockets:               cfg.Sockets,
		ThresholdPerSec:       cfg.ThresholdPerSec,
		Seed:                  cfg.Seed,
		AdaptivePeriod:        cfg.AdaptivePeriod,
		TeardownIdleIntervals: cfg.TeardownIdleIntervals,
		Trace:                 cfg.Trace,
		CaptureSamples:        cfg.CaptureSamples,
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return core.Run(w, c)
}

// Speedup returns base.SimSeconds / other.SimSeconds: how much faster other
// ran than base.
func Speedup(base, other *Report) float64 {
	if other.SimSeconds <= 0 {
		return 0
	}
	return base.SimSeconds / other.SimSeconds
}
