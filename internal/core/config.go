// Package core wires the substrates into runnable systems: the pthreads
// baseline, TMI's three modes (alloc / detect / protect), Sheriff's
// threads-as-processes design and LASER's software-store-buffer repair, all
// running the same workloads on the same simulated machine. It is the
// engine behind the public tmi package and every experiment in the paper's
// evaluation.
package core

import (
	"fmt"

	"repro/internal/sim/machine"
	"repro/tmi/workload"
)

// Setup selects which system runs the workload.
type Setup int

// Systems under evaluation.
const (
	// Pthreads is the baseline: Lockless-style allocator, native threads,
	// no monitoring.
	Pthreads Setup = iota
	// TMIAlloc redirects allocations to TMI's process-shared memory and
	// replaces synchronization with process-shared objects, nothing else.
	TMIAlloc
	// TMIDetect adds HITM monitoring and the detection thread.
	TMIDetect
	// TMIProtect is full TMI: detection plus online repair.
	TMIProtect
	// SheriffDetect models Sheriff's detection tool: threads run as
	// processes from startup with all of memory page-protected.
	SheriffDetect
	// SheriffProtect is Sheriff's repair tool (same execution model).
	SheriffProtect
	// LASER detects like TMI but repairs with an instrumented software
	// store buffer, preserving TSO.
	LASER
	// Plastic models the EuroSys'13 system: dynamic binary instrumentation
	// over the whole program plus byte-granularity remapping of contended
	// lines (custom OS/hypervisor support assumed present).
	Plastic
)

// String names the setup as it appears in the paper's figures.
func (s Setup) String() string {
	switch s {
	case Pthreads:
		return "pthreads"
	case TMIAlloc:
		return "tmi-alloc"
	case TMIDetect:
		return "tmi-detect"
	case TMIProtect:
		return "tmi-protect"
	case SheriffDetect:
		return "sheriff-detect"
	case SheriffProtect:
		return "sheriff-protect"
	case LASER:
		return "laser"
	case Plastic:
		return "plastic"
	}
	return fmt.Sprintf("setup(%d)", int(s))
}

// IsTMI reports whether the setup uses TMI's shared-memory environment.
func (s Setup) IsTMI() bool { return s == TMIAlloc || s == TMIDetect || s == TMIProtect }

// IsSheriff reports whether the setup uses Sheriff's execution model.
func (s Setup) IsSheriff() bool { return s == SheriffDetect || s == SheriffProtect }

// Monitors reports whether the setup samples HITM events.
func (s Setup) Monitors() bool {
	return s == TMIDetect || s == TMIProtect || s == LASER || s == Plastic
}

// Config configures a run.
type Config struct {
	Setup Setup
	// Threads overrides the workload's default thread count when > 0.
	Threads int
	// Period is the perf sampling period (default 100, the paper's
	// operating point).
	Period int
	// HugePages backs TMI's shared memory with 2 MiB pages.
	HugePages bool
	// PTSBEverywhere arms the whole heap at first repair (§4.3 ablation).
	PTSBEverywhere bool
	// RepairBackend selects the repair strategy for TMIProtect runs: ""
	// or "t2p" (the paper's T2P+PTSB mechanism), "pad" (allocator
	// re-segregation), "map" (thread-and-data mapping), or "tmebox"
	// (fork-free keyed isolation). See internal/repair.
	RepairBackend string
	// Sockets splits the cores across that many sockets with a home-node
	// directory and remote-socket latency penalties (cache.Topology). 0 or
	// 1 keeps the flat single-socket machine, byte-identical to the
	// pre-topology model.
	Sockets int
	// ThresholdPerSec overrides the detector repair threshold (default
	// 100k estimated HITM events/s per line).
	ThresholdPerSec float64
	// Seed fixes the run's determinism.
	Seed int64
	// CacheLines bounds each core's private cache (FIFO eviction); 0 keeps
	// the default unlimited model, which contention behavior does not
	// depend on.
	CacheLines int
	// AdaptivePeriod lets the detection thread retune the sampling period
	// each interval to hold the record rate inside a target band — an
	// extension automating Figure 4's accuracy/overhead tradeoff. Period
	// stays within [1, 1000]; estimates remain unbiased because counts
	// always scale by the period in force.
	AdaptivePeriod bool
	// TeardownIdleIntervals, when > 0, un-repairs a protected page after
	// that many consecutive detection intervals in which its commits merged
	// no bytes — the reverse direction of compatible-by-default (extension;
	// 0 disables, the paper's behavior).
	TeardownIdleIntervals int
	// Trace records structured runtime events (sync, regions, faults,
	// commits, repair) into Report.Tracer.
	Trace bool
	// CaptureSamples records the detector's accepted sample stream and
	// window boundaries into Report.SampleLog — a replayable HITM trace for
	// tmid load testing and offline/online advice-parity checks. Only
	// meaningful for monitoring setups.
	CaptureSamples bool
	// ForceProtect arms the PTSB over every heap and globals page at
	// startup (threads converted to processes immediately), without
	// enabling detection. Only meaningful for TMI setups; the model
	// checker uses it with TMIAlloc to exercise page twinning under CCC
	// with no timers in the schedule space.
	ForceProtect bool
	// Scheduler, when non-nil, replaces the machine's min-clock policy
	// with an external strategy consulted at every instruction boundary
	// (machine.Scheduler). The model checker's control half.
	Scheduler machine.Scheduler
	// Observer, when non-nil, taps the run's visible-event stream (see
	// hooks.go). The model checker's observation half.
	Observer Observer
	// PostRun, when non-nil, runs after the workload finishes (whether or
	// not it validated) with setup-style memory access — how the model
	// checker fingerprints final states.
	PostRun func(env workload.Env)
}

func (c Config) withDefaults() Config {
	if c.Period <= 0 {
		c.Period = 100
	}
	if c.ThresholdPerSec <= 0 {
		c.ThresholdPerSec = 100_000
	}
	return c
}

// detectInterval is the detection-thread analysis period in simulated
// seconds. The paper analyzes once per second over minute-long runs; this
// reproduction compresses workloads ~500x (tens of milliseconds), so the
// interval compresses identically and all events-per-second rates and
// thresholds carry over unchanged.
const detectInterval = 0.0001

// SheriffMaxFootprintMB is the largest workload footprint Sheriff's
// protect-all-of-memory design handles; beyond it (and with custom
// synchronization) Sheriff is incompatible, as the paper observes for most
// of the suite.
const SheriffMaxFootprintMB = 100

// ErrIncompatible reports that a system cannot run a workload at all.
type ErrIncompatible struct {
	System   string
	Workload string
	Reason   string
}

func (e *ErrIncompatible) Error() string {
	return fmt.Sprintf("%s is incompatible with %s: %s", e.System, e.Workload, e.Reason)
}
