// Package analysis is the static-analysis layer of the reproduction: the
// compile-time half of TMI that the paper delegates to an LLVM pass (§3.4).
//
// It runs a workload once on the simulator itself (core.Run under
// tmi-alloc or pthreads, a deterministic round-robin schedule, no detector
// or repair) and records a static model of the program: for every
// instruction site, the loads, stores and atomics (with memory orders)
// executed through it; for every heap and globals cache line, the
// per-thread byte footprint. See build.go.
//
// Three consumers sit on top of the model:
//
//   - Verify checks the code-centric-consistency annotation contract
//     against the Table 2 policy (internal/ccc): every atomic site must be
//     region-bracketed, asm regions must balance, orders must classify
//     uniquely. A missing annotation silently reproduces the Sheriff-style
//     consistency bugs of Figures 3/11/12, so tmilint gates the catalog on
//     zero findings.
//   - PredictLines/CompareFalseSharing is the static false-sharing layout
//     predictor: it classifies lines exactly as the dynamic PEBS/HITM
//     detector (internal/detect) would — two or more threads, at least one
//     writer, disjoint bytes — and reports precision/recall against a
//     dynamic run.
//   - Suggest solves, from the model's trace, for a small repair set
//     (atomic annotations, ordering upgrades, fence insertions) that removes
//     the workload's data races and critical-cycle delays. See suggest.go.
//
// Verify is the annotation contract's only checker: core brackets every
// application atomic and fence with region callbacks itself, so a workload
// can break the contract only through the sites its model run reaches.
package analysis

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/disasm"
	"repro/tmi/workload"
)

// EnvKind selects the modeled runtime environment. The environment decides
// allocator placement policy and lock-word indirection, both of which change
// which lines are falsely shared (lu-ncb's bug exists only under the
// baseline allocator; spinlockpool's lock line stops being written at all
// under TMI's indirection).
type EnvKind int

// Environments.
const (
	// EnvTMI models TMI's runtime: cache-line alignment for large
	// allocations and process-shared lock indirection. Matches the
	// tmi-detect system, which is what predictions are validated against.
	EnvTMI EnvKind = iota
	// EnvPthreads models the baseline: Lockless allocator policy and
	// in-place lock words.
	EnvPthreads
)

func (e EnvKind) String() string {
	if e == EnvPthreads {
		return "pthreads"
	}
	return "tmi"
}

// Options configures a model build.
type Options struct {
	// Threads overrides the workload's default thread count when > 0.
	Threads int
	// Seed is the simulator seed: it drives the per-thread deterministic
	// random sources, so access footprints match a dynamic run with the
	// same seed.
	Seed int64
	// Env selects the modeled runtime environment (default EnvTMI).
	Env EnvKind
	// Trace records the whole-program event trace into Model.Trace (one
	// entry per byte-addressed access, fence and wake edge, in global
	// interleaving order). The suggest pass consumes it to build the event
	// graph; off by default because traces are large.
	Trace bool
}

func (o Options) withDefaults(info workload.Info) Options {
	if o.Threads <= 0 {
		o.Threads = info.Threads
	}
	if o.Threads <= 0 {
		o.Threads = 1
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// SiteModel is the static per-PC classification of one instruction site —
// the analogue of one row of the LLVM pass's output.
type SiteModel struct {
	Info disasm.SiteInfo
	// Unknown marks a PC that does not disassemble to a registered site
	// (a hand-built workload.Site that bypassed Env.Site).
	Unknown bool

	// Executed access counts, split by how the program reached the site.
	PlainLoads  uint64
	PlainStores uint64
	AtomicOps   uint64
	// AtomicInAsm counts atomic operations executed inside an assembly
	// region (Table 2 case 4/5 context).
	AtomicInAsm uint64

	// Orders histograms the memory orders of the atomic operations; a site
	// executed under both relaxed and strong orders cannot be classified
	// into a single Table 2 region class.
	Orders map[workload.MemOrder]uint64

	// StreamOps/StreamBytes aggregate bulk streaming through the site.
	StreamOps   uint64
	StreamBytes int64

	// Threads counts operations per executing thread.
	Threads map[int]uint64
}

// Accesses is the total number of byte-addressed operations executed
// through the site.
func (sm *SiteModel) Accesses() uint64 {
	return sm.PlainLoads + sm.PlainStores + sm.AtomicOps
}

// Foot is one thread's byte footprint on one cache line.
type Foot struct {
	ReadMask  uint64 // bit i set: byte i of the line was read
	WriteMask uint64 // bit i set: byte i of the line was written
	Reads     uint64
	Writes    uint64
}

// LineModel is the static per-line access model over all threads.
type LineModel struct {
	Line      uint64
	PerThread map[int]*Foot
}

// TraceOp classifies one abstract event.
type TraceOp int

// Trace event kinds.
const (
	// OpPlain is a plain (non-atomic) load or store.
	OpPlain TraceOp = iota
	// OpAtomic is an application atomic with an explicit memory order.
	OpAtomic
	// OpRuntime is a runtime-library (psync) access; the runtime
	// synchronizes with full acquire+release semantics and commits the
	// PTSB, so OpRuntime events are both sync edges and flush points.
	OpRuntime
	// OpFence is a standalone fence; Addr/Width are zero.
	OpFence
	// OpWake is a scheduler-level happens-before edge (barrier release,
	// cond signal): the clock of TID flows into thread Other.
	OpWake
)

// TraceEvent is one event of the whole-program abstract trace, in global
// interleaving order. The deterministic round-robin scheduler makes the
// trace reproducible for fixed Options.
type TraceEvent struct {
	TID   int
	PC    uint64
	Site  string
	Addr  uint64
	Width int
	Read  bool
	Write bool
	Op    TraceOp
	Order workload.MemOrder
	// Other is the woken thread for OpWake events.
	Other int
	// Asm marks an access executed inside an assembly region; such accesses
	// synchronize with full acquire+release semantics (TSO-style AMBSA).
	Asm bool
}

// Acquires reports whether the event carries acquire semantics.
func (e *TraceEvent) Acquires() bool {
	return e.Op == OpRuntime || e.Asm || (e.Op != OpPlain && e.Order.Acquires())
}

// Releases reports whether the event carries release semantics.
func (e *TraceEvent) Releases() bool {
	return e.Op == OpRuntime || e.Asm || (e.Op != OpPlain && e.Order.Releases())
}

// Flushes reports whether the event commits the PTSB under code-centric
// consistency (runtime sync, non-relaxed atomics, non-relaxed fences).
func (e *TraceEvent) Flushes() bool {
	switch e.Op {
	case OpRuntime:
		return true
	case OpAtomic, OpFence:
		return e.Order != workload.Relaxed
	}
	return false
}

// Model is the static program model BuildModel produces.
type Model struct {
	Workload string
	Info     workload.Info
	Threads  int
	Seed     int64
	Env      EnvKind

	// Sites maps PC to its static classification; the whole registered
	// site table is present, executed or not.
	Sites map[uint64]*SiteModel
	// Lines maps line-aligned heap/globals addresses to their footprints.
	Lines map[uint64]*LineModel

	// AsmEnters counts assembly-region entries (explicit EnterAsm plus the
	// implicit region of AsmAtomicSwap).
	AsmEnters uint64
	// FenceOps counts executed non-relaxed standalone fences.
	FenceOps uint64

	// Findings holds run-time findings (unbalanced regions, deadlock,
	// fault, hang, lock misuse, op-budget exhaustion, validation failure).
	// Verify folds them in with the site-table findings.
	Findings []Finding

	// Hung/Aborted record abnormal run endings (Aborted: deadlock or the
	// op budget).
	Hung    bool
	Aborted bool

	// Notes carries Env.Note values the workload reported.
	Notes map[string]float64
	// Ops counts workload.Thread calls across all threads.
	Ops int64

	// Trace is the abstract event trace (only with Options.Trace).
	Trace []TraceEvent
}

// BuildModel runs w once on the simulator under the model's round-robin
// schedule and returns its static model. The run is deterministic for
// fixed Options.
func BuildModel(w workload.Workload, opt Options) (*Model, error) {
	info := w.Info()
	opt = opt.withDefaults(info)
	b := &builder{
		Workload: w,
		opt:      opt,
		model: &Model{
			Workload: w.Name(),
			Info:     info,
			Threads:  opt.Threads,
			Seed:     opt.Seed,
			Env:      opt.Env,
			Sites:    make(map[uint64]*SiteModel),
			Lines:    make(map[uint64]*LineModel),
		},
		threads: make([]*thread, opt.Threads),
	}
	setup := core.TMIAlloc
	if opt.Env == EnvPthreads {
		setup = core.Pthreads
	}
	rep, err := core.Run(b, core.Config{
		Setup: setup, Threads: opt.Threads, Seed: opt.Seed, Scheduler: b, Observer: b,
	})
	if err != nil {
		return nil, fmt.Errorf("analysis: %w", err)
	}
	m := b.model
	m.Notes = rep.Notes
	if b.unwound && !b.aborted {
		b.finding("deadlock", "every live thread is blocked (lost wakeup, lock cycle or barrier party mismatch)")
	}
	m.Aborted = b.aborted || b.unwound
	if !m.Aborted && !rep.Hung && !rep.Validated {
		b.finding("validate", "validation failed under the model's schedule: "+rep.ValidationErr)
	}
	// Fold the full site table in, so never-executed sites are modeled too;
	// a PC outside it keeps a placeholder and is marked Unknown.
	names := make(map[uint64]string, len(rep.Sites))
	for _, si := range rep.Sites {
		pc := si.Site.PC()
		names[pc] = si.Name
		if sm, ok := m.Sites[pc]; ok {
			sm.Info = si
		} else {
			m.Sites[pc] = newSiteModel(si)
		}
	}
	for pc, sm := range m.Sites {
		if _, ok := names[pc]; !ok {
			sm.Info = disasm.SiteInfo{Name: fmt.Sprintf("pc:0x%x", pc), Kind: disasm.KindOther}
			sm.Unknown = true
		}
	}
	for i := range m.Trace {
		if ev := &m.Trace[i]; ev.Site == "" && ev.PC != 0 {
			ev.Site = names[ev.PC]
		}
	}
	return m, nil
}

func newSiteModel(si disasm.SiteInfo) *SiteModel {
	return &SiteModel{
		Info:    si,
		Orders:  make(map[workload.MemOrder]uint64),
		Threads: make(map[int]uint64),
	}
}
