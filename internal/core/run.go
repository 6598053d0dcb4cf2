package core

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/alloc"
	"repro/internal/ccc"
	"repro/internal/detect"
	"repro/internal/disasm"
	"repro/internal/psync"
	"repro/internal/ptsb"
	"repro/internal/repair"
	"repro/internal/sim/cache"
	"repro/internal/sim/machine"
	"repro/internal/sim/mem"
	"repro/internal/sim/osim"
	"repro/internal/sim/pebs"
	"repro/internal/sim/trace"
	"repro/tmi/workload"
)

// LibBase/StackBase are synthetic regions for address-map filtering; the
// heap, globals and TMI state regions are laid out by internal/alloc.
const (
	LibBase   uint64 = 0x7f00_0000_0000
	StackBase uint64 = 0x7ff0_0000_0000
)

// LASER's software store buffer changes the cost of accesses to repaired
// lines: a buffered store costs a fixed instrumentation overhead plus a
// fraction of the native coherence latency (the buffer absorbs most but not
// all of the line's round trips — flushes at TSO boundaries keep some); a
// load pays an instrumentation check. Better than a HITM miss, far worse
// than a private L1 hit — which is why LASER captures only a fraction of
// the manual speedup and can even slow lightly-contended code down.
const (
	LaserStoreFixed   = 55
	LaserStoreLatFrac = 0.3
	LaserLoadOverhead = 15
)

// Plastic's cost model: dynamic binary instrumentation taxes every memory
// access a few cycles program-wide (the paper reports ~6% overhead without
// contention), and its byte-granularity remapping makes repaired-line
// accesses hit a translation layer — cheaper than a HITM round trip, far
// costlier than a private hit, capturing roughly a third of the manual
// benefit where its repair activates.
const (
	PlasticDBIOverhead = 3  // cycles per memory access, program-wide
	PlasticRemapCost   = 90 // net cost of an access to a remapped line
)

// BulkFaultCompression corrects one-time costs for the reproduction's
// compressed timescale: workload runs are ~500x shorter than the paper's
// minute-long executions, so one-time page-fault costs over multi-GB inputs
// (paid once per page regardless of run length) are divided by this factor
// to keep their share of the runtime proportionate. Per-access costs need
// no correction.
const BulkFaultCompression = 64

// runtime holds one run's wiring.
type runtime struct {
	cfg     Config
	info    workload.Info
	threads int

	memory     *mem.Memory
	osys       *osim.OS
	app        *osim.Process
	sharedView *mem.AddrSpace
	al         *alloc.Allocator
	prog       *disasm.Program
	psyncMgr   *psync.Manager
	mc         *machine.Machine
	ptsbE      *ptsb.Engine
	cccCtl     *ccc.Controller
	repairE    *repair.Engine
	// backend is the repair strategy servicing detector requests; the
	// default is repairE itself (the t2p backend). backendCost is non-nil
	// only when the backend imposes a per-access cost after engaging.
	backend     repair.Backend
	backendCost repair.AccessCoster
	sampler     *pebs.Sampler
	det         *detect.Detector
	maps        *osim.AddressMap

	laserEnabled   bool
	laserRepaired  bool
	laserLines     map[uint64]bool
	plasticLines   map[uint64]bool
	plasticEngaged bool

	// teardown extension state: per protected page, the merged-byte count
	// at the last tick and how many ticks it has been unchanged.
	pageIdle map[uint64]*idleState

	notes     map[string]float64
	hangs     map[int]string
	events    []string
	tracer    *trace.Recorder
	sampleLog *trace.SampleLog
	// accScratch holds one AccessInfo per thread, reused for every observer
	// OnAccess dispatch (the observer must not retain the pointer). sites
	// is the observer's copy of the site table, taken after Setup. Both
	// are set only when an Observer is.
	accScratch []AccessInfo
	sites      []disasm.SiteInfo

	timeline    []IntervalSample
	lastHITM    uint64
	lastRecords uint64
}

// logEvent appends a timestamped lifecycle event (Figure 5 trace).
func (rt *runtime) logEvent(now int64, format string, args ...any) {
	if len(rt.events) >= 512 {
		return
	}
	msg := fmt.Sprintf(format, args...)
	rt.events = append(rt.events, fmt.Sprintf("t=%8.3fms  %s", float64(now)/cache.ClockHz*1e3, msg))
}

// Run executes w under cfg and reports the results.
func Run(w workload.Workload, cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	info := w.Info()
	threads := info.Threads
	if cfg.Threads > 0 {
		threads = cfg.Threads
	}
	if threads < 1 {
		return nil, fmt.Errorf("core: workload %s declares no threads", w.Name())
	}

	if cfg.Setup.IsSheriff() {
		if reason := sheriffIncompatibility(info); reason != "" {
			return nil, &ErrIncompatible{System: cfg.Setup.String(), Workload: w.Name(), Reason: reason}
		}
	}

	rt, err := build(w, cfg, info, threads)
	if err != nil {
		return nil, err
	}
	return rt.execute(w)
}

// sheriffIncompatibility reproduces Sheriff's documented compatibility
// envelope: its protect-everything, processes-always design fails on large
// footprints and on custom flag-based synchronization.
func sheriffIncompatibility(info workload.Info) string {
	if info.FootprintMB > SheriffMaxFootprintMB {
		return fmt.Sprintf("footprint %d MB exceeds protect-all-of-memory capacity", info.FootprintMB)
	}
	if info.UsesCustomSync {
		return "custom flag-based synchronization never commits under the PTSB"
	}
	return ""
}

func build(w workload.Workload, cfg Config, info workload.Info, threads int) (*runtime, error) {
	pageSize := mem.PageSize4K
	backing := alloc.BackingAnon
	policy := alloc.LocklessPolicy()
	if cfg.Setup != Pthreads {
		backing = alloc.BackingSharedFile
		policy = alloc.TMIPolicy()
		if cfg.HugePages {
			pageSize = mem.PageSize2M
			backing = alloc.BackingSharedHuge
		}
	}

	rt := &runtime{
		cfg: cfg, info: info, threads: threads,
		notes: make(map[string]float64), hangs: make(map[int]string),
		laserLines:   make(map[uint64]bool),
		plasticLines: make(map[uint64]bool),
	}
	rt.memory = mem.NewMemory(pageSize)
	rt.osys = osim.New(rt.memory)
	rt.app = rt.osys.NewProcess()
	rt.sharedView = mem.NewAddrSpace(rt.memory)

	heapFile := rt.osys.ShmOpen("appheap")
	rt.al = alloc.New(policy, backing, heapFile, pageSize)
	rt.al.AddSpace(rt.app.Space)
	rt.al.AddSpace(rt.sharedView)

	rt.prog = disasm.NewProgram()
	// Lock indirection (pshared objects) is part of TMI's and Sheriff's
	// runtime environments; LASER and Plastic leave pthread words in place.
	indirect := cfg.Setup.IsTMI() || cfg.Setup.IsSheriff()
	rt.psyncMgr = psync.NewManager(rt.prog, rt.sharedView, rt.al, indirect, psync.Hooks{
		OnSync: rt.onSync,
	})

	cacheS := cache.New(threads)
	if cfg.Sockets > 1 {
		if err := cacheS.SetTopology(cache.Topology{Sockets: cfg.Sockets}); err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
	}
	rt.mc = machine.New(machine.Config{Cores: threads, Seed: cfg.Seed, Mem: rt.memory, Cache: cacheS})
	for _, th := range rt.mc.Threads() {
		th.SetSpace(rt.app.Space)
		rt.app.Threads = append(rt.app.Threads, th)
	}

	rt.ptsbE = ptsb.NewEngine(rt.memory, rt.sharedView)
	rt.cccCtl = ccc.NewController(cfg.Setup.IsTMI(), rt.sharedView, rt.ptsbE)
	rt.repairE = repair.New(rt.osys, rt.app, rt.mc, rt.ptsbE)
	rt.repairE.Everywhere = cfg.PTSBEverywhere
	rt.repairE.HeapPages = rt.heapPages
	// Strategy selection: repairE (t2p) stays the engine behind Sheriff
	// and ForceProtect regardless; rt.backend is what detector requests
	// are dispatched to.
	switch cfg.RepairBackend {
	case "", repair.BackendT2P:
		rt.backend = rt.repairE
	case repair.BackendPad:
		rt.backend = repair.NewPad(rt.mc, rt.sharedView, rt.al)
	case repair.BackendMap:
		rt.backend = repair.NewMapping(rt.mc, rt.sharedView)
	case repair.BackendTMEBox:
		rt.backend = repair.NewTMEBox(rt.app, rt.mc, rt.ptsbE)
	default:
		return nil, repair.ErrUnknownBackend(cfg.RepairBackend)
	}
	if c, ok := rt.backend.(repair.AccessCoster); ok {
		rt.backendCost = c
	}

	if cfg.Setup.Monitors() {
		rt.sampler = pebs.NewSampler(threads, cfg.Period, cfg.Seed)
	}

	if cfg.Trace {
		rt.tracer = trace.NewRecorder(1 << 16)
	}
	// The layers are wired in a fixed order (see hooks.go).
	hooks := machine.Hooks{
		SpaceFor:    rt.cccCtl.SpaceFor,
		OnFault:     rt.onFault,
		PostAccess:  rt.postAccess,
		RegionEnter: rt.regionEnter,
		RegionExit:  rt.regionExit,
		OnFirstTouch: func(t *machine.Thread, tr mem.Translation) int64 {
			if tr.Page == nil { // bulk-region fault: one-time cost, compressed
				return backing.FaultCost() / BulkFaultCompression
			}
			return backing.FaultCost()
		},
	}
	if cfg.Observer != nil {
		rt.accScratch = make([]AccessInfo, threads)
		hooks.OnValue = rt.onValue
		hooks.OnWake = rt.onWake
	}
	rt.mc.SetHooks(hooks)
	if cfg.Scheduler != nil {
		rt.mc.SetScheduler(cfg.Scheduler)
	}

	// Workload setup runs before any simulated time passes.
	env := &runEnv{rt: rt}
	if err := w.Setup(env); err != nil {
		return nil, fmt.Errorf("core: setup of %s: %w", w.Name(), err)
	}
	if cfg.Observer != nil {
		rt.sites = rt.prog.Sites() // Setup has registered the workload's sites
	}

	rt.buildAddressMap()

	if cfg.Setup.Monitors() {
		rt.det = detect.New(detect.Config{
			ThresholdPerSec: cfg.ThresholdPerSec,
			MinRecords:      detect.DefaultConfig().MinRecords,
		}, rt.sampler, rt.prog, rt.maps, rt.memory.PageTable(), pageSize)
		rt.det.History = detect.NewHistory()
		if cfg.CaptureSamples {
			rt.sampleLog = &trace.SampleLog{PageSize: pageSize}
			rt.det.SetTap(rt.sampleLog)
		}
		interval := int64(detectInterval * cache.ClockHz)
		rt.mc.AddTimer(interval, interval, rt.detectTick)
	}
	rt.laserEnabled = cfg.Setup == LASER && !info.SyncHeavy

	// Sheriff runs processes from startup with the PTSB over all of memory.
	// ForceProtect does the same while keeping the TMI environment (CCC on,
	// no monitors under TMIAlloc): how the model checker exercises page
	// twinning deterministically.
	if cfg.Setup.IsSheriff() || cfg.ForceProtect && cfg.Setup.IsTMI() {
		if err := rt.repairE.ConvertAllNow(0); err != nil {
			return nil, fmt.Errorf("core: %s convert: %w", cfg.Setup, err)
		}
		for _, p := range rt.heapPages() {
			if err := rt.ptsbE.Protect(p, rt.repairE.Spaces()); err != nil {
				return nil, fmt.Errorf("core: %s protect: %w", cfg.Setup, err)
			}
		}
	}
	return rt, nil
}

// heapPages enumerates the mapped application heap and globals pages (the
// regions Sheriff protects wholesale and the teardown scanner walks).
func (rt *runtime) heapPages() []uint64 {
	var out []uint64
	ps := uint64(rt.memory.PageSize())
	for p := alloc.HeapBase; p < rt.al.HeapEnd(); p += ps {
		out = append(out, p)
	}
	for p := alloc.GlobalsBase; p < rt.al.GlobalsEnd(); p += ps {
		out = append(out, p)
	}
	return out
}

func (rt *runtime) buildAddressMap() {
	var am osim.AddressMap
	am.AddRegion(disasm.CodeBase, rt.prog.TextEnd()+4096, osim.RegionCode, "text")
	am.AddRegion(alloc.HeapBase, rt.al.HeapEnd(), osim.RegionHeap, "heap")
	if rt.al.GlobalsEnd() > alloc.GlobalsBase {
		am.AddRegion(alloc.GlobalsBase, rt.al.GlobalsEnd(), osim.RegionGlobals, "globals")
	}
	if rt.al.BulkBytes > 0 {
		am.AddRegion(alloc.BulkBase, alloc.BulkBase+rt.al.BulkBytes, osim.RegionHeap, "heap-bulk")
	}
	am.AddRegion(alloc.StateBase, alloc.StateBase+alloc.StateSize, osim.RegionLib, "tmi-state")
	am.AddRegion(LibBase, LibBase+(64<<20), osim.RegionLib, "libc")
	am.AddRegion(StackBase, StackBase+uint64(rt.threads)*(8<<20), osim.RegionStack, "stacks")
	rt.maps = &am
}

// layout renders the Figure 6-style shared-memory organization.
func (rt *runtime) layout() []string {
	ps := rt.memory.PageSize()
	out := []string{
		fmt.Sprintf("code     0x%08x-0x%08x           synthetic text, %d sites",
			disasm.CodeBase, rt.prog.TextEnd(), rt.prog.NumSites()),
		fmt.Sprintf("heap     0x%08x-0x%08x  %4d pages shared memory file (always-shared view: RW)",
			alloc.HeapBase, rt.al.HeapEnd(), rt.al.HeapPages()),
	}
	if n := rt.ptsbE.ProtectedPages(); n > 0 {
		out = append(out, fmt.Sprintf("         %d page(s) remapped per process: PRIVATE R (copy-on-write, PTSB-armed)", n))
	}
	if rt.al.BulkBytes > 0 {
		out = append(out, fmt.Sprintf("bulk     0x%09x +%d MB               streamed input data (never byte-addressed)",
			alloc.BulkBase, rt.al.BulkBytes>>20))
	}
	out = append(out, fmt.Sprintf("tmistate 0x%08x-0x%08x  always SHARED RW: %d padded sync objects (pshared mutexes etc.)",
		alloc.StateBase, alloc.StateBase+alloc.StateSize, rt.psyncMgr.Objects()))
	out = append(out, fmt.Sprintf("pagesize %d bytes; processes: %d converted", ps, len(rt.repairE.Spaces())))
	return out
}

func (rt *runtime) onFault(t *machine.Thread, acc *machine.Access, f *mem.Fault) (bool, int64) {
	if f.Kind == mem.FaultProtWrite {
		handled, cost := rt.ptsbE.HandleWriteFault(t, acc.Addr)
		if handled && rt.tracer != nil {
			rt.tracer.Record(t.Clock(), t.ID, trace.KindTwinFault, acc.Addr&^uint64(rt.memory.PageSize()-1))
		}
		return handled, cost
	}
	return false, 0
}

func (rt *runtime) postAccess(t *machine.Thread, acc *machine.Access, res cache.Result) int64 {
	var extra int64
	if res.HITM && rt.sampler != nil {
		extra += rt.sampler.OnHITM(t.ID, t.Core, acc.PC, acc.Addr, acc.Size, acc.Write, t.Clock())
	}
	if rt.backendCost != nil {
		extra += rt.backendCost.AccessCost(t)
	}
	if rt.laserRepaired {
		line := acc.Addr &^ uint64(cache.LineSize-1)
		if rt.laserLines[line] {
			if acc.Write {
				extra += LaserStoreFixed + int64(LaserStoreLatFrac*float64(res.Latency)) - res.Latency
			} else {
				extra += LaserLoadOverhead
			}
		}
	}
	if rt.cfg.Setup == Plastic {
		extra += PlasticDBIOverhead
		if rt.plasticEngaged && rt.plasticLines[acc.Addr&^uint64(cache.LineSize-1)] && res.Latency > PlasticRemapCost {
			extra += PlasticRemapCost - res.Latency
		}
	}
	return extra
}

type idleState struct {
	lastMerged uint64
	idleTicks  int
}

// maybeTeardown un-repairs pages whose commits have stopped merging bytes
// for the configured number of consecutive intervals.
func (rt *runtime) maybeTeardown(now int64) {
	if rt.pageIdle == nil {
		rt.pageIdle = make(map[uint64]*idleState)
	}
	for _, page := range rt.heapPages() {
		if !rt.ptsbE.Protected(page) {
			delete(rt.pageIdle, page)
			continue
		}
		act := rt.ptsbE.Activity(page)
		st := rt.pageIdle[page]
		if st == nil {
			st = &idleState{lastMerged: act.BytesMerged}
			rt.pageIdle[page] = st
			continue
		}
		if act.BytesMerged == st.lastMerged {
			st.idleTicks++
		} else {
			st.idleTicks = 0
			st.lastMerged = act.BytesMerged
		}
		if st.idleTicks >= rt.cfg.TeardownIdleIntervals {
			if err := rt.ptsbE.Unprotect(page, rt.backend.Spaces()); err == nil {
				if rt.tracer != nil {
					rt.tracer.Record(now, -1, trace.KindTeardown, page)
				}
				rt.logEvent(now, "teardown: page 0x%x idle for %d intervals, repair removed", page, st.idleTicks)
				rt.notes["teardown.pages"]++
				delete(rt.pageIdle, page)
			}
		}
	}
}

func (rt *runtime) adaptPeriod(windowRecords uint64) {
	p := rt.sampler.Period()
	next := detect.DefaultPeriodController().Next(p, windowRecords)
	if next == p {
		return
	}
	rt.sampler.SetPeriod(next)
	rt.notes["adaptive.period"] = float64(next)
}

func (rt *runtime) detectTick(now int64) {
	recordsBefore := rt.det.TotalRecords
	req := rt.det.Tick(detectInterval)
	if rt.cfg.AdaptivePeriod {
		rt.adaptPeriod(rt.det.TotalRecords - recordsBefore)
	}
	if rt.cfg.TeardownIdleIntervals > 0 && rt.backend.Converted() {
		rt.maybeTeardown(now)
	}
	defer rt.sampleInterval(now)
	if rt.tracer != nil {
		rt.tracer.Record(now, -1, trace.KindDetectTick, rt.det.TotalRecords-recordsBefore)
	}
	if req == nil {
		return
	}
	rt.logEvent(now, "detector: false sharing on %d line(s), repair requested for %d page(s)",
		len(req.Lines), len(req.Pages))
	if rt.tracer != nil {
		for _, p := range req.Pages {
			rt.tracer.Record(now, -1, trace.KindRepair, p)
		}
	}
	switch rt.cfg.Setup {
	case TMIProtect:
		wasConverted := rt.backend.Converted()
		before := rt.ptsbE.ProtectedPages()
		bstBefore := rt.backend.BackendStats()
		if err := rt.backend.Arm(req, now); err != nil {
			// Satellite: a failed repair is a stat and an event, not a
			// crashed simulation — the workload keeps running unrepaired.
			rt.notes["repair.failed"]++
			rt.logEvent(now, "repair(%s): failed: %v", rt.backend.Name(), err)
		}
		if !wasConverted && rt.backend.Converted() {
			switch rt.backend.Name() {
			case repair.BackendT2P:
				rt.logEvent(now, "PM: stop-the-world; %d thread(s) converted to processes (T2P %v us)",
					len(rt.repairE.Spaces()), formatMicros(rt.repairE.T2PMicros()))
			case repair.BackendTMEBox:
				rt.logEvent(now, "tmebox: %d isolation domain(s) keyed in-process (no fork)",
					len(rt.backend.Spaces()))
			case repair.BackendPad:
				rt.logEvent(now, "pad: allocator switched to line-segregated placement")
			}
		}
		bst := rt.backend.BackendStats()
		if d := bst.LinesIsolated - bstBefore.LinesIsolated; d > 0 {
			rt.logEvent(now, "pad: %d line(s) re-segregated onto private lines", d)
		}
		if d := bst.ThreadsMigrated - bstBefore.ThreadsMigrated; d > 0 {
			rt.logEvent(now, "map: %d thread(s) migrated toward the hot page's home node", d)
		}
		if n := rt.ptsbE.ProtectedPages() - before; n > 0 {
			rt.logEvent(now, "PTSB armed on %d page(s): %s", n, pageList(req.Pages))
		}
	case LASER:
		if rt.laserEnabled {
			for _, l := range req.Lines {
				rt.laserLines[l.Line] = true
			}
			rt.laserRepaired = true
			rt.logEvent(now, "LASER: software store buffer engaged for %d line(s)", len(req.Lines))
		}
	case Plastic:
		for _, l := range req.Lines {
			rt.plasticLines[l.Line] = true
		}
		rt.plasticEngaged = true
		rt.logEvent(now, "Plastic: byte-granularity remapping engaged for %d line(s)", len(req.Lines))
	}
}

func formatMicros(us []float64) []int {
	out := make([]int, len(us))
	for i, v := range us {
		out[i] = int(v)
	}
	return out
}

func pageList(pages []uint64) string {
	var parts []string
	for i, p := range pages {
		if i == 4 {
			parts = append(parts, "...")
			break
		}
		parts = append(parts, fmt.Sprintf("0x%x", p))
	}
	return strings.Join(parts, " ")
}

// sampleInterval appends one timeline point (called from every detection
// tick, before any early return on an empty request).
func (rt *runtime) sampleInterval(now int64) {
	if len(rt.timeline) >= 4096 {
		return
	}
	hitm := rt.mc.Cache().Stats().HITM
	recs := uint64(0)
	if rt.det != nil {
		recs = rt.det.TotalRecords
	}
	rt.timeline = append(rt.timeline, IntervalSample{
		AtSec:          float64(now) / cache.ClockHz,
		HITMPerSec:     float64(hitm-rt.lastHITM) / detectInterval,
		RecordsInTick:  recs - rt.lastRecords,
		PagesProtected: rt.ptsbE.ProtectedPages(),
	})
	rt.lastHITM = hitm
	rt.lastRecords = recs
}

func (rt *runtime) execute(w workload.Workload) (*Report, error) {
	bodies := make([]func(*machine.Thread), rt.threads)
	for i := 0; i < rt.threads; i++ {
		bodies[i] = func(mt *machine.Thread) {
			th := &runThread{rt: rt, mt: mt}
			defer func() {
				if r := recover(); r != nil {
					if _, ok := r.(hangSentinel); ok {
						return
					}
					panic(r)
				}
			}()
			w.Body(th)
		}
	}
	runErr := rt.mc.Run(bodies)
	if runErr != nil {
		// A hang in one thread commonly deadlocks the rest at a barrier;
		// report it as a hang rather than failing the experiment.
		if len(rt.hangs) > 0 || strings.Contains(runErr.Error(), "deadlock") {
			if len(rt.hangs) == 0 {
				rt.hangs[-1] = runErr.Error()
			}
			runErr = nil
		} else {
			return nil, runErr
		}
	}

	rep := &Report{
		Workload:   w.Name(),
		System:     rt.cfg.Setup.String(),
		SimSeconds: rt.mc.ElapsedSeconds(),
		Notes:      rt.notes,
		Cache:      rt.mc.Cache().Stats(),
	}
	rep.HITMEvents = rep.Cache.HITM
	if rt.sampler != nil {
		rep.Dropped = rt.sampler.Dropped()
	}
	if rt.det != nil {
		rep.RecordsSeen = rt.det.TotalRecords
		h := rt.det.History
		rep.TrueLines = len(h.TrueLines)
		rep.FalseLines = len(h.FalseLines)
		rep.TrueRecords = h.TrueRecords
		rep.FalseRecords = h.FalseRecords
		rep.SpanDrops = h.DroppedSpans
		for _, lr := range h.Lines {
			rep.Lines = append(rep.Lines, lr)
		}
		sort.Slice(rep.Lines, func(i, j int) bool { return rep.Lines[i].Line < rep.Lines[j].Line })
		rep.PredictedManualSpeedup = h.PredictManualSpeedup(rt.sampler.Period(), rt.mc.Elapsed(), rt.threads)
		rep.LineSizePredictions = h.PredictLineSizes()
	}
	rep.Sites = rt.prog.Sites()
	rep.Layout = rt.layout()
	rep.Events = rt.events
	rep.Timeline = rt.timeline
	rep.Tracer = rt.tracer
	rep.SampleLog = rt.sampleLog
	bst := rt.backend.BackendStats()
	rep.RepairBackend = bst.Backend
	rep.BackendActivity = bst
	rep.Repaired = bst.RepairEvents > 0 || rt.laserRepaired || rt.plasticEngaged || rt.cfg.Setup.IsSheriff()
	rep.RepairAtSec = float64(bst.ConvertedAtCycle) / cache.ClockHz
	rep.T2PMicros = rt.repairE.T2PMicros()
	rep.PagesProtected = bst.PagesProtected
	rep.Commits = rt.ptsbE.Stats.Commits
	rep.TwinFaults = rt.ptsbE.Stats.TwinFaults
	rep.BytesMerged = rt.ptsbE.Stats.BytesMerged
	rep.CCCFlushes = rt.cccCtl.Stats.Flushes
	if rep.Commits > 0 {
		window := rep.SimSeconds - rep.RepairAtSec
		if window > 0 {
			rep.CommitsPerSec = float64(rep.Commits) / window
		}
	}

	rep.MemBytes = rt.memory.AccountedBytes()
	if rt.sampler != nil {
		rep.MemBytes += rt.sampler.FootprintBytes()
	}
	if rt.det != nil {
		rep.MemBytes += rt.det.FootprintBytes()
	}

	if rt.cfg.PostRun != nil {
		rt.cfg.PostRun(&runEnv{rt: rt})
	}
	if len(rt.hangs) > 0 {
		rep.Hung = true
		for _, reason := range rt.hangs {
			rep.HangReason = reason
			break
		}
		rep.Validated = false
		rep.ValidationErr = "hung: " + rep.HangReason
		return rep, nil
	}
	env := &runEnv{rt: rt}
	if err := w.Validate(env); err != nil {
		rep.Validated = false
		rep.ValidationErr = err.Error()
	} else {
		rep.Validated = true
	}
	return rep, nil
}
