package analysis

// Model construction: BuildModel runs the workload once on the simulator
// (core.Run) under a round-robin Scheduler and records what it executes.
// The workload's Body runs behind a recording workload.Thread that counts
// one op per call, keeps each site's and line's statistics and the trace,
// and forwards every call to core's thread; an Observer adds the runtime
// library's (psync's) own accesses and wake edges. Memory, allocation, lock
// words, site PCs and per-thread random seeds are therefore exactly those
// of a dynamic run of the same seed: there is only one executor.

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/alloc"
	"repro/internal/core"
	"repro/internal/disasm"
	"repro/internal/psync"
	"repro/internal/sim/machine"
	"repro/tmi/workload"
)

const (
	lineSize = 64
	// quantum is how many ops a thread runs before the scheduler moves on
	// to the next ready thread: small enough to interleave footprints.
	quantum = 64
	// maxOps bounds the ops of one model run across all threads; past it
	// the run aborts with a finding, so a livelocked workload cannot hang
	// the analysis.
	maxOps = 50_000_000
	// maxFindings caps run-time findings per model.
	maxFindings = 256
	// maxStreamFootprint bounds how large a heap/globals stream still gets
	// per-line footprints; larger sweeps only update site statistics.
	maxStreamFootprint = 1 << 20
)

// abandon unwinds every thread's body once the op budget is spent.
type abandon struct{}

// builder is the recording run of one workload. It is the workload core
// runs (its Body wraps the real one), the run's Scheduler and its Observer.
type builder struct {
	workload.Workload
	opt     Options
	model   *Model
	threads []*thread

	// cur is the thread the scheduler last picked; yield ends its quantum.
	cur   *machine.Thread
	yield bool

	aborted bool // the op budget was spent
	unwound bool // a body was unwound by the machine's abort (deadlock)
}

func (b *builder) finding(rule, detail string) {
	if len(b.model.Findings) < maxFindings {
		b.model.Findings = append(b.model.Findings, Finding{Workload: b.model.Workload, Rule: rule, Detail: detail})
	}
}

// Body runs the workload's body behind the recording thread.
func (b *builder) Body(inner workload.Thread) {
	t := &thread{b: b, inner: inner, id: inner.ID()}
	b.threads[t.id] = t
	defer t.finish()
	b.Workload.Body(t)
}

// ---- machine.Scheduler ----

// Pick keeps the current thread until its quantum ends or it blocks or
// finishes, then moves to the next ready thread in round-robin ID order.
func (b *builder) Pick(ready []*machine.Thread) *machine.Thread {
	if !b.yield && b.cur != nil && b.cur.State() == machine.Ready {
		return b.cur
	}
	b.yield = false
	next := ready[0]
	if b.cur != nil {
		for _, th := range ready {
			if th.ID > b.cur.ID {
				next = th
				break
			}
		}
	}
	b.cur = next
	return next
}

// ---- core.Observer ----

// OnAccess records the runtime library's accesses; the application's are
// recorded by the thread wrapper, which sees their sites and orders.
func (b *builder) OnAccess(a *core.AccessInfo) {
	if a.Runtime {
		b.threads[a.TID].recordRuntime(a)
	}
}

func (b *builder) OnRegion(int, machine.RegionKind, bool) {}
func (b *builder) OnSync(int)                             {}

func (b *builder) OnWake(waker, wakee int) {
	b.threads[waker].trace(TraceEvent{Op: OpWake, Other: wakee})
}

// ---- recording ----

func (b *builder) siteModel(pc uint64) *SiteModel {
	sm := b.model.Sites[pc]
	if sm == nil {
		sm = newSiteModel(disasm.SiteInfo{})
		b.model.Sites[pc] = sm
	}
	return sm
}

// monitorable reports whether addr is in the heap or globals, the regions
// the detector monitors. Globals sit below the heap and both below the
// state region, and nothing else is mapped between them, so an access in
// that span that did not fault touched globals or heap.
func monitorable(addr uint64) bool {
	return addr >= alloc.GlobalsBase && addr < alloc.StateBase
}

func (b *builder) recordLine(tid int, addr uint64, size int, read, write bool) {
	if !monitorable(addr) {
		return
	}
	for size > 0 {
		line := addr &^ uint64(lineSize-1)
		lo := int(addr - line)
		n := size
		if lo+n > lineSize {
			n = lineSize - lo
		}
		mask := (uint64(1)<<uint(n) - 1) << uint(lo)
		lm := b.model.Lines[line]
		if lm == nil {
			lm = &LineModel{Line: line, PerThread: make(map[int]*Foot)}
			b.model.Lines[line] = lm
		}
		f := lm.PerThread[tid]
		if f == nil {
			f = &Foot{}
			lm.PerThread[tid] = f
		}
		if read {
			f.ReadMask |= mask
			f.Reads++
		}
		if write {
			f.WriteMask |= mask
			f.Writes++
		}
		addr += uint64(n)
		size -= n
	}
}

// thread is the recording workload.Thread: one op per call, then the call
// forwarded to core's thread.
type thread struct {
	b          *builder
	inner      workload.Thread
	id         int
	sinceYield int
	asmDepth   int
	hung       bool
}

// op charges one operation: budget check plus, at the end of a quantum, a
// scheduling point (Work(0)) at which the scheduler moves on.
func (t *thread) op() {
	b := t.b
	if b.aborted {
		panic(abandon{})
	}
	b.model.Ops++
	if b.model.Ops > maxOps {
		b.aborted = true
		b.finding("interp-budget", fmt.Sprintf(
			"model run exceeded %d operations; the workload likely livelocks without timing", maxOps))
		panic(abandon{})
	}
	t.sinceYield++
	if t.sinceYield >= quantum {
		t.sinceYield = 0
		b.yield = true
		t.inner.Work(0)
	}
}

// finish runs as the body's deferred call and maps how it ended onto the
// model: a fault or a psync misuse panic becomes a finding and ends the
// thread; the machine's abort unwind (every live thread blocked) and core's
// hang unwind pass through.
func (t *thread) finish() {
	r := recover()
	switch v := r.(type) {
	case nil, abandon:
	case machine.UnhandledFault:
		t.b.finding("fault", fmt.Sprintf("thread %d: %s; abandoning the thread",
			t.id, strings.TrimPrefix(v.Error(), "machine: ")))
	case psync.Misuse:
		t.b.finding("lock-misuse", fmt.Sprintf("thread %d: %s", t.id, string(v)))
	default:
		if !t.hung {
			t.b.unwound = true
			panic(r)
		}
	}
	if t.asmDepth > 0 && !t.b.aborted {
		t.b.finding("unbalanced-region", fmt.Sprintf(
			"thread %d ended inside %d unclosed asm region(s): EnterAsm without matching ExitAsm",
			t.id, t.asmDepth))
	}
	if t.hung {
		panic(r)
	}
}

func (t *thread) recordPlain(s workload.Site, addr uint64, write bool) {
	sm := t.b.siteModel(s.PC)
	if write {
		sm.PlainStores++
	} else {
		sm.PlainLoads++
	}
	sm.Threads[t.id]++
	t.b.recordLine(t.id, addr, s.Width, !write, write)
}

func (t *thread) recordAtomic(s workload.Site, addr uint64, order workload.MemOrder) {
	sm := t.b.siteModel(s.PC)
	sm.AtomicOps++
	sm.Orders[order]++
	sm.Threads[t.id]++
	if t.asmDepth > 0 {
		sm.AtomicInAsm++
	}
	// A locked RMW is both a load and a store of its operand.
	t.b.recordLine(t.id, addr, s.Width, true, true)
}

// recordRuntime records one access of a runtime-library site.
func (t *thread) recordRuntime(a *core.AccessInfo) {
	sm := t.b.siteModel(a.PC)
	sm.Threads[t.id]++
	ev := TraceEvent{PC: a.PC, Site: a.Site, Addr: a.Addr, Width: a.Size, Op: OpRuntime, Order: workload.SeqCst}
	switch {
	case a.Atomic:
		sm.AtomicOps++
		sm.Orders[workload.SeqCst]++
		ev.Read, ev.Write = true, true
	case a.Write:
		sm.PlainStores++
		ev.Write = true
	default:
		sm.PlainLoads++
		ev.Read = true
	}
	t.b.recordLine(t.id, a.Addr, a.Size, ev.Read, ev.Write)
	t.trace(ev)
}

// trace appends one event to the trace (Options.Trace only), stamping the
// thread; BuildModel stamps site names once the run's site table is known.
func (t *thread) trace(ev TraceEvent) {
	if !t.b.opt.Trace {
		return
	}
	ev.TID = t.id
	if t.asmDepth > 0 && ev.Op != OpWake {
		ev.Asm = true
	}
	t.b.model.Trace = append(t.b.model.Trace, ev)
}

// ---- workload.Thread ----

func (t *thread) ID() int          { return t.id }
func (t *thread) NumThreads() int  { return t.inner.NumThreads() }
func (t *thread) Rand() *rand.Rand { return t.inner.Rand() }

func (t *thread) Load(s workload.Site, addr uint64) uint64 {
	t.op()
	v := t.inner.Load(s, addr)
	t.recordPlain(s, addr, false)
	t.trace(TraceEvent{PC: s.PC, Addr: addr, Width: s.Width, Read: true, Op: OpPlain})
	return v
}

func (t *thread) Store(s workload.Site, addr uint64, v uint64) {
	t.op()
	t.inner.Store(s, addr, v)
	t.recordPlain(s, addr, true)
	t.trace(TraceEvent{PC: s.PC, Addr: addr, Width: s.Width, Write: true, Op: OpPlain})
}

func (t *thread) AtomicAdd(s workload.Site, addr uint64, delta uint64, order workload.MemOrder) uint64 {
	t.op()
	old := t.inner.AtomicAdd(s, addr, delta, order)
	t.recordAtomic(s, addr, order)
	t.trace(TraceEvent{PC: s.PC, Addr: addr, Width: s.Width, Read: true, Write: true, Op: OpAtomic, Order: order})
	return old
}

func (t *thread) AtomicCAS(s workload.Site, addr uint64, old, new uint64, order workload.MemOrder) bool {
	t.op()
	ok := t.inner.AtomicCAS(s, addr, old, new, order)
	t.recordAtomic(s, addr, order)
	t.trace(TraceEvent{PC: s.PC, Addr: addr, Width: s.Width, Read: true, Write: true, Op: OpAtomic, Order: order})
	return ok
}

func (t *thread) AtomicLoad(s workload.Site, addr uint64, order workload.MemOrder) uint64 {
	t.op()
	v := t.inner.AtomicLoad(s, addr, order)
	t.recordAtomic(s, addr, order)
	t.trace(TraceEvent{PC: s.PC, Addr: addr, Width: s.Width, Read: true, Op: OpAtomic, Order: order})
	return v
}

func (t *thread) AtomicStore(s workload.Site, addr uint64, v uint64, order workload.MemOrder) {
	t.op()
	t.inner.AtomicStore(s, addr, v, order)
	t.recordAtomic(s, addr, order)
	t.trace(TraceEvent{PC: s.PC, Addr: addr, Width: s.Width, Write: true, Op: OpAtomic, Order: order})
}

func (t *thread) Fence(order workload.MemOrder) {
	t.op()
	if order == workload.Relaxed {
		return
	}
	t.inner.Fence(order)
	t.b.model.FenceOps++
	t.trace(TraceEvent{Op: OpFence, Order: order})
}

func (t *thread) EnterAsm() {
	t.op()
	t.asmDepth++
	t.b.model.AsmEnters++
	t.inner.EnterAsm()
}

func (t *thread) ExitAsm() {
	t.op()
	if t.asmDepth == 0 {
		t.b.finding("unbalanced-region", fmt.Sprintf(
			"thread %d called ExitAsm with no matching EnterAsm", t.id))
		return
	}
	t.asmDepth--
	t.inner.ExitAsm()
}

func (t *thread) AsmAtomicSwap(sa, sb workload.Site, addrA, addrB uint64) {
	t.op()
	// The swap executes inside an implicit asm region (Table 2 case 4/5
	// context for the two atomic accesses).
	t.asmDepth++
	t.b.model.AsmEnters++
	t.inner.AsmAtomicSwap(sa, sb, addrA, addrB)
	t.recordAtomic(sa, addrA, workload.SeqCst)
	t.recordAtomic(sb, addrB, workload.SeqCst)
	t.trace(TraceEvent{PC: sa.PC, Addr: addrA, Width: sa.Width, Read: true, Write: true, Op: OpAtomic, Order: workload.SeqCst})
	t.trace(TraceEvent{PC: sb.PC, Addr: addrB, Width: sb.Width, Read: true, Write: true, Op: OpAtomic, Order: workload.SeqCst})
	t.asmDepth--
}

func (t *thread) Lock(m workload.Mutex)         { t.op(); t.inner.Lock(m) }
func (t *thread) Unlock(m workload.Mutex)       { t.op(); t.inner.Unlock(m) }
func (t *thread) RLock(m workload.RWMutex)      { t.op(); t.inner.RLock(m) }
func (t *thread) RUnlock(m workload.RWMutex)    { t.op(); t.inner.RUnlock(m) }
func (t *thread) WLock(m workload.RWMutex)      { t.op(); t.inner.WLock(m) }
func (t *thread) WUnlock(m workload.RWMutex)    { t.op(); t.inner.WUnlock(m) }
func (t *thread) Wait(b workload.Barrier)       { t.op(); t.inner.Wait(b) }
func (t *thread) CondSignal(c workload.Cond)    { t.op(); t.inner.CondSignal(c) }
func (t *thread) CondBroadcast(c workload.Cond) { t.op(); t.inner.CondBroadcast(c) }
func (t *thread) Work(cycles int64)             { t.op(); t.inner.Work(cycles) }

func (t *thread) CondWait(c workload.Cond, m workload.Mutex) {
	t.op()
	t.inner.CondWait(c, m)
}

func (t *thread) Stream(s workload.Site, base uint64, n int64, write bool) {
	t.op()
	t.inner.Stream(s, base, n, write)
	sm := t.b.siteModel(s.PC)
	sm.StreamOps++
	sm.StreamBytes += n
	sm.Threads[t.id]++
	// Bulk streams are not byte-addressed and not monitorable; a stream
	// over heap or globals leaves a coarse whole-line footprint.
	if n <= 0 || n > maxStreamFootprint || !monitorable(base) {
		return
	}
	for line := base &^ uint64(lineSize-1); line < base+uint64(n); line += lineSize {
		t.b.recordLine(t.id, line, lineSize, !write, write)
	}
}

// Hang records the finding, then lets core abandon the thread.
func (t *thread) Hang(reason string) {
	t.b.finding("hang", fmt.Sprintf("thread %d hung: %s", t.id, reason))
	t.b.model.Hung = true
	t.hung = true
	t.inner.Hang(reason)
}
