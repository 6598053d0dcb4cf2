package analysis

// The abstract interpreter: runs a workload's Setup/Body/Validate against
// real simulated memory (internal/sim/mem) and the real allocator
// (internal/alloc), with a deterministic cooperative scheduler in place of
// the timed machine. Threads hand a single execution token round-robin —
// exactly one thread runs at a time, yielding every yieldEvery operations
// and at every blocking synchronization point — so shared Go state inside
// workload bodies (leveldb's tree) stays data-race free and footprints are
// reproducible. Allocation order, lock/rwlock word sizes, lock indirection
// and the per-thread random-seed derivation mirror internal/core, and the
// heap, globals and TMI state region come from the allocator core uses, so
// the byte footprints the model records line up with a dynamic run of the
// same seed.

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"

	"repro/internal/alloc"
	"repro/internal/disasm"
	"repro/internal/sim/mem"
	"repro/tmi/workload"
)

const (
	lineSize = 64
	// yieldEvery bounds how many operations a thread runs between token
	// handoffs; small enough to interleave footprints, large enough to
	// keep channel traffic cheap.
	yieldEvery = 64
	// maxFindings caps interpretation-time findings per model.
	maxFindings = 256
	// maxStreamFootprint bounds how large a heap/globals stream still gets
	// per-line footprints; larger sweeps only update site statistics.
	maxStreamFootprint = 1 << 20
)

// hangSentinel unwinds one thread's body (fault, Hang); abortSentinel
// unwinds after a whole-interpretation abort (deadlock, op budget).
type (
	hangSentinel  struct{}
	abortSentinel struct{}
)

type threadState int

const (
	stReady threadState = iota
	stBlocked
	stDone
)

type interp struct {
	w     workload.Workload
	opt   Options
	model *Model

	memory *mem.Memory
	space  *mem.AddrSpace
	al     *alloc.Allocator
	prog   *disasm.Program

	// indirect mirrors psync.Manager.Indirect: lock words hold a pointer
	// into the always-shared state region.
	indirect bool

	// Monitorable bounds, snapshotted after Setup (the detector monitors
	// heap and globals only).
	heapEnd, globalsEnd uint64

	threads []*ithread
	doneCh  chan struct{}
	aborted bool

	// Runtime-library sites, registered in the same order psync.NewManager
	// registers them so PC assignments match a dynamic run.
	sitePtr, siteCAS, siteSpin, siteRel, siteBar disasm.Site
	siteRd, siteWr                               disasm.Site
	rwRegistered                                 bool
}

type ithread struct {
	in         *interp
	id         int
	rng        *rand.Rand
	runCh      chan struct{}
	state      threadState
	sinceYield int
	asmDepth   int
}

func newInterp(w workload.Workload, info workload.Info, opt Options) *interp {
	policy := alloc.TMIPolicy()
	backing := alloc.BackingSharedFile
	indirect := true
	if opt.Env == EnvPthreads {
		policy = alloc.LocklessPolicy()
		backing = alloc.BackingAnon
		indirect = false
	}
	in := &interp{
		w:   w,
		opt: opt,
		model: &Model{
			Workload: w.Name(),
			Info:     info,
			Threads:  opt.Threads,
			Seed:     opt.Seed,
			Env:      opt.Env,
			Sites:    make(map[uint64]*SiteModel),
			Lines:    make(map[uint64]*LineModel),
			Notes:    make(map[string]float64),
		},
		indirect: indirect,
		doneCh:   make(chan struct{}),
	}
	in.memory = mem.NewMemory(mem.PageSize4K)
	in.space = mem.NewAddrSpace(in.memory)
	heapFile := in.memory.NewFile("appheap")
	in.al = alloc.New(policy, backing, heapFile, mem.PageSize4K)
	in.al.AddSpace(in.space)

	in.prog = disasm.NewProgram()
	in.sitePtr = in.prog.RuntimeSite("psync.lockword.deref", disasm.KindLoad, 8)
	in.siteCAS = in.prog.RuntimeSite("psync.mutex.cas", disasm.KindAtomic, 8)
	in.siteSpin = in.prog.RuntimeSite("psync.mutex.spinload", disasm.KindLoad, 8)
	in.siteRel = in.prog.RuntimeSite("psync.mutex.release", disasm.KindAtomic, 8)
	in.siteBar = in.prog.RuntimeSite("psync.barrier.arrive", disasm.KindAtomic, 8)

	for i := 0; i < opt.Threads; i++ {
		in.threads = append(in.threads, &ithread{
			in:    in,
			id:    i,
			rng:   rand.New(rand.NewSource(opt.Seed*7919 + int64(i) + 1)),
			runCh: make(chan struct{}),
		})
	}
	return in
}

func (in *interp) snapshotBounds() {
	in.heapEnd = in.al.HeapEnd()
	in.globalsEnd = in.al.GlobalsEnd()
}

func (in *interp) finding(rule, site string, pc uint64, detail string) {
	if len(in.model.Findings) >= maxFindings {
		return
	}
	in.model.Findings = append(in.model.Findings, Finding{
		Workload: in.model.Workload, Rule: rule, Site: site, PC: pc, Detail: detail,
	})
}

// ---- scheduler ----

// run executes Body on every thread under the token-passing scheduler and
// returns when all threads are done (or the interpretation aborted).
func (in *interp) run() {
	if len(in.threads) == 0 {
		return
	}
	var wg sync.WaitGroup
	for _, t := range in.threads {
		t := t
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-t.runCh
			in.runBody(t)
			in.finishThread(t)
		}()
	}
	in.threads[0].runCh <- struct{}{}
	<-in.doneCh
	wg.Wait()
	in.model.Aborted = in.aborted
}

func (in *interp) runBody(t *ithread) {
	defer func() {
		switch r := recover(); r.(type) {
		case nil, hangSentinel, abortSentinel:
		default:
			panic(r)
		}
	}()
	in.w.Body(t)
}

func (in *interp) finishThread(t *ithread) {
	if t.asmDepth > 0 && !in.aborted {
		in.finding("unbalanced-region", "", 0, fmt.Sprintf(
			"thread %d ended inside %d unclosed asm region(s): EnterAsm without matching ExitAsm",
			t.id, t.asmDepth))
	}
	t.state = stDone
	in.yield(t)
}

// yield hands the token to the next runnable thread. If no thread is ready
// but some are blocked, every live thread is deadlocked: record a finding,
// force the blocked threads runnable and unwind them with abortSentinel so
// the interpretation drains instead of hanging the process.
func (in *interp) yield(t *ithread) {
	next := in.nextReady(t.id)
	if next == nil && in.anyBlocked() {
		if !in.aborted {
			in.aborted = true
			in.finding("deadlock", "", 0,
				"every live thread is blocked (lost wakeup, lock cycle or barrier party mismatch)")
		}
		for _, th := range in.threads {
			if th.state == stBlocked {
				th.state = stReady
			}
		}
		if t.state != stDone {
			panic(abortSentinel{})
		}
		next = in.nextReady(t.id)
	}
	if next == nil {
		in.closeDone()
		return
	}
	if next == t {
		return
	}
	wasDone := t.state == stDone
	next.runCh <- struct{}{}
	if wasDone {
		return
	}
	<-t.runCh
	if in.aborted && t.state != stDone {
		panic(abortSentinel{})
	}
}

func (in *interp) nextReady(after int) *ithread {
	n := len(in.threads)
	for i := 1; i <= n; i++ {
		th := in.threads[(after+i)%n]
		if th.state == stReady {
			return th
		}
	}
	return nil
}

func (in *interp) anyBlocked() bool {
	for _, th := range in.threads {
		if th.state == stBlocked {
			return true
		}
	}
	return false
}

func (in *interp) closeDone() {
	select {
	case <-in.doneCh:
	default:
		close(in.doneCh)
	}
}

// op charges one interpreted operation: budget check plus periodic yield.
func (t *ithread) op() {
	in := t.in
	if in.aborted {
		panic(abortSentinel{})
	}
	in.model.Ops++
	if in.model.Ops > in.opt.MaxOps {
		in.aborted = true
		in.finding("interp-budget", "", 0, fmt.Sprintf(
			"interpretation exceeded %d operations; the workload likely livelocks without timing",
			in.opt.MaxOps))
		panic(abortSentinel{})
	}
	t.sinceYield++
	if t.sinceYield >= yieldEvery {
		t.sinceYield = 0
		in.yield(t)
	}
}

// block parks the thread until another thread marks it stReady again.
func (t *ithread) block() {
	t.state = stBlocked
	t.in.yield(t)
}

// ---- memory ----

func (in *interp) monitorable(addr uint64) bool {
	return (addr >= alloc.HeapBase && addr < in.heapEnd) ||
		(addr >= alloc.GlobalsBase && addr < in.globalsEnd)
}

func (in *interp) storeDirect(addr uint64, size int, v uint64) {
	tr, fault := in.space.Translate(addr, true)
	if fault != nil {
		panic(fmt.Sprintf("analysis: setup store fault at 0x%x: %v", addr, fault))
	}
	mem.StoreUint(tr, size, v)
}

func (t *ithread) read(addr uint64, size int) uint64 {
	tr, fault := t.in.space.Translate(addr, false)
	if fault != nil {
		t.fault(addr, fault)
	}
	return mem.LoadUint(tr, size)
}

func (t *ithread) write(addr uint64, size int, v uint64) {
	tr, fault := t.in.space.Translate(addr, true)
	if fault != nil {
		t.fault(addr, fault)
	}
	mem.StoreUint(tr, size, v)
}

func (t *ithread) fault(addr uint64, fault *mem.Fault) {
	t.in.finding("fault", "", 0, fmt.Sprintf(
		"thread %d faulted at 0x%x (%v); abandoning the thread", t.id, addr, fault))
	panic(hangSentinel{})
}

// ---- recording ----

func (in *interp) siteModel(pc uint64) *SiteModel {
	sm := in.model.Sites[pc]
	if sm == nil {
		si, ok := in.prog.Disassemble(pc)
		if !ok {
			si = disasm.SiteInfo{Name: fmt.Sprintf("pc:0x%x", pc), Kind: disasm.KindOther}
		}
		sm = newSiteModel(si)
		sm.Unknown = !ok
		in.model.Sites[pc] = sm
	}
	return sm
}

func (in *interp) recordLine(tid int, addr uint64, size int, read, write bool) {
	if !in.monitorable(addr) {
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
		lm := in.model.Lines[line]
		if lm == nil {
			lm = &LineModel{Line: line, PerThread: make(map[int]*Foot)}
			in.model.Lines[line] = lm
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

func (t *ithread) recordPlain(s workload.Site, addr uint64, write bool) {
	sm := t.in.siteModel(s.PC)
	if write {
		sm.PlainStores++
	} else {
		sm.PlainLoads++
	}
	sm.Threads[t.id]++
	t.in.recordLine(t.id, addr, s.Width, !write, write)
}

func (t *ithread) recordAtomic(s workload.Site, addr uint64, order workload.MemOrder) {
	sm := t.in.siteModel(s.PC)
	sm.AtomicOps++
	sm.Orders[order]++
	sm.Threads[t.id]++
	if t.asmDepth > 0 {
		sm.AtomicInAsm++
	}
	// A locked RMW is both a load and a store of its operand.
	t.in.recordLine(t.id, addr, s.Width, true, true)
}

// recordRuntime records an access through a psync-mirror site.
func (t *ithread) recordRuntime(s disasm.Site, addr uint64) {
	si, _ := t.in.prog.Disassemble(s.PC())
	sm := t.in.siteModel(s.PC())
	sm.Threads[t.id]++
	switch si.Kind {
	case disasm.KindAtomic:
		sm.AtomicOps++
		sm.Orders[workload.SeqCst]++
		t.in.recordLine(t.id, addr, si.Width, true, true)
		t.trace(TraceEvent{PC: s.PC(), Addr: addr, Width: si.Width, Read: true, Write: true, Op: OpRuntime, Order: workload.SeqCst})
	case disasm.KindStore:
		sm.PlainStores++
		t.in.recordLine(t.id, addr, si.Width, false, true)
		t.trace(TraceEvent{PC: s.PC(), Addr: addr, Width: si.Width, Write: true, Op: OpRuntime, Order: workload.SeqCst})
	default:
		sm.PlainLoads++
		t.in.recordLine(t.id, addr, si.Width, true, false)
		t.trace(TraceEvent{PC: s.PC(), Addr: addr, Width: si.Width, Read: true, Op: OpRuntime, Order: workload.SeqCst})
	}
}

// trace appends one event to the abstract trace (Options.Trace only),
// stamping the thread and the site name.
func (t *ithread) trace(ev TraceEvent) {
	in := t.in
	if !in.opt.Trace {
		return
	}
	ev.TID = t.id
	if t.asmDepth > 0 && ev.Op != OpWake {
		ev.Asm = true
	}
	if ev.Site == "" && ev.PC != 0 {
		if si, ok := in.prog.Disassemble(ev.PC); ok {
			ev.Site = si.Name
		}
	}
	in.model.Trace = append(in.model.Trace, ev)
}

// ---- workload.Thread ----

func (t *ithread) ID() int         { return t.id }
func (t *ithread) NumThreads() int { return len(t.in.threads) }

func (t *ithread) Load(s workload.Site, addr uint64) uint64 {
	t.op()
	v := t.read(addr, s.Width)
	t.recordPlain(s, addr, false)
	t.trace(TraceEvent{PC: s.PC, Addr: addr, Width: s.Width, Read: true, Op: OpPlain})
	return v
}

func (t *ithread) Store(s workload.Site, addr uint64, v uint64) {
	t.op()
	t.write(addr, s.Width, v)
	t.recordPlain(s, addr, true)
	t.trace(TraceEvent{PC: s.PC, Addr: addr, Width: s.Width, Write: true, Op: OpPlain})
}

func (t *ithread) AtomicAdd(s workload.Site, addr uint64, delta uint64, order workload.MemOrder) uint64 {
	t.op()
	old := t.read(addr, s.Width)
	t.write(addr, s.Width, old+delta)
	t.recordAtomic(s, addr, order)
	t.trace(TraceEvent{PC: s.PC, Addr: addr, Width: s.Width, Read: true, Write: true, Op: OpAtomic, Order: order})
	return old
}

func (t *ithread) AtomicCAS(s workload.Site, addr uint64, old, new uint64, order workload.MemOrder) bool {
	t.op()
	cur := t.read(addr, s.Width)
	ok := cur == old
	if ok {
		t.write(addr, s.Width, new)
	}
	t.recordAtomic(s, addr, order)
	t.trace(TraceEvent{PC: s.PC, Addr: addr, Width: s.Width, Read: true, Write: true, Op: OpAtomic, Order: order})
	return ok
}

func (t *ithread) AtomicLoad(s workload.Site, addr uint64, order workload.MemOrder) uint64 {
	t.op()
	v := t.read(addr, s.Width)
	t.recordAtomic(s, addr, order)
	t.trace(TraceEvent{PC: s.PC, Addr: addr, Width: s.Width, Read: true, Op: OpAtomic, Order: order})
	return v
}

func (t *ithread) AtomicStore(s workload.Site, addr uint64, v uint64, order workload.MemOrder) {
	t.op()
	t.write(addr, s.Width, v)
	t.recordAtomic(s, addr, order)
	t.trace(TraceEvent{PC: s.PC, Addr: addr, Width: s.Width, Write: true, Op: OpAtomic, Order: order})
}

func (t *ithread) Fence(order workload.MemOrder) {
	t.op()
	if order == workload.Relaxed {
		return
	}
	t.in.model.FenceOps++
	t.trace(TraceEvent{Op: OpFence, Order: order})
}

func (t *ithread) EnterAsm() {
	t.op()
	t.asmDepth++
	t.in.model.AsmEnters++
}

func (t *ithread) ExitAsm() {
	t.op()
	if t.asmDepth == 0 {
		t.in.finding("unbalanced-region", "", 0, fmt.Sprintf(
			"thread %d called ExitAsm with no matching EnterAsm", t.id))
		return
	}
	t.asmDepth--
}

func (t *ithread) AsmAtomicSwap(sa, sb workload.Site, addrA, addrB uint64) {
	t.op()
	// The swap executes inside an implicit asm region (Table 2 case 4/5
	// context for the two atomic accesses).
	t.asmDepth++
	t.in.model.AsmEnters++
	va := t.read(addrA, sa.Width)
	vb := t.read(addrB, sb.Width)
	t.write(addrA, sa.Width, vb)
	t.write(addrB, sb.Width, va)
	t.recordAtomic(sa, addrA, workload.SeqCst)
	t.recordAtomic(sb, addrB, workload.SeqCst)
	t.trace(TraceEvent{PC: sa.PC, Addr: addrA, Width: sa.Width, Read: true, Write: true, Op: OpAtomic, Order: workload.SeqCst})
	t.trace(TraceEvent{PC: sb.PC, Addr: addrB, Width: sb.Width, Read: true, Write: true, Op: OpAtomic, Order: workload.SeqCst})
	t.asmDepth--
}

func (t *ithread) Work(cycles int64) { t.op() }

func (t *ithread) Stream(s workload.Site, base uint64, n int64, write bool) {
	t.op()
	sm := t.in.siteModel(s.PC)
	sm.StreamOps++
	sm.StreamBytes += n
	sm.Threads[t.id]++
	// Bulk streams are not byte-addressed and not monitorable; a stream
	// over heap or globals leaves a coarse whole-line footprint.
	if n <= 0 || n > maxStreamFootprint || !t.in.monitorable(base) {
		return
	}
	for line := base &^ uint64(lineSize-1); line < base+uint64(n); line += lineSize {
		t.in.recordLine(t.id, line, lineSize, !write, write)
	}
}

func (t *ithread) Rand() *rand.Rand { return t.rng }

func (t *ithread) Hang(reason string) {
	t.in.finding("hang", "", 0, fmt.Sprintf("thread %d hung: %s", t.id, reason))
	t.in.model.Hung = true
	panic(hangSentinel{})
}

// ---- synchronization objects ----

type imutex struct {
	workload.MutexBase
	name    string
	appAddr uint64
	objAddr uint64
	owner   *ithread
}

type ibarrier struct {
	workload.BarrierBase
	name    string
	objAddr uint64
	parties int
	arrived int
	waiting []*ithread
}

type icond struct {
	workload.CondBase
	name    string
	waiting []*ithread
}

type irwmutex struct {
	workload.RWMutexBase
	name    string
	appAddr uint64
	objAddr uint64
	readers int
	writer  *ithread
}

// lockTarget mirrors psync's target(): under indirection the lock word is
// dereferenced (a recorded runtime load) and the RMW lands on the shared
// object; otherwise the RMW lands on the application word itself.
func (t *ithread) lockTarget(appAddr, objAddr uint64) uint64 {
	if t.in.indirect {
		t.recordRuntime(t.in.sitePtr, appAddr)
		return objAddr
	}
	return appAddr
}

func (t *ithread) Lock(m workload.Mutex) {
	t.op()
	mu := m.(*imutex)
	addr := t.lockTarget(mu.appAddr, mu.objAddr)
	for mu.owner != nil {
		t.block()
	}
	mu.owner = t
	t.recordRuntime(t.in.siteCAS, addr)
}

func (t *ithread) Unlock(m workload.Mutex) {
	t.op()
	mu := m.(*imutex)
	if mu.owner != t {
		t.in.finding("lock-misuse", "", 0, fmt.Sprintf(
			"thread %d unlocked mutex %q it does not hold", t.id, mu.name))
		return
	}
	addr := t.lockTarget(mu.appAddr, mu.objAddr)
	mu.owner = nil
	t.recordRuntime(t.in.siteRel, addr)
	t.wakeBlocked()
}

// wakeBlocked marks every blocked thread runnable. Lock/rwlock/barrier
// predicates are re-checked by their wait loops, so over-waking is safe and
// keeps the wakeup bookkeeping simple and lost-wakeup free.
func (t *ithread) wakeBlocked() {
	for _, th := range t.in.threads {
		if th.state == stBlocked {
			th.state = stReady
		}
	}
}

func (t *ithread) RLock(m workload.RWMutex) {
	t.op()
	rw := m.(*irwmutex)
	addr := t.lockTarget(rw.appAddr, rw.objAddr)
	for rw.writer != nil {
		t.block()
	}
	rw.readers++
	t.recordRuntime(t.in.rwSiteRd(), addr)
}

func (t *ithread) RUnlock(m workload.RWMutex) {
	t.op()
	rw := m.(*irwmutex)
	if rw.readers <= 0 {
		t.in.finding("lock-misuse", "", 0, fmt.Sprintf(
			"thread %d released read hold on %q without one", t.id, rw.name))
		return
	}
	addr := t.lockTarget(rw.appAddr, rw.objAddr)
	rw.readers--
	t.recordRuntime(t.in.rwSiteRd(), addr)
	if rw.readers == 0 {
		t.wakeBlocked()
	}
}

func (t *ithread) WLock(m workload.RWMutex) {
	t.op()
	rw := m.(*irwmutex)
	addr := t.lockTarget(rw.appAddr, rw.objAddr)
	for rw.writer != nil || rw.readers > 0 {
		t.block()
	}
	rw.writer = t
	t.recordRuntime(t.in.rwSiteWr(), addr)
}

func (t *ithread) WUnlock(m workload.RWMutex) {
	t.op()
	rw := m.(*irwmutex)
	if rw.writer != t {
		t.in.finding("lock-misuse", "", 0, fmt.Sprintf(
			"thread %d released write hold on %q it does not hold", t.id, rw.name))
		return
	}
	addr := t.lockTarget(rw.appAddr, rw.objAddr)
	rw.writer = nil
	t.recordRuntime(t.in.rwSiteWr(), addr)
	t.wakeBlocked()
}

func (t *ithread) Wait(b workload.Barrier) {
	t.op()
	bb := b.(*ibarrier)
	t.recordRuntime(t.in.siteBar, bb.objAddr)
	bb.arrived++
	if bb.arrived >= bb.parties {
		bb.arrived = 0
		for _, w := range bb.waiting {
			w.state = stReady
			// Barrier release: the last arrival's clock (which has joined
			// every earlier arrival through the objAddr chain) flows into
			// each released waiter.
			t.trace(TraceEvent{Op: OpWake, Other: w.id})
		}
		bb.waiting = bb.waiting[:0]
		return
	}
	bb.waiting = append(bb.waiting, t)
	// Block until the last arrival resets the barrier; the wait loop keys
	// on membership, not a predicate, because generations must not mix.
	for contains(bb.waiting, t) {
		t.block()
	}
}

func contains(q []*ithread, t *ithread) bool {
	for _, th := range q {
		if th == t {
			return true
		}
	}
	return false
}

func (t *ithread) CondWait(c workload.Cond, m workload.Mutex) {
	t.op()
	cc := c.(*icond)
	cc.waiting = append(cc.waiting, t)
	t.Unlock(m)
	for contains(cc.waiting, t) {
		t.block()
	}
	t.Lock(m)
}

func (t *ithread) CondSignal(c workload.Cond) {
	t.op()
	cc := c.(*icond)
	if len(cc.waiting) == 0 {
		return
	}
	w := cc.waiting[0]
	cc.waiting = cc.waiting[1:]
	w.state = stReady
	t.trace(TraceEvent{Op: OpWake, Other: w.id})
}

func (t *ithread) CondBroadcast(c workload.Cond) {
	t.op()
	cc := c.(*icond)
	for _, w := range cc.waiting {
		w.state = stReady
		t.trace(TraceEvent{Op: OpWake, Other: w.id})
	}
	cc.waiting = cc.waiting[:0]
}

// rwSiteRd/rwSiteWr lazily register the rwlock sites, as psync does on the
// first NewRWMutex, to keep PC assignment order identical.
func (in *interp) rwSiteRd() disasm.Site { return in.siteRd }
func (in *interp) rwSiteWr() disasm.Site { return in.siteWr }

func (in *interp) registerRWSites() {
	if !in.rwRegistered {
		in.siteRd = in.prog.RuntimeSite("psync.rwlock.rdlock", disasm.KindAtomic, 8)
		in.siteWr = in.prog.RuntimeSite("psync.rwlock.wrlock", disasm.KindAtomic, 8)
		in.rwRegistered = true
	}
}

// ---- workload.Env ----

type ienv struct{ in *interp }

func (e *ienv) Threads() int  { return len(e.in.threads) }
func (e *ienv) PageSize() int { return mem.PageSize4K }

func (e *ienv) Alloc(n, align int) uint64 { return e.in.al.Alloc(n, align) }
func (e *ienv) AllocDefault(n int) uint64 { return e.in.al.AllocDefault(n) }
func (e *ienv) AllocBulk(n int64) uint64  { return e.in.al.AllocBulk(n) }
func (e *ienv) AllocGlobal(n, align int) uint64 {
	return e.in.al.AllocGlobal(n, align)
}
func (e *ienv) Free(addr uint64, n int) { e.in.al.Free(addr, n) }

func (e *ienv) Write(addr uint64, b []byte) {
	if err := e.in.space.WriteBytes(addr, b); err != nil {
		panic(fmt.Sprintf("analysis: env write at 0x%x: %v", addr, err))
	}
}

func (e *ienv) Read(addr uint64, n int) []byte {
	b, err := e.in.space.ReadBytes(addr, n)
	if err != nil {
		panic(fmt.Sprintf("analysis: env read at 0x%x: %v", addr, err))
	}
	return b
}

func (e *ienv) Store(addr uint64, size int, v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	e.Write(addr, b[:size])
}

func (e *ienv) Load(addr uint64, size int) uint64 {
	var b [8]byte
	copy(b[:], e.Read(addr, size))
	return binary.LittleEndian.Uint64(b[:])
}

func (e *ienv) Site(name string, kind workload.SiteKind, width int) workload.Site {
	var k disasm.Kind
	switch kind {
	case workload.SiteLoad:
		k = disasm.KindLoad
	case workload.SiteStore:
		k = disasm.KindStore
	default:
		k = disasm.KindAtomic
	}
	s := e.in.prog.Site(name, k, width)
	return workload.Site{PC: s.PC(), Kind: kind, Width: width}
}

func (e *ienv) NewMutex(name string) workload.Mutex {
	return e.NewMutexAt(name, e.in.al.Alloc(40, 8))
}

func (e *ienv) NewMutexAt(name string, appAddr uint64) workload.Mutex {
	in := e.in
	mu := &imutex{name: name, appAddr: appAddr}
	if in.indirect {
		mu.objAddr = in.al.AllocState(lineSize)
		in.storeDirect(appAddr, 8, mu.objAddr)
	}
	return mu
}

func (e *ienv) NewBarrier(name string, parties int) workload.Barrier {
	return &ibarrier{name: name, objAddr: e.in.al.AllocState(lineSize), parties: parties}
}

func (e *ienv) NewCond(name string) workload.Cond {
	return &icond{name: name}
}

func (e *ienv) NewRWMutex(name string) workload.RWMutex {
	in := e.in
	appAddr := in.al.Alloc(56, 8)
	in.registerRWSites()
	rw := &irwmutex{name: name, appAddr: appAddr}
	if in.indirect {
		rw.objAddr = in.al.AllocState(lineSize)
		in.storeDirect(appAddr, 8, rw.objAddr)
	}
	return rw
}

func (e *ienv) Note(key string, v float64) { e.in.model.Notes[key] = v }
