// Package machine implements the simulated multicore: threads pinned to
// cores, a deterministic min-clock discrete-event scheduler, the instruction
// API that workload programs execute (loads, stores, atomics, streaming,
// compute), simulated-time timers, and the hook points the TMI runtime
// attaches to (fault handling, address-space selection, access sampling,
// consistency-region callbacks).
//
// Each simulated thread runs as a coroutine, but only one thread executes at
// a time, always the runnable thread with the smallest local clock, so every
// run is deterministic for a fixed seed: memory operations are globally
// ordered by simulated time, which is what makes the coherence simulation
// and the consistency experiments reproducible. A thread that loses the
// token switches straight to the next thread's coroutine; the driver loop
// in Run only fires timers, detects the end of the run and unwinds aborts.
package machine

import (
	"container/heap"
	"errors"
	"fmt"
	"iter"
	"math/rand"
	"sync/atomic"

	"repro/internal/sim/cache"
	"repro/internal/sim/mem"
)

// Config configures a Machine.
type Config struct {
	Cores int
	Seed  int64
	Mem   *mem.Memory
	Cache *cache.System
}

// Access describes one memory instruction as it flows through the hooks.
type Access struct {
	PC     uint64
	Addr   uint64 // virtual address
	Size   int
	Write  bool
	Atomic bool
}

// RegionKind tags code-region boundaries for code-centric consistency.
type RegionKind uint8

// Region kinds (paper §3.4). RegionAtomicStrong is the seq_cst atomic
// region; the remaining C11 orderings and standalone fences follow. The
// numeric values of the original three kinds are frozen: traces serialize
// the kind as a raw integer.
const (
	RegionAtomicRelaxed RegionKind = iota
	RegionAtomicStrong
	RegionAsm
	RegionAtomicAcquire
	RegionAtomicRelease
	RegionAtomicAcqRel
	RegionFenceAcquire
	RegionFenceRelease
	RegionFenceAcqRel
	RegionFenceSeqCst
)

func (k RegionKind) String() string {
	switch k {
	case RegionAtomicRelaxed:
		return "atomic-relaxed"
	case RegionAtomicStrong:
		return "atomic-seqcst"
	case RegionAsm:
		return "asm"
	case RegionAtomicAcquire:
		return "atomic-acquire"
	case RegionAtomicRelease:
		return "atomic-release"
	case RegionAtomicAcqRel:
		return "atomic-acqrel"
	case RegionFenceAcquire:
		return "fence-acquire"
	case RegionFenceRelease:
		return "fence-release"
	case RegionFenceAcqRel:
		return "fence-acqrel"
	case RegionFenceSeqCst:
		return "fence-seqcst"
	}
	return "?"
}

// IsAtomic reports whether k brackets an atomic instruction (as opposed to
// an assembly region or a standalone fence).
func (k RegionKind) IsAtomic() bool {
	switch k {
	case RegionAtomicRelaxed, RegionAtomicStrong, RegionAtomicAcquire,
		RegionAtomicRelease, RegionAtomicAcqRel:
		return true
	}
	return false
}

// IsFence reports whether k is a standalone fence region.
func (k RegionKind) IsFence() bool {
	switch k {
	case RegionFenceAcquire, RegionFenceRelease, RegionFenceAcqRel,
		RegionFenceSeqCst:
		return true
	}
	return false
}

// Acquires reports whether k carries acquire semantics (joins published
// state). Asm regions conservatively acquire and release, matching the
// paper's Table 2 treatment of opaque assembly.
func (k RegionKind) Acquires() bool {
	switch k {
	case RegionAtomicStrong, RegionAsm, RegionAtomicAcquire,
		RegionAtomicAcqRel, RegionFenceAcquire, RegionFenceAcqRel,
		RegionFenceSeqCst:
		return true
	}
	return false
}

// Releases reports whether k carries release semantics (publishes prior
// state).
func (k RegionKind) Releases() bool {
	switch k {
	case RegionAtomicStrong, RegionAsm, RegionAtomicRelease,
		RegionAtomicAcqRel, RegionFenceRelease, RegionFenceAcqRel,
		RegionFenceSeqCst:
		return true
	}
	return false
}

// Hooks are the runtime attachment points. All hooks run in the context of
// the executing thread with the machine quiescent (no other thread running),
// so they may inspect and mutate runtime state freely but must not block.
type Hooks struct {
	// SpaceFor selects the address space an access resolves through.
	// Nil or returning nil means the thread's current space. TMI uses this
	// to route atomics and assembly regions to the always-shared view.
	SpaceFor func(t *Thread, acc *Access) *mem.AddrSpace
	// OnFault handles a protection fault. Returning handled=true retries the
	// access once; cost is charged to the thread either way.
	OnFault func(t *Thread, acc *Access, f *mem.Fault) (handled bool, cost int64)
	// PostAccess observes every completed access (PEBS sampling) and may
	// charge extra cycles.
	PostAccess func(t *Thread, acc *Access, res cache.Result) (extra int64)
	// RegionEnter/RegionExit observe code-centric consistency boundaries.
	RegionEnter func(t *Thread, k RegionKind)
	RegionExit  func(t *Thread, k RegionKind)
	// OnFirstTouch charges the page-fault cost for a first touch of a page
	// (or a COW copy). If nil, DefaultFaultCost is used.
	OnFirstTouch func(t *Thread, tr mem.Translation) (cost int64)
	// OnValue observes the data value of every completed access, after the
	// data operation: the value loaded (for loads and the old value of
	// RMW/CAS) or the value stored. Unlike PostAccess it sees the datum, so
	// a model checker can log per-thread observed values.
	OnValue func(t *Thread, acc *Access, val uint64)
	// OnWake observes t unblocking (or depositing a wake permit for) other —
	// the scheduler-level happens-before edge a race detector needs.
	OnWake func(t, other *Thread)
}

// Scheduler is an external scheduling strategy. When installed via
// SetScheduler it replaces the default min-clock policy entirely: at every
// scheduling point the machine calls Pick with the runnable threads (sorted
// by ID, never empty) and runs the returned thread next. Clock-slack
// batching is disabled so every instruction is a scheduling point — the
// interleaving is exactly the sequence of Pick results, which is what lets
// a model checker enumerate schedules. Returning nil abandons the run: the
// machine aborts with ErrScheduleAbandoned (how DPOR prunes sleep-blocked
// interleavings). The ready slice is reused: it is valid only during Pick.
type Scheduler interface {
	Pick(ready []*Thread) *Thread
}

// ErrScheduleAbandoned reports that the installed Scheduler gave up on the
// run by returning nil from Pick.
var ErrScheduleAbandoned = errors.New("machine: schedule abandoned by scheduler")

// DefaultFaultCost is the minor page-fault cost when no OnFirstTouch hook is
// installed.
const DefaultFaultCost = 3000

// schedSlack is the scheduler's clock tolerance: a thread keeps executing
// while no runnable thread is more than this many cycles behind it. It is
// chosen below the cheapest cross-core latency (LatUpgrade/LatLLC = 40), so
// batched execution can only reorder same-core L1 hits.
const schedSlack = 4

// ThreadState is a thread's scheduler state.
type ThreadState uint8

// Thread states.
const (
	Ready ThreadState = iota
	Blocked
	Done
)

// ThreadStats counts per-thread activity.
type ThreadStats struct {
	Instructions uint64
	MemOps       uint64
	HITM         uint64
	Faults       uint64
	FirstTouches uint64
}

// Thread is one simulated hardware thread, pinned 1:1 to a core.
type Thread struct {
	ID   int
	Core int

	m     *Machine
	space *mem.AddrSpace
	clock int64
	state ThreadState
	// resumed reports that the goroutine parked in this thread's coroutine
	// entered it by resume, so yieldTok wakes it; otherwise resume does.
	// Kept beside state, it costs no struct padding.
	resumed bool
	rng     *rand.Rand

	// resume/yieldTok are the handles iter.Pull returns for the thread's
	// coroutine. A coroutine always holds exactly one parked goroutine, and
	// either call swaps the caller with it, whoever the caller is: the one
	// that entered by resume is woken by yieldTok, and the one that entered
	// by yieldTok (or the coroutine's own goroutine, not yet started) by
	// resume. parkedIn is the coroutine this thread's goroutine waits in
	// while another holds the token. So a handoff is one direct coroutine
	// switch (see switchTo), with no driver round trip and no Go scheduler
	// involvement.
	resume   func() (struct{}, bool)
	yieldTok func(struct{}) bool
	parkedIn *Thread

	// User carries runtime-private per-thread state (CCC region nesting,
	// PTSB dirty sets). The machine never inspects it.
	User any

	Stats ThreadStats

	// permits/pendingWake implement race-free wakeups: an Unblock that
	// arrives before the target's Block deposits a permit instead.
	permits     int
	pendingWake int64

	// scratch/scratchB are the per-thread Access buffers the instruction
	// methods reuse, so steady-state ops allocate nothing. Hooks receive a
	// pointer into them and must not retain it past the hook call.
	scratch  Access
	scratchB Access

	body func(*Thread)
}

// Machine is the simulated multicore.
type Machine struct {
	cfg     Config
	cacheS  *cache.System
	threads []*Thread
	hooks   Hooks
	sched   Scheduler

	timers  timerHeap
	started bool
	// ready is readyThreads' reused buffer.
	ready   []*Thread
	failure error
	aborted atomic.Bool

	// driverIn is the coroutine Run's goroutine waits in while a thread
	// runs. prev is the thread that last handed control to the driver, or
	// last exited: the driver's next scheduleNext sees it as the previous
	// holder.
	driverIn *Thread
	prev     *Thread
	switches uint64

	nextTimerID int
}

type timer struct {
	id     int
	at     int64
	period int64 // 0 = one-shot
	fn     func(now int64)
}

// timerHeap is a min-heap of timers ordered by (at, id): earliest deadline
// first, insertion order among ties. The id tiebreak is what makes
// same-deadline firing order deterministic — the old sort-on-insert list
// ordered ties arbitrarily.
type timerHeap []*timer

func (h timerHeap) Len() int { return len(h) }
func (h timerHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].id < h[j].id
}
func (h timerHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *timerHeap) Push(x any)   { *h = append(*h, x.(*timer)) }
func (h *timerHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return x
}

// New constructs a machine with cfg.Cores threads ready to run.
func New(cfg Config) *Machine {
	if cfg.Cores < 1 {
		panic("machine: need at least one core")
	}
	if cfg.Cache == nil {
		cfg.Cache = cache.New(cfg.Cores)
	}
	m := &Machine{cfg: cfg, cacheS: cfg.Cache}
	for i := 0; i < cfg.Cores; i++ {
		m.threads = append(m.threads, &Thread{
			ID:   i,
			Core: i,
			m:    m,
			rng:  rand.New(rand.NewSource(cfg.Seed*7919 + int64(i) + 1)),
		})
	}
	return m
}

// SetHooks installs the runtime hooks. Must be called before Run.
func (m *Machine) SetHooks(h Hooks) { m.hooks = h }

// SetScheduler installs an external scheduling strategy (nil restores the
// default min-clock policy). Must be called before Run.
func (m *Machine) SetScheduler(s Scheduler) { m.sched = s }

// Cache returns the coherence system.
func (m *Machine) Cache() *cache.System { return m.cacheS }

// Threads returns the machine's threads.
func (m *Machine) Threads() []*Thread { return m.threads }

// Thread returns thread i.
func (m *Machine) Thread(i int) *Thread { return m.threads[i] }

// AddTimer schedules fn at simulated time at; if period > 0 it repeats.
// Timers fire at scheduling boundaries, with all threads quiescent. Like
// RemoveTimer it needs no lock: callers run before Run or under the
// one-token discipline (a thread body, a hook or a timer callback), the
// same way the scheduler itself reads the timer heap.
func (m *Machine) AddTimer(at, period int64, fn func(now int64)) int {
	m.nextTimerID++
	t := &timer{id: m.nextTimerID, at: at, period: period, fn: fn}
	heap.Push(&m.timers, t)
	return t.id
}

// RemoveTimer cancels a timer by id.
func (m *Machine) RemoveTimer(id int) {
	for i, t := range m.timers {
		if t.id == id {
			heap.Remove(&m.timers, i)
			return
		}
	}
}

// Run executes bodies, one per thread (len(bodies) must not exceed the core
// count; extra cores stay idle). It blocks until all threads finish and
// returns the first failure (panic in a body, deadlock) if any.
//
// Every thread body runs as a coroutine (iter.Pull). A thread that loses
// the token switches straight to the next thread (see yield); the driver —
// the Run caller's goroutine — takes over only when a timer is due, nothing
// is runnable, a Scheduler abandons the run or a thread exits, and it
// scheduleNext-picks the thread to switch to. Exactly one goroutine
// executes at any moment, so the whole simulation is sequential; coroutine
// switches transfer control directly, never through the Go scheduler.
func (m *Machine) Run(bodies []func(*Thread)) error {
	if len(bodies) > len(m.threads) {
		return fmt.Errorf("machine: %d bodies for %d cores", len(bodies), len(m.threads))
	}
	if m.started {
		return fmt.Errorf("machine: Run called twice")
	}
	m.started = true
	var live []*Thread
	for i, t := range m.threads {
		if i < len(bodies) {
			t.body = bodies[i]
			t.state = Ready
			live = append(live, t)
		} else {
			t.state = Done
		}
	}
	for _, t := range live {
		t := t
		t.parkedIn = t // not started: resume starts it
		t.resume, _ = iter.Pull(func(yieldTok func(struct{}) bool) {
			t.yieldTok = yieldTok
			// A coroutine started only so it can unwind (the machine
			// aborted before this thread ever ran) must not execute its
			// body.
			if !m.aborted.Load() {
				func() {
					defer func() {
						if r := recover(); r != nil {
							if _, ok := r.(abortSentinel); ok {
								return // controlled unwind after machine abort
							}
							if m.failure == nil {
								m.failure = fmt.Errorf("machine: thread %d panic: %v", t.ID, r)
							}
							m.aborted.Store(true)
						}
					}()
					t.body(t)
				}()
			}
			t.state = Done
			// Returning wakes whichever goroutine is parked in this
			// coroutine, with false: the driver schedules on from prev,
			// and a thread, not chosen, forwards control to the driver.
			m.prev = t
		})
	}

	// The driver loop. A panic here can only come from a timer callback
	// (body and hook panics are recovered inside the coroutine); record it
	// as the run's failure like any other crash.
	func() {
		defer func() {
			if r := recover(); r != nil {
				if m.failure == nil {
					m.failure = fmt.Errorf("machine: panic: %v", r)
				}
				m.aborted.Store(true)
			}
		}()
		for !m.aborted.Load() {
			next := m.scheduleNext(m.prev)
			if next == nil {
				break
			}
			m.switchTo(&m.driverIn, next.parkedIn)
		}
	}()
	// Drain an aborted run: each thread still parked wakes, sees the abort
	// in checkAbort and unwinds; its exit passes control back here, through
	// whoever was parked in its coroutine.
	for _, t := range live {
		if t.state != Done {
			m.switchTo(&m.driverIn, t.parkedIn)
		}
	}
	return m.failure
}

// switchTo wakes the goroutine parked in coroutine in, by the call
// opposite to the one that parked it, and parks the caller there in its
// place, recording in at self: one coroutine switch. It reports true when
// the caller is woken by a switch to it — it holds the token again — and
// false when the coroutine it parked in finished instead: the caller was
// not chosen and must hand control to the driver.
func (m *Machine) switchTo(self **Thread, in *Thread) bool {
	m.switches++
	*self = in
	if in.resumed {
		in.resumed = false
		return in.yieldTok(struct{}{})
	}
	in.resumed = true
	_, ok := in.resume()
	return ok
}

// Switches reports the coroutine switches the run has made: one per token
// handoff, plus the driver's switches at start, timers, exits and aborts.
// Like every scheduling decision it is deterministic for a fixed seed.
func (m *Machine) Switches() uint64 { return m.switches }

// scheduleNext is the driver's scheduling point: it fires timers due before
// the next thread would run, detects deadlock, and picks the thread to
// resume — the min-clock thread, except that the previous holder keeps the
// token while within schedSlack cycles of the true minimum (or whatever the
// external Scheduler picks, with no slack batching). Returning nil ends the
// run.
func (m *Machine) scheduleNext(prev *Thread) *Thread {
	for {
		next := m.minReady()
		// Fire timers due before the next thread would run. Timers advance
		// only with thread progress: once no thread is runnable, remaining
		// timers never fire.
		if len(m.timers) > 0 && next != nil && m.timers[0].at <= next.clock {
			due := heap.Pop(&m.timers).(*timer)
			due.fn(due.at)
			if due.period > 0 {
				due.at += due.period
				heap.Push(&m.timers, due)
			}
			continue // re-evaluate: the timer may have changed thread states
		}
		if next == nil {
			// Nothing runnable: either everyone is done, or deadlock.
			for _, th := range m.threads {
				if th.state == Blocked {
					if m.failure == nil {
						at := int64(0)
						if prev != nil {
							at = prev.clock
						}
						m.failure = fmt.Errorf("machine: deadlock — all live threads blocked at t=%d", at)
					}
					m.aborted.Store(true)
					break
				}
			}
			return nil
		}
		if m.sched != nil {
			return m.adopt(m.sched.Pick(m.readyThreads()))
		}
		// Slack: the previous holder keeps the token while within schedSlack
		// cycles of the true minimum. schedSlack is below every coherence
		// latency, so only local L1 hits batch — cross-core event ordering
		// is unaffected — while switches drop by an order of magnitude.
		if prev != nil && prev != next && prev.state == Ready && prev.clock <= next.clock+schedSlack {
			return prev
		}
		return next
	}
}

// adopt runs the external Scheduler's pick, or abandons the run on nil.
func (m *Machine) adopt(picked *Thread) *Thread {
	if picked == nil {
		if m.failure == nil {
			m.failure = ErrScheduleAbandoned
		}
		m.aborted.Store(true)
	}
	return picked
}

// yield is a thread-side scheduling point: keep the token if the thread
// may, else hand it on.
//
// Under the one-token discipline only the token holder executes here, and
// every prior mutation of thread states, clocks and the timer heap happened
// either on this goroutine or before a coroutine switch (which is a
// happens-before edge), so the thread can make the driver's decision
// itself whenever no timer is due. It keeps the token while it is still
// minimal (within schedSlack), and otherwise switches straight to the
// min-clock thread. With an external Scheduler every yield is a scheduling
// point: the thread calls Pick exactly as the driver would, keeps running
// when Pick returns it and switches to any other pick. A due timer, an
// empty ready set, a nil pick or an abort go to the driver instead.
func (m *Machine) yield(t *Thread) {
	var to *Thread
	if !m.aborted.Load() {
		if next := m.minReady(); next != nil && (len(m.timers) == 0 || m.timers[0].at > next.clock) {
			if m.sched == nil {
				if t.state == Ready && (next == t || t.clock <= next.clock+schedSlack) {
					return // keep the token: still minimal (within slack), no timer due
				}
				to = next
			} else if to = m.adopt(m.sched.Pick(m.readyThreads())); to == t {
				return
			}
		}
	}
	if to == nil {
		m.prev = t
	} else if m.switchTo(&t.parkedIn, to.parkedIn) {
		m.checkAbort()
		return
	}
	// Hand control to the driver. A false return means the coroutine this
	// thread parked in finished, not that anyone chose it: forward again.
	for !m.switchTo(&t.parkedIn, m.driverIn) {
	}
	m.checkAbort()
}

// Elapsed reports the simulated run time: the maximum thread clock.
func (m *Machine) Elapsed() int64 {
	var max int64
	for _, t := range m.threads {
		if t.clock > max {
			max = t.clock
		}
	}
	return max
}

// ElapsedSeconds converts Elapsed to seconds at the simulated clock rate.
func (m *Machine) ElapsedSeconds() float64 {
	return float64(m.Elapsed()) / float64(cache.ClockHz)
}

func (m *Machine) minReady() *Thread {
	var best *Thread
	for _, t := range m.threads {
		if t.state != Ready {
			continue
		}
		if best == nil || t.clock < best.clock || (t.clock == best.clock && t.ID < best.ID) {
			best = t
		}
	}
	return best
}

// readyThreads returns the runnable threads in ID order, in a buffer the
// next call overwrites.
func (m *Machine) readyThreads() []*Thread {
	m.ready = m.ready[:0]
	for _, th := range m.threads {
		if th.state == Ready {
			m.ready = append(m.ready, th)
		}
	}
	return m.ready
}

// checkAbort panics out of a thread body when the machine has been aborted
// (a thread panic, deadlock or an abandoned schedule); the Run wrapper
// recovers it. Lock-free:
// it runs after every instruction.
func (m *Machine) checkAbort() {
	if m.aborted.Load() {
		panic(abortSentinel{})
	}
}

type abortSentinel struct{}
