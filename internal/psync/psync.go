// Package psync implements process-shared synchronization: the mutexes,
// barriers and condition variables that keep working when TMI converts
// threads into processes.
//
// TMI allocates every synchronization object in an always-process-shared
// memory region and replaces the application's lock word with a pointer to
// the padded (cache-line sized) shared object (paper §3.2, Figure 6). The
// indirection has two effects this package reproduces faithfully:
//
//   - lock operations keep working across fork, because the object lives in
//     memory that is never made private; and
//   - packed application lock words (boost::spinlock_pool) stop falsely
//     sharing, because the hot CAS target moves to its own line — the word
//     the application owns is only ever read (to follow the pointer).
//
// Lock words are real simulated memory: contention, lock-word false sharing
// and HITM traffic all emerge from the cache model rather than being
// scripted. All Lock/Unlock/Wait operations are PTSB commit points via the
// installed hooks.
package psync

import (
	"fmt"

	"repro/internal/alloc"
	"repro/internal/disasm"
	"repro/internal/sim/machine"
	"repro/internal/sim/mem"
)

// Misuse is the panic value of a synchronization object used against its
// contract (an unlock by a non-owner, a barrier of no parties, a lock word
// outside mapped memory).
type Misuse string

func (m Misuse) Error() string { return "psync: " + string(m) }

// Tuning constants (cycles).
const (
	// SpinPause is the cost of one spin-wait iteration.
	SpinPause = 20
	// MaxSpins before a contended locker blocks in the kernel (sized so
	// short critical sections are always acquired by spinning).
	MaxSpins = 150
	// WakeCost models a futex wakeup.
	WakeCost = 1500
	// ObjectBytes is the size of one padded process-shared object.
	ObjectBytes = mem.LineSize
)

// Hooks let the runtime run code at synchronization boundaries; TMI commits
// the calling thread's PTSB at both acquire and release (Lemma 3.1 requires
// the buffer to be empty on both sides of a critical section).
type Hooks struct {
	// OnSync runs for the thread at every acquire and release boundary.
	OnSync func(t *machine.Thread)
}

// Manager creates and tracks process-shared synchronization objects.
type Manager struct {
	prog  *disasm.Program
	hooks Hooks
	// Indirect selects TMI's pointer-indirection layout; when false
	// (pthreads baseline) lock words are used in place.
	Indirect bool

	// al places objects in the always-shared state region; setup writes go
	// through space (every space maps the region shared, so any one view
	// works).
	al    *alloc.Allocator
	space *mem.AddrSpace

	objects int

	sitePtr    disasm.Site
	siteCAS    disasm.Site
	siteSpin   disasm.Site
	siteRel    disasm.Site
	siteBarArr disasm.Site
}

// NewManager creates a manager whose objects al places in the
// always-shared state region, mapped in the given space.
func NewManager(prog *disasm.Program, space *mem.AddrSpace, al *alloc.Allocator, indirect bool, hooks Hooks) *Manager {
	m := &Manager{prog: prog, hooks: hooks, Indirect: indirect, al: al, space: space}
	// Runtime sites: these instructions live in the synchronization library,
	// below the compiler pass that inserts region annotations, so annotation
	// checkers must not demand region enclosure for them.
	m.sitePtr = prog.RuntimeSite("psync.lockword.deref", disasm.KindLoad, 8)
	m.siteCAS = prog.RuntimeSite("psync.mutex.cas", disasm.KindAtomic, 8)
	m.siteSpin = prog.RuntimeSite("psync.mutex.spinload", disasm.KindLoad, 8)
	m.siteRel = prog.RuntimeSite("psync.mutex.release", disasm.KindAtomic, 8)
	m.siteBarArr = prog.RuntimeSite("psync.barrier.arrive", disasm.KindAtomic, 8)
	return m
}

// Objects reports how many shared objects have been allocated (memory
// accounting: the indirection overhead of lock-heavy programs).
func (m *Manager) Objects() int { return m.objects }

func (m *Manager) allocObject() uint64 {
	m.objects++
	return m.al.AllocState(ObjectBytes)
}

func (m *Manager) sync(t *machine.Thread) {
	if m.hooks.OnSync != nil {
		m.hooks.OnSync(t)
	}
}

// writePointer installs an indirection pointer into an application lock
// word (setup-time, zero simulated cost).
func writePointer(tr mem.Translation, obj uint64) {
	mem.StoreUint(tr, 8, obj)
}

// Mutex is a process-shared lock.
type Mutex struct {
	mgr *Manager
	// appAddr is the application-visible lock word. With indirection it
	// holds a pointer to objAddr; without, it is the lock word itself.
	appAddr uint64
	objAddr uint64
	name    string

	owner   *machine.Thread
	waiters []*machine.Thread

	// Acquires counts lock operations (sync-frequency characterization).
	Acquires uint64
}

// NewMutex creates a mutex whose application lock word lives at appAddr
// (allocated by the caller, typically on the application heap).
func (m *Manager) NewMutex(name string, appAddr uint64) *Mutex {
	mu := &Mutex{mgr: m, appAddr: appAddr, name: name}
	if m.Indirect {
		mu.objAddr = m.allocObject()
		// Install the pointer in the application word (done by TMI's
		// pthread_mutex_init wrapper, at zero simulated cost).
		tr, fault := m.space.Translate(appAddr, true)
		if fault != nil {
			panic(Misuse(fmt.Sprintf("mutex word unmapped: %v", fault)))
		}
		mem.StoreUint(tr, 8, mu.objAddr)
	}
	return mu
}

// target resolves the address lock operations contend on, charging the
// indirection load when TMI's redirection is active.
func (mu *Mutex) target(t *machine.Thread) uint64 {
	if mu.mgr.Indirect {
		return t.Load(mu.mgr.sitePtr.PC(), mu.appAddr, 8)
	}
	return mu.appAddr
}

// Lock acquires the mutex: spin briefly (a barging lock — spinning threads
// may overtake blocked waiters, as glibc's adaptive mutexes allow), then
// block; every unlock wakes one blocked waiter to re-compete.
func (mu *Mutex) Lock(t *machine.Thread) {
	mu.mgr.sync(t)
	addr := mu.target(t)
	for spins := 0; ; spins++ {
		if mu.owner == nil && t.AtomicCAS(mu.mgr.siteCAS.PC(), addr, 8, 0, uint64(t.ID)+1) {
			mu.owner = t
			break
		}
		if spins < MaxSpins {
			t.Load(mu.mgr.siteSpin.PC(), addr, 8)
			t.Work(SpinPause)
			continue
		}
		mu.waiters = append(mu.waiters, t)
		t.Block()
		spins = 0
	}
	mu.Acquires++
	mu.mgr.sync(t)
}

// Unlock releases the mutex and wakes one blocked waiter, if any.
func (mu *Mutex) Unlock(t *machine.Thread) {
	if mu.owner != t {
		panic(Misuse(fmt.Sprintf("unlock of %q by non-owner thread %d", mu.name, t.ID)))
	}
	mu.mgr.sync(t)
	addr := mu.target(t)
	mu.owner = nil
	t.AtomicRMW(mu.mgr.siteRel.PC(), addr, 8, func(uint64) uint64 { return 0 })
	if len(mu.waiters) > 0 {
		w := mu.waiters[0]
		mu.waiters = mu.waiters[1:]
		t.Unblock(w, WakeCost)
	}
}

// Barrier is a process-shared barrier.
type Barrier struct {
	mgr     *Manager
	objAddr uint64
	parties int
	arrived int
	waiting []*machine.Thread
	// Generations counts completed barrier episodes.
	Generations uint64
}

// NewBarrier creates a barrier for the given number of parties.
func (m *Manager) NewBarrier(name string, parties int) *Barrier {
	if parties < 1 {
		panic(Misuse("barrier needs at least one party"))
	}
	return &Barrier{mgr: m, objAddr: m.allocObject(), parties: parties}
}

// Wait arrives at the barrier and blocks until all parties have arrived.
func (b *Barrier) Wait(t *machine.Thread) {
	b.mgr.sync(t)
	// Register before arriving: the last arriver scans b.waiting, and an
	// Unblock delivered before this thread reaches Block is kept as a wake
	// permit, so register-then-arrive never loses a wakeup.
	b.waiting = append(b.waiting, t)
	last := false
	t.AtomicRMW(b.mgr.siteBarArr.PC(), b.objAddr, 8, func(old uint64) uint64 {
		// The "am I last" decision must be atomic with the arrival RMW:
		// only then is the last arriver's RMW the one that synchronizes
		// with every earlier arrival, so the chain on the barrier word
		// (plus the wake edges below) orders all pre-barrier effects
		// before every departure. Counting outside the RMW let another
		// thread's count overtake this thread's RMW, and a waiter could
		// depart with no happens-before edge from a straggler's arrival.
		b.arrived++
		if b.arrived == b.parties {
			b.arrived = 0
			last = true
		}
		return old + 1
	})
	if last {
		b.Generations++
		for _, w := range b.waiting {
			if w != t {
				t.Unblock(w, WakeCost)
			}
		}
		b.waiting = b.waiting[:0]
	} else {
		t.Block()
	}
	b.mgr.sync(t)
}

// Cond is a process-shared condition variable.
type Cond struct {
	mgr     *Manager
	objAddr uint64
	waiting []*machine.Thread
	waitMu  []*Mutex
}

// NewCond creates a condition variable.
func (m *Manager) NewCond(name string) *Cond {
	return &Cond{mgr: m, objAddr: m.allocObject()}
}

// Wait atomically releases mu and blocks; on wakeup it reacquires mu.
func (c *Cond) Wait(t *machine.Thread, mu *Mutex) {
	c.waiting = append(c.waiting, t)
	c.waitMu = append(c.waitMu, mu)
	mu.Unlock(t)
	t.Block()
	mu.Lock(t)
}

// Signal wakes one waiter.
func (c *Cond) Signal(t *machine.Thread) {
	if len(c.waiting) == 0 {
		return
	}
	w := c.waiting[0]
	c.waiting = c.waiting[1:]
	c.waitMu = c.waitMu[1:]
	t.Unblock(w, WakeCost)
}

// Broadcast wakes all waiters.
func (c *Cond) Broadcast(t *machine.Thread) {
	for _, w := range c.waiting {
		t.Unblock(w, WakeCost)
	}
	c.waiting = c.waiting[:0]
	c.waitMu = c.waitMu[:0]
}
