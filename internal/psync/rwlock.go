package psync

import (
	"fmt"

	"repro/internal/disasm"
	"repro/internal/sim/machine"
)

// RWMutex is a process-shared readers-writer lock (pthread_rwlock analog):
// any number of readers or one writer. Like Mutex it lives behind TMI's
// indirection in the always-shared region, and every acquire/release is a
// PTSB commit point.
//
// The implementation keeps a reader count in the shared word (writers CAS
// it to a sentinel), so reader traffic itself exhibits the true sharing a
// real rwlock's cache line does.
type RWMutex struct {
	mgr     *Manager
	appAddr uint64
	objAddr uint64
	name    string

	readers     int
	writer      *machine.Thread
	waitWriters []*machine.Thread
	waitReaders []*machine.Thread

	// ReadAcquires/WriteAcquires count lock operations.
	ReadAcquires  uint64
	WriteAcquires uint64

	siteRd, siteWr disasm.Site
}

// writerSentinel marks the lock word as writer-held.
const writerSentinel = ^uint64(0)

// NewRWMutex creates a readers-writer lock whose application word lives at
// appAddr.
func (m *Manager) NewRWMutex(name string, appAddr uint64) *RWMutex {
	rw := &RWMutex{mgr: m, appAddr: appAddr, name: name}
	rw.siteRd = m.prog.RuntimeSite("psync.rwlock.rdlock", disasm.KindAtomic, 8)
	rw.siteWr = m.prog.RuntimeSite("psync.rwlock.wrlock", disasm.KindAtomic, 8)
	if m.Indirect {
		rw.objAddr = m.allocObject()
		tr, fault := m.space.Translate(appAddr, true)
		if fault != nil {
			panic(Misuse(fmt.Sprintf("rwlock word unmapped: %v", fault)))
		}
		writePointer(tr, rw.objAddr)
	}
	return rw
}

func (rw *RWMutex) target(t *machine.Thread) uint64 {
	if rw.mgr.Indirect {
		return t.Load(rw.mgr.sitePtr.PC(), rw.appAddr, 8)
	}
	return rw.appAddr
}

// RLock acquires the lock for reading; readers may overlap.
func (rw *RWMutex) RLock(t *machine.Thread) {
	rw.mgr.sync(t)
	addr := rw.target(t)
	for spins := 0; ; spins++ {
		if rw.writer == nil && len(rw.waitWriters) == 0 {
			// Reader path: bump the shared count unless a writer holds the
			// word. The word is the authority — the conditional RMW is what
			// makes check-and-claim atomic across scheduler yields.
			old := t.AtomicRMW(rw.siteRd.PC(), addr, 8, func(old uint64) uint64 {
				if old == writerSentinel {
					return old
				}
				return old + 1
			})
			if old != writerSentinel {
				rw.readers++
				break
			}
		}
		if spins < MaxSpins {
			t.Load(rw.mgr.siteSpin.PC(), addr, 8)
			t.Work(SpinPause)
			continue
		}
		rw.waitReaders = append(rw.waitReaders, t)
		t.Block()
		spins = 0
	}
	rw.ReadAcquires++
	rw.mgr.sync(t)
}

// RUnlock releases a read hold.
func (rw *RWMutex) RUnlock(t *machine.Thread) {
	if rw.readers <= 0 {
		panic(Misuse(fmt.Sprintf("RUnlock of %q without readers", rw.name)))
	}
	rw.mgr.sync(t)
	addr := rw.target(t)
	t.AtomicRMW(rw.siteRd.PC(), addr, 8, func(old uint64) uint64 { return old - 1 })
	rw.readers--
	if rw.readers == 0 {
		rw.wakeOne(t, &rw.waitWriters)
	}
}

// Lock acquires the lock exclusively.
func (rw *RWMutex) Lock(t *machine.Thread) {
	rw.mgr.sync(t)
	addr := rw.target(t)
	for spins := 0; ; spins++ {
		if t.AtomicCAS(rw.siteWr.PC(), addr, 8, 0, writerSentinel) {
			// CAS from 0 proves no reader and no writer held the word.
			rw.writer = t
			break
		}
		if spins < MaxSpins {
			t.Load(rw.mgr.siteSpin.PC(), addr, 8)
			t.Work(SpinPause)
			continue
		}
		rw.waitWriters = append(rw.waitWriters, t)
		t.Block()
		spins = 0
	}
	rw.WriteAcquires++
	rw.mgr.sync(t)
}

// Unlock releases the exclusive hold; waiting writers take priority, then
// all waiting readers wake together.
func (rw *RWMutex) Unlock(t *machine.Thread) {
	if rw.writer != t {
		panic(Misuse(fmt.Sprintf("Unlock of %q by non-writer thread %d", rw.name, t.ID)))
	}
	rw.mgr.sync(t)
	addr := rw.target(t)
	rw.writer = nil
	t.AtomicRMW(rw.siteWr.PC(), addr, 8, func(uint64) uint64 { return 0 })
	if !rw.wakeOne(t, &rw.waitWriters) {
		for _, r := range rw.waitReaders {
			t.Unblock(r, WakeCost)
		}
		rw.waitReaders = rw.waitReaders[:0]
	}
}

func (rw *RWMutex) wakeOne(t *machine.Thread, q *[]*machine.Thread) bool {
	if len(*q) == 0 {
		return false
	}
	w := (*q)[0]
	*q = (*q)[1:]
	t.Unblock(w, WakeCost)
	return true
}
