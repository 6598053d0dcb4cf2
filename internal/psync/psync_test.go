package psync

import (
	"fmt"
	"testing"

	"repro/internal/alloc"
	"repro/internal/disasm"
	"repro/internal/sim/machine"
	"repro/internal/sim/mem"
)

const heapBase = alloc.HeapBase

type fixture struct {
	mc    *machine.Machine
	mgr   *Manager
	space *mem.AddrSpace
}

func newFixture(t *testing.T, threads int, indirect bool, hooks Hooks) *fixture {
	t.Helper()
	m := mem.NewMemory(mem.PageSize4K)
	as := mem.NewAddrSpace(m)
	al := alloc.New(alloc.TMIPolicy(), alloc.BackingSharedFile, m.NewFile("heap"), mem.PageSize4K)
	al.AddSpace(as)
	al.Alloc(16*mem.PageSize4K, mem.PageSize4K) // the heap words tests place locks at
	mc := machine.New(machine.Config{Cores: threads, Seed: 11, Mem: m})
	for _, th := range mc.Threads() {
		th.SetSpace(as)
	}
	prog := disasm.NewProgram()
	mgr := NewManager(prog, as, al, indirect, hooks)
	return &fixture{mc: mc, mgr: mgr, space: as}
}

func TestMutexMutualExclusion(t *testing.T) {
	for _, indirect := range []bool{false, true} {
		t.Run(fmt.Sprintf("indirect=%v", indirect), func(t *testing.T) {
			f := newFixture(t, 4, indirect, Hooks{})
			mu := f.mgr.NewMutex("m", heapBase)
			inCS := 0
			maxCS := 0
			body := func(th *machine.Thread) {
				for i := 0; i < 200; i++ {
					mu.Lock(th)
					inCS++
					if inCS > maxCS {
						maxCS = inCS
					}
					th.Work(50)
					inCS--
					mu.Unlock(th)
					th.Work(20)
				}
			}
			if err := f.mc.Run([]func(*machine.Thread){body, body, body, body}); err != nil {
				t.Fatal(err)
			}
			if maxCS != 1 {
				t.Errorf("mutual exclusion violated: %d threads in CS", maxCS)
			}
			if mu.Acquires != 800 {
				t.Errorf("acquires %d, want 800", mu.Acquires)
			}
		})
	}
}

func TestMutexProtectsSharedCounter(t *testing.T) {
	f := newFixture(t, 4, true, Hooks{})
	mu := f.mgr.NewMutex("m", heapBase)
	site := disasm.NewProgram().Site("ctr", disasm.KindStore, 8)
	const per = 300
	body := func(th *machine.Thread) {
		for i := 0; i < per; i++ {
			mu.Lock(th)
			v := th.Load(site.PC(), heapBase+256, 8)
			th.Store(site.PC(), heapBase+256, 8, v+1)
			mu.Unlock(th)
		}
	}
	if err := f.mc.Run([]func(*machine.Thread){body, body, body, body}); err != nil {
		t.Fatal(err)
	}
	tr, _ := f.space.Translate(heapBase+256, false)
	if got := mem.LoadUint(tr, 8); got != 4*per {
		t.Errorf("counter %d, want %d", got, 4*per)
	}
}

func TestMutexIndirectionInstallsPointer(t *testing.T) {
	f := newFixture(t, 1, true, Hooks{})
	f.mgr.NewMutex("m", heapBase+64)
	tr, _ := f.space.Translate(heapBase+64, false)
	ptr := mem.LoadUint(tr, 8)
	if ptr < alloc.StateBase || ptr >= alloc.StateBase+alloc.StateSize {
		t.Errorf("lock word should point into the shared region, got 0x%x", ptr)
	}
	if f.mgr.Objects() != 1 {
		t.Errorf("objects %d, want 1", f.mgr.Objects())
	}
}

func TestMutexDirectModeUsesAppWord(t *testing.T) {
	f := newFixture(t, 1, false, Hooks{})
	mu := f.mgr.NewMutex("m", heapBase+64)
	body := func(th *machine.Thread) {
		mu.Lock(th)
		mu.Unlock(th)
	}
	if err := f.mc.Run([]func(*machine.Thread){body}); err != nil {
		t.Fatal(err)
	}
	// Without indirection the app word itself was CAS'd (nonzero during
	// hold, zero after release) and no shared object was allocated.
	if f.mgr.Objects() != 0 {
		t.Errorf("direct mode must not allocate shared objects, got %d", f.mgr.Objects())
	}
}

func TestUnlockByNonOwnerPanics(t *testing.T) {
	f := newFixture(t, 2, true, Hooks{})
	mu := f.mgr.NewMutex("m", heapBase)
	err := f.mc.Run([]func(*machine.Thread){
		func(th *machine.Thread) { mu.Lock(th); th.Work(10_000) },
		func(th *machine.Thread) {
			th.Work(100)
			mu.Unlock(th) // not the owner
		},
	})
	if err == nil {
		t.Fatal("unlock by non-owner should fail the run")
	}
}

func TestSyncHookFiresAtBoundaries(t *testing.T) {
	calls := 0
	f := newFixture(t, 1, true, Hooks{OnSync: func(*machine.Thread) { calls++ }})
	mu := f.mgr.NewMutex("m", heapBase)
	body := func(th *machine.Thread) {
		mu.Lock(th)
		mu.Unlock(th)
	}
	if err := f.mc.Run([]func(*machine.Thread){body}); err != nil {
		t.Fatal(err)
	}
	// Two boundaries in Lock (before and after acquisition) and one in
	// Unlock.
	if calls != 3 {
		t.Errorf("sync hook fired %d times, want 3", calls)
	}
}

func TestBarrierRendezvous(t *testing.T) {
	f := newFixture(t, 4, true, Hooks{})
	bar := f.mgr.NewBarrier("b", 4)
	var phase [4]int
	body := func(th *machine.Thread) {
		for round := 0; round < 5; round++ {
			th.Work(int64(100 * (th.ID + 1))) // skewed arrival
			phase[th.ID] = round
			bar.Wait(th)
			// After the barrier, everyone must have finished this round.
			for i, p := range phase {
				if p < round {
					t.Errorf("thread %d passed barrier before thread %d arrived", th.ID, i)
				}
			}
		}
	}
	if err := f.mc.Run([]func(*machine.Thread){body, body, body, body}); err != nil {
		t.Fatal(err)
	}
	if bar.Generations != 5 {
		t.Errorf("generations %d, want 5", bar.Generations)
	}
}

func TestBarrierAdvancesClocks(t *testing.T) {
	f := newFixture(t, 2, true, Hooks{})
	bar := f.mgr.NewBarrier("b", 2)
	err := f.mc.Run([]func(*machine.Thread){
		func(th *machine.Thread) { bar.Wait(th) },
		func(th *machine.Thread) { th.Work(50_000); bar.Wait(th) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if c := f.mc.Thread(0).Clock(); c < 50_000 {
		t.Errorf("early arriver's clock %d should reach the late arriver's", c)
	}
}

func TestCondSignalWakesWaiter(t *testing.T) {
	f := newFixture(t, 2, true, Hooks{})
	mu := f.mgr.NewMutex("m", heapBase)
	cv := f.mgr.NewCond("c")
	ready := false
	err := f.mc.Run([]func(*machine.Thread){
		func(th *machine.Thread) {
			mu.Lock(th)
			for !ready {
				cv.Wait(th, mu)
			}
			mu.Unlock(th)
		},
		func(th *machine.Thread) {
			th.Work(10_000)
			mu.Lock(th)
			ready = true
			cv.Signal(th)
			mu.Unlock(th)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCondBroadcastWakesAll(t *testing.T) {
	f := newFixture(t, 4, true, Hooks{})
	mu := f.mgr.NewMutex("m", heapBase)
	cv := f.mgr.NewCond("c")
	released := false
	woken := 0
	waiter := func(th *machine.Thread) {
		mu.Lock(th)
		for !released {
			cv.Wait(th, mu)
		}
		woken++
		mu.Unlock(th)
	}
	err := f.mc.Run([]func(*machine.Thread){
		waiter, waiter, waiter,
		func(th *machine.Thread) {
			th.Work(20_000)
			mu.Lock(th)
			released = true
			cv.Broadcast(th)
			mu.Unlock(th)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if woken != 3 {
		t.Errorf("woken %d, want 3", woken)
	}
}

func TestPackedLockWordsFalselyShare(t *testing.T) {
	// spinlockpool's essence: two locks on one line (direct mode) ping-pong
	// the line; padded shared objects (indirect mode) do not.
	contention := func(indirect bool) uint64 {
		f := newFixture(t, 2, indirect, Hooks{})
		mu0 := f.mgr.NewMutex("l0", heapBase)
		mu1 := f.mgr.NewMutex("l1", heapBase+8) // same line
		body := func(mu *Mutex) func(*machine.Thread) {
			return func(th *machine.Thread) {
				for i := 0; i < 300; i++ {
					mu.Lock(th)
					th.Work(30)
					mu.Unlock(th)
				}
			}
		}
		if err := f.mc.Run([]func(*machine.Thread){body(mu0), body(mu1)}); err != nil {
			t.Fatal(err)
		}
		return f.mc.Cache().Stats().HITM
	}
	direct := contention(false)
	indirect := contention(true)
	if direct < 4*indirect {
		t.Errorf("packed lock words should contend far more: direct=%d indirect=%d", direct, indirect)
	}
}
