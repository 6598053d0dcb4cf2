package machine

import (
	"strings"
	"testing"

	"repro/internal/sim/cache"
	"repro/internal/sim/mem"
)

const heapBase = 0x1000_0000

func newMachine(t *testing.T, cores int) (*Machine, *mem.AddrSpace) {
	t.Helper()
	m := mem.NewMemory(mem.PageSize4K)
	f := m.NewFile("shm")
	as := mem.NewAddrSpace(m)
	as.Map(heapBase, 16, f, 0, false, mem.ProtRW)
	mc := New(Config{Cores: cores, Seed: 1, Mem: m})
	for _, th := range mc.Threads() {
		th.SetSpace(as)
	}
	return mc, as
}

func TestSingleThreadLoadStore(t *testing.T) {
	mc, _ := newMachine(t, 1)
	var got uint64
	err := mc.Run([]func(*Thread){func(th *Thread) {
		th.Store(1, heapBase+8, 8, 77)
		got = th.Load(2, heapBase+8, 8)
	}})
	if err != nil {
		t.Fatal(err)
	}
	if got != 77 {
		t.Errorf("load got %d, want 77", got)
	}
	if mc.Elapsed() <= 0 {
		t.Error("elapsed time should advance")
	}
}

func TestDeterministicInterleaving(t *testing.T) {
	run := func() (uint64, int64) {
		mc, _ := newMachine(t, 4)
		body := func(th *Thread) {
			for i := 0; i < 100; i++ {
				th.AtomicRMW(1, heapBase, 8, func(old uint64) uint64 { return old + 1 })
				th.Work(int64(th.ID+1) * 37)
			}
		}
		if err := mc.Run([]func(*Thread){body, body, body, body}); err != nil {
			t.Fatal(err)
		}
		tr, _ := mc.Thread(0).Space().Translate(heapBase, false)
		return mem.LoadUint(tr, 8), mc.Elapsed()
	}
	v1, e1 := run()
	v2, e2 := run()
	if v1 != 400 {
		t.Errorf("atomic counter %d, want 400", v1)
	}
	if v1 != v2 || e1 != e2 {
		t.Errorf("nondeterministic: (%d,%d) vs (%d,%d)", v1, e1, v2, e2)
	}
}

func TestFalseSharingCostsMoreThanPadded(t *testing.T) {
	elapsed := func(stride uint64) int64 {
		mc, _ := newMachine(t, 2)
		body := func(th *Thread) {
			addr := heapBase + uint64(th.ID)*stride
			for i := 0; i < 500; i++ {
				th.Store(1, addr, 8, uint64(i))
				th.Work(50) // pacing keeps the threads in lockstep
			}
		}
		if err := mc.Run([]func(*Thread){body, body}); err != nil {
			t.Fatal(err)
		}
		return mc.Elapsed()
	}
	shared := elapsed(8)   // same line
	padded := elapsed(128) // separate lines
	if shared < 3*padded {
		t.Errorf("false sharing should be >=3x slower: shared=%d padded=%d", shared, padded)
	}
}

func TestWorkAdvancesOnlyClock(t *testing.T) {
	mc, _ := newMachine(t, 1)
	err := mc.Run([]func(*Thread){func(th *Thread) {
		th.Work(1_000_000)
	}})
	if err != nil {
		t.Fatal(err)
	}
	if mc.Elapsed() != 1_000_000 {
		t.Errorf("elapsed %d, want 1000000", mc.Elapsed())
	}
	if st := mc.Cache().Stats(); st.Accesses != 0 {
		t.Error("Work must not touch the cache")
	}
}

func TestTimersFireInOrder(t *testing.T) {
	mc, _ := newMachine(t, 1)
	var fired []int64
	mc.AddTimer(500, 0, func(now int64) { fired = append(fired, now) })
	mc.AddTimer(1500, 1000, func(now int64) { fired = append(fired, now) })
	err := mc.Run([]func(*Thread){func(th *Thread) {
		for i := 0; i < 4; i++ {
			th.Work(1000)
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{500, 1500, 2500, 3500}
	if len(fired) != len(want) {
		t.Fatalf("fired %v, want %v", fired, want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired %v, want %v", fired, want)
		}
	}
}

func TestBlockUnblock(t *testing.T) {
	mc, as := newMachine(t, 2)
	// Thread 1 blocks; thread 0 computes then wakes it.
	err := mc.Run([]func(*Thread){
		func(th *Thread) {
			th.Work(10_000)
			peer := th.Machine().Thread(1)
			th.Unblock(peer, 100)
			th.endStep(10)
		},
		func(th *Thread) {
			th.Block()
			th.Store(1, heapBase, 8, 5)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t1 := mc.Thread(1)
	if t1.Clock() < 10_000 {
		t.Errorf("woken thread clock %d should be past waker's 10000", t1.Clock())
	}
	tr, _ := as.Translate(heapBase, false)
	if mem.LoadUint(tr, 8) != 5 {
		t.Error("woken thread body did not run")
	}
}

func TestDeadlockDetected(t *testing.T) {
	mc, _ := newMachine(t, 2)
	err := mc.Run([]func(*Thread){
		func(th *Thread) { th.Block() },
		func(th *Thread) { th.Block() },
	})
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("want deadlock error, got %v", err)
	}
}

func TestBodyPanicReported(t *testing.T) {
	mc, _ := newMachine(t, 2)
	err := mc.Run([]func(*Thread){
		func(th *Thread) { panic("boom") },
		func(th *Thread) {
			for i := 0; i < 1000; i++ {
				th.Work(10)
			}
		},
	})
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("want panic error, got %v", err)
	}
}

// TestUnhandledFaultPanicIsTyped: an access no OnFault hook handles panics
// with an UnhandledFault, and the run's error keeps the fault's message.
func TestUnhandledFaultPanicIsTyped(t *testing.T) {
	mc, _ := newMachine(t, 1)
	var got any
	err := mc.Run([]func(*Thread){func(th *Thread) {
		defer func() {
			got = recover()
			panic(got)
		}()
		th.Load(7, 0x40, 8)
	}})
	f, ok := got.(UnhandledFault)
	if !ok || f.Thread != 0 || f.PC != 7 || f.Fault == nil {
		t.Fatalf("panic value %#v, want an UnhandledFault of thread 0 at pc 7", got)
	}
	if err == nil || !strings.HasPrefix(err.Error(), "machine: thread 0 panic: machine: unhandled ") ||
		!strings.HasSuffix(err.Error(), " by thread 0 (pc=0x7)") {
		t.Fatalf("run error %v, want the unhandled-fault message", err)
	}
}

func TestFaultHookRetries(t *testing.T) {
	m := mem.NewMemory(mem.PageSize4K)
	f := m.NewFile("shm")
	as := mem.NewAddrSpace(m)
	as.Map(heapBase, 1, f, 0, true, mem.ProtRead) // write-protected
	mc := New(Config{Cores: 1, Seed: 1, Mem: m})
	mc.Thread(0).SetSpace(as)
	faults := 0
	mc.SetHooks(Hooks{
		OnFault: func(th *Thread, acc *Access, flt *mem.Fault) (bool, int64) {
			faults++
			if flt.Kind != mem.FaultProtWrite {
				t.Errorf("fault kind %v", flt.Kind)
			}
			if err := as.Protect(heapBase, 1, true, mem.ProtRW); err != nil {
				t.Error(err)
			}
			return true, 8000
		},
	})
	err := mc.Run([]func(*Thread){func(th *Thread) {
		th.Store(1, heapBase+16, 8, 3)
	}})
	if err != nil {
		t.Fatal(err)
	}
	if faults != 1 {
		t.Errorf("faults %d, want 1", faults)
	}
	if mc.Elapsed() < 8000 {
		t.Error("fault cost not charged")
	}
}

func TestSpaceForHookRedirects(t *testing.T) {
	m := mem.NewMemory(mem.PageSize4K)
	f := m.NewFile("shm")
	shared := mem.NewAddrSpace(m)
	shared.Map(heapBase, 1, f, 0, false, mem.ProtRW)
	private := shared.Clone()
	if err := private.Protect(heapBase, 1, true, mem.ProtRW); err != nil {
		t.Fatal(err)
	}
	mc := New(Config{Cores: 1, Seed: 1, Mem: m})
	mc.Thread(0).SetSpace(private)
	mc.SetHooks(Hooks{
		SpaceFor: func(th *Thread, acc *Access) *mem.AddrSpace {
			if acc.Atomic {
				return shared
			}
			return nil
		},
	})
	err := mc.Run([]func(*Thread){func(th *Thread) {
		th.Store(1, heapBase, 8, 10)                                         // private COW write
		th.AtomicRMW(2, heapBase+8, 8, func(old uint64) uint64 { return 1 }) // shared
	}})
	if err != nil {
		t.Fatal(err)
	}
	str, _ := shared.Translate(heapBase, false)
	if mem.LoadUint(str, 8) != 0 {
		t.Error("plain store should have gone to the private copy")
	}
	str2, _ := shared.Translate(heapBase+8, false)
	if mem.LoadUint(str2, 8) != 1 {
		t.Error("atomic should have gone to the shared view")
	}
}

func TestPostAccessSamplingSeesHITM(t *testing.T) {
	mc, _ := newMachine(t, 2)
	hitm := 0
	mc.SetHooks(Hooks{
		PostAccess: func(th *Thread, acc *Access, res cache.Result) int64 {
			if res.HITM {
				hitm++
				return 2000
			}
			return 0
		},
	})
	body := func(th *Thread) {
		for i := 0; i < 50; i++ {
			th.Store(1, heapBase+uint64(th.ID)*8, 8, 1)
		}
	}
	if err := mc.Run([]func(*Thread){body, body}); err != nil {
		t.Fatal(err)
	}
	if hitm == 0 {
		t.Error("sampler saw no HITM on a false-sharing workload")
	}
	if mc.Thread(0).Stats.HITM == 0 && mc.Thread(1).Stats.HITM == 0 {
		t.Error("thread stats should count HITM")
	}
}

func TestStreamChargesFaultsOnce(t *testing.T) {
	m := mem.NewMemory(mem.PageSize4K)
	as := mem.NewAddrSpace(m)
	as.MapBulk(0x4000_0000, 1<<20)
	mc := New(Config{Cores: 1, Seed: 1, Mem: m})
	mc.Thread(0).SetSpace(as)
	err := mc.Run([]func(*Thread){func(th *Thread) {
		th.Stream(1, 0x4000_0000, 1<<20, false)
		before := th.Clock()
		th.Stream(1, 0x4000_0000, 1<<20, false)
		delta := th.Clock() - before
		lines := int64((1 << 20) / cache.LineSize)
		if delta != lines*cache.LatStream {
			t.Errorf("second sweep should not re-fault: delta=%d", delta)
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	if ft := mc.Thread(0).Stats.FirstTouches; ft != (1<<20)/mem.PageSize4K {
		t.Errorf("first touches %d, want %d", ft, (1<<20)/mem.PageSize4K)
	}
}

func TestRegionCallbacksDelivered(t *testing.T) {
	mc, _ := newMachine(t, 1)
	var events []string
	mc.SetHooks(Hooks{
		RegionEnter: func(th *Thread, k RegionKind) { events = append(events, "enter:"+k.String()) },
		RegionExit:  func(th *Thread, k RegionKind) { events = append(events, "exit:"+k.String()) },
	})
	err := mc.Run([]func(*Thread){func(th *Thread) {
		th.EnterRegion(RegionAsm)
		th.Work(10)
		th.ExitRegion(RegionAsm)
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 || events[0] != "enter:asm" || events[1] != "exit:asm" {
		t.Errorf("events %v", events)
	}
}
