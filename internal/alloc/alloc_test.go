package alloc

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/sim/mem"
)

func newAlloc(policy Policy, pageSize int) (*Allocator, *mem.AddrSpace) {
	m := mem.NewMemory(pageSize)
	f := m.NewFile("heap")
	a := New(policy, BackingSharedFile, f, pageSize)
	as := mem.NewAddrSpace(m)
	a.AddSpace(as)
	return a, as
}

func TestAllocAlignmentAndNonOverlap(t *testing.T) {
	a, _ := newAlloc(LocklessPolicy(), mem.PageSize4K)
	type blk struct{ addr, size uint64 }
	var blks []blk
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 500; i++ {
		n := rng.Intn(200) + 1
		aligns := []int{1, 8, 16, 64, 128}
		al := aligns[rng.Intn(len(aligns))]
		addr := a.Alloc(n, al)
		if addr%uint64(al) != 0 {
			t.Fatalf("alloc %d align %d returned 0x%x", n, al, addr)
		}
		for _, b := range blks {
			if addr < b.addr+b.size && b.addr < addr+uint64(n) {
				t.Fatalf("overlap: [0x%x,+%d) with [0x%x,+%d)", addr, n, b.addr, b.size)
			}
		}
		blks = append(blks, blk{addr, uint64(n)})
	}
	if a.Allocations != 500 {
		t.Errorf("allocations %d", a.Allocations)
	}
}

func TestAllocatedMemoryIsMapped(t *testing.T) {
	a, as := newAlloc(LocklessPolicy(), mem.PageSize4K)
	addr := a.Alloc(100_000, 8) // spans many pages
	for off := uint64(0); off < 100_000; off += 4096 {
		if _, fault := as.Translate(addr+off, true); fault != nil {
			t.Fatalf("allocated page unmapped at +%d: %v", off, fault)
		}
	}
}

func TestLateSpaceSeesExistingHeap(t *testing.T) {
	a, _ := newAlloc(LocklessPolicy(), mem.PageSize4K)
	addr := a.Alloc(64, 8)
	late := mem.NewAddrSpace(mem.NewMemory(mem.PageSize4K))
	_ = late // wrong memory: build from same memory instead
	a.AllocBulk(1 << 20)
	s2 := mem.NewAddrSpace(a.heap.file.Memory())
	a.AddSpace(s2)
	if _, fault := s2.Translate(addr, true); fault != nil {
		t.Fatalf("late space missing heap mapping: %v", fault)
	}
	if s2.BulkAt(BulkBase) == nil {
		t.Fatal("late space missing bulk region")
	}
}

func TestPolicyLargeAlignmentDiffers(t *testing.T) {
	// The lu-ncb mechanism: a large allocation after an odd-sized one is
	// line-aligned under TMI's policy but not under Lockless.
	lockless, _ := newAlloc(LocklessPolicy(), mem.PageSize4K)
	lockless.Alloc(24, 8)
	if addr := lockless.AllocDefault(8192); addr%64 == 0 {
		t.Errorf("lockless large alloc unexpectedly line-aligned: 0x%x", addr)
	}
	tmip, _ := newAlloc(TMIPolicy(), mem.PageSize4K)
	tmip.Alloc(24, 8)
	if addr := tmip.AllocDefault(8192); addr%64 != 0 {
		t.Errorf("tmi large alloc not line-aligned: 0x%x", addr)
	}
	// Small allocations keep the same placement under both policies.
	if l, tm := LocklessPolicy(), TMIPolicy(); l.DefaultAlign != tm.DefaultAlign {
		t.Error("small-object policy should match")
	}
}

func TestBulkAccounting(t *testing.T) {
	a, as := newAlloc(TMIPolicy(), mem.PageSize4K)
	addr := a.AllocBulk(10 << 20)
	if a.BulkBytes != 10<<20 {
		t.Errorf("bulk bytes %d", a.BulkBytes)
	}
	if as.BulkAt(addr) == nil {
		t.Error("bulk region not mapped")
	}
	if got := a.heap.file.Memory().AccountedBytes(); got < 10<<20 {
		t.Errorf("accounted %d, want >= 10MB", got)
	}
	// Second region follows the first.
	addr2 := a.AllocBulk(1 << 20)
	if addr2 < addr+10<<20 {
		t.Error("bulk regions overlap")
	}
}

func TestFaultCostsOrdered(t *testing.T) {
	if !(BackingAnon.FaultCost() < BackingSharedFile.FaultCost() &&
		BackingSharedFile.FaultCost() < BackingSharedHuge.FaultCost()) {
		t.Error("fault costs should order anon < shared file < huge")
	}
}

// Property: writes through one space to allocator memory are visible in
// every registered space (shared heap mapping).
func TestQuickSharedHeapVisibility(t *testing.T) {
	check := func(seed int64) bool {
		a, s1 := newAlloc(TMIPolicy(), mem.PageSize4K)
		s2 := mem.NewAddrSpace(a.heap.file.Memory())
		a.AddSpace(s2)
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 50; i++ {
			addr := a.Alloc(8, 8)
			v := rng.Uint64()
			tr, fault := s1.Translate(addr, true)
			if fault != nil {
				return false
			}
			mem.StoreUint(tr, 8, v)
			tr2, fault := s2.Translate(addr, false)
			if fault != nil || mem.LoadUint(tr2, 8) != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestFreeListReuse(t *testing.T) {
	a, _ := newAlloc(LocklessPolicy(), mem.PageSize4K)
	p1 := a.Alloc(100, 16) // class 128
	a.Free(p1, 100)
	p2 := a.Alloc(120, 16) // same class: reused
	if p2 != p1 {
		t.Errorf("expected reuse of 0x%x, got 0x%x", p1, p2)
	}
	if a.Reuses != 1 || a.Frees != 1 {
		t.Errorf("stats reuses=%d frees=%d", a.Reuses, a.Frees)
	}
	// A different class does not reuse.
	p3 := a.Alloc(300, 16)
	if p3 == p1 {
		t.Error("cross-class reuse")
	}
}

func TestFreeRespectsAlignment(t *testing.T) {
	a, _ := newAlloc(LocklessPolicy(), mem.PageSize4K)
	p1 := a.Alloc(64, 16)
	if p1%128 == 0 {
		p1 = a.Alloc(64, 16) // ensure a block that is not 128-aligned
	}
	a.Free(p1, 64)
	p2 := a.Alloc(64, 128)
	if p2 == p1 && p1%128 != 0 {
		t.Error("reused a block violating the requested alignment")
	}
}

func TestFreeLargeBlocksAbandoned(t *testing.T) {
	a, _ := newAlloc(LocklessPolicy(), mem.PageSize4K)
	big := a.Alloc(1<<20, 64)
	a.Free(big, 1<<20)
	if a.Frees != 0 {
		t.Error("blocks above MaxClass are not recycled")
	}
	if got := a.Alloc(1<<20, 64); got == big {
		t.Error("large block unexpectedly reused")
	}
}

func TestClassFor(t *testing.T) {
	cases := map[int]int{1: 16, 16: 16, 17: 32, 100: 128, 4096: 4096, 4097: 0, 0: 0, -5: 0}
	for n, want := range cases {
		if got := classFor(n); got != want {
			t.Errorf("classFor(%d) = %d, want %d", n, got, want)
		}
	}
}

// TestAllocStateMapsOnDemand: state objects land in the always-shared state
// region, which is mapped page by page as it grows — into spaces registered
// later too — and stays shared across a fork, and the region's reserved size
// is a hard bound.
func TestAllocStateMapsOnDemand(t *testing.T) {
	t.Run("late space", func(t *testing.T) {
		a, _ := newAlloc(TMIPolicy(), mem.PageSize4K)
		first := a.AllocState(64)
		if first != StateBase {
			t.Fatalf("first state object at 0x%x, want StateBase 0x%x", first, StateBase)
		}
		late := mem.NewAddrSpace(a.heap.file.Memory())
		a.AddSpace(late)
		a.AllocState(mem.PageSize4K) // reaches into the second page
		for _, addr := range []uint64{first, StateBase + mem.PageSize4K} {
			if _, fault := late.Translate(addr, true); fault != nil {
				t.Fatalf("state 0x%x unmapped in late space: %v", addr, fault)
			}
		}
		if _, fault := late.Translate(StateBase+2*mem.PageSize4K, false); fault == nil {
			t.Error("state page past the bump pointer is mapped")
		}
	})
	t.Run("shared across clone", func(t *testing.T) {
		a, parent := newAlloc(TMIPolicy(), mem.PageSize4K)
		addr := a.AllocState(64)
		child := parent.Clone()
		tr, fault := child.Translate(addr, true)
		if fault != nil {
			t.Fatal(fault)
		}
		mem.StoreUint(tr, 8, 0xfeed)
		tr, fault = parent.Translate(addr, false)
		if fault != nil || mem.LoadUint(tr, 8) != 0xfeed {
			t.Fatal("child's write to a state object is not visible to the parent")
		}
	})
	t.Run("exhaustion panics", func(t *testing.T) {
		a, _ := newAlloc(TMIPolicy(), mem.PageSize2M)
		a.AllocState(int(StateSize) - 64)
		a.AllocState(64) // exactly fills the region
		defer func() {
			if recover() == nil {
				t.Error("allocating past StateSize did not panic")
			}
		}()
		a.AllocState(1)
	})
}
