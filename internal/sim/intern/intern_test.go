package intern

import "testing"

func TestInternAssignsDenseIDs(t *testing.T) {
	tab := NewTable(4096)
	a := tab.Intern(0x1000_0000)
	b := tab.Intern(0x1000_1000)
	c := tab.Intern(0x7ff0_0000_0000) // far region: separate radix leaf
	if a != 0 || b != 1 || c != 2 {
		t.Fatalf("ids not dense: %d %d %d", a, b, c)
	}
	if got := tab.Intern(0x1000_0abc); got != a {
		t.Errorf("re-intern within page = %d, want %d", got, a)
	}
	if tab.Len() != 3 {
		t.Errorf("Len = %d, want 3", tab.Len())
	}
	if tab.Addr(b) != 0x1000_1000 {
		t.Errorf("Addr(b) = %#x", tab.Addr(b))
	}
}

func TestLookupMissesReturnNone(t *testing.T) {
	tab := NewTable(4096)
	tab.Intern(0x1000_0000)
	if got := tab.Lookup(0x1000_1000); got != None {
		t.Errorf("unmapped neighbour = %d, want None", got)
	}
	if got := tab.Lookup(0x7fff_ffff_f000); got != None {
		t.Errorf("address beyond every leaf = %d, want None", got)
	}
	if got := tab.Lookup(0x1000_0fff); got != 0 {
		t.Errorf("byte within interned page = %d, want 0", got)
	}
}

// TestInternFarAddresses: pages past the dense radix root (up to the top of
// the 64-bit space) intern into the overflow map in O(1) — the root stays
// small — and keep dense IDs, lookups and generations like any other page.
func TestInternFarAddresses(t *testing.T) {
	tab := NewTable(4096)
	near := tab.Intern(0x1000_0000)
	top := tab.Intern(^uint64(0))
	mid := tab.Intern(1 << 62)
	if near != 0 || top != 1 || mid != 2 {
		t.Fatalf("ids not dense: %d %d %d", near, top, mid)
	}
	if len(tab.root) > maxDenseLeaves {
		t.Fatalf("root grew to %d leaves, cap %d", len(tab.root), maxDenseLeaves)
	}
	if got := tab.Intern(^uint64(0) - 5); got != top {
		t.Errorf("re-intern within the top page = %d, want %d", got, top)
	}
	if got := tab.Lookup(1<<62 + 0xfff); got != mid {
		t.Errorf("Lookup within far page = %d, want %d", got, mid)
	}
	if got := tab.Lookup(1<<62 + 0x1000); got != None {
		t.Errorf("far neighbour = %d, want None", got)
	}
	if tab.Addr(top) != ^uint64(0)&^0xfff {
		t.Errorf("Addr(top) = %#x", tab.Addr(top))
	}
	tab.Invalidate(mid)
	if tab.Gen(mid) != 1 || tab.Gen(top) != 0 {
		t.Errorf("generations %d/%d, want 1/0", tab.Gen(mid), tab.Gen(top))
	}
}

// TestLeavesGrowOnDemand: a leaf is allocated only up to the highest index
// interned in it, doubling from minLeaf entries. Each case interns a first
// page at leaf index first, then a second page at leaf index then, and
// checks that the leaf spans no more than it must, that lookups past the
// grown leaf miss, and that PageIDs and generations survive the growth.
func TestLeavesGrowOnDemand(t *testing.T) {
	const pageSize = 4096
	const leafBase = uint64(3<<leafBits) * pageSize // leaf 3: a root with empty leaves below
	page := func(li uint64) uint64 { return leafBase + li*pageSize }
	for _, tc := range []struct {
		name        string
		first, then uint64
		wantLen     int // leaf length after the first intern
	}{
		{"index 0", 0, 1 << leafBits / 2, minLeaf},
		{"last of first allocation", minLeaf - 1, minLeaf, minLeaf},
		{"first past first allocation", minLeaf, 1<<leafBits - 1, 2 * minLeaf},
		{"index 129", 129, 130, 256},
		{"last index", 1<<leafBits - 1, 0, 1 << leafBits},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tab := NewTable(pageSize)
			a := tab.Intern(page(tc.first) + 0x123)
			leaf := tab.root[3]
			if len(leaf) != tc.wantLen {
				t.Fatalf("leaf length %d after interning index %d, want %d", len(leaf), tc.first, tc.wantLen)
			}
			for i := 0; i < 3; i++ {
				if tab.root[i] != nil {
					t.Errorf("leaf %d allocated, want nil", i)
				}
			}
			if got := tab.Lookup(page(tc.first)); got != a {
				t.Errorf("Lookup(first) = %d, want %d", got, a)
			}
			if n := uint64(len(leaf)); n < 1<<leafBits {
				if got := tab.Lookup(page(n)); got != None {
					t.Errorf("Lookup past the grown leaf (index %d) = %d, want None", n, got)
				}
				if got := tab.Lookup(page(1<<leafBits - 1)); got != None {
					t.Errorf("Lookup of the leaf's last index = %d, want None", got)
				}
			}
			if got := tab.Lookup(page(0) - pageSize); got != None {
				t.Errorf("Lookup in an unallocated leaf = %d, want None", got)
			}

			tab.Invalidate(a)
			b := tab.Intern(page(tc.then))
			if b != a+1 {
				t.Errorf("second page id = %d, want %d", b, a+1)
			}
			grown := tab.root[3]
			if len(grown) < int(max(tc.first, tc.then))+1 || len(grown) > 1<<leafBits || len(grown)&(len(grown)-1) != 0 {
				t.Errorf("leaf length %d after interning %d and %d", len(grown), tc.first, tc.then)
			}
			if got := tab.Lookup(page(tc.first)); got != a {
				t.Errorf("first page id after growth = %d, want %d", got, a)
			}
			if got := tab.Lookup(page(tc.then)); got != b {
				t.Errorf("Lookup(second) = %d, want %d", got, b)
			}
			if tab.Gen(a) != 1 || tab.Gen(b) != 0 {
				t.Errorf("generations after growth %d/%d, want 1/0", tab.Gen(a), tab.Gen(b))
			}
			if tab.Addr(a) != page(tc.first) {
				t.Errorf("Addr(first) = %#x, want %#x", tab.Addr(a), page(tc.first))
			}
			for li := uint64(0); li < uint64(len(grown)); li++ {
				if li != tc.first && li != tc.then && grown[li] != None {
					t.Fatalf("leaf index %d = %d, want None", li, grown[li])
				}
			}
		})
	}
}

func TestInvalidateBumpsGeneration(t *testing.T) {
	tab := NewTable(4096)
	id := tab.Intern(0x2000_0000)
	g := tab.Gen(id)
	tab.Invalidate(id)
	if tab.Gen(id) != g+1 {
		t.Errorf("Gen after Invalidate = %d, want %d", tab.Gen(id), g+1)
	}
	// The identity survives invalidation; only cached state dies.
	if tab.Lookup(0x2000_0000) != id {
		t.Error("Invalidate must not remove the interning")
	}
}

func TestGrow(t *testing.T) {
	var s []int
	s = Grow(s, 0)
	if len(s) < 1 {
		t.Fatal("Grow(0) too short")
	}
	s[0] = 7
	s = Grow(s, PageID(100))
	if len(s) < 101 || s[0] != 7 {
		t.Fatalf("Grow lost data: len=%d s0=%d", len(s), s[0])
	}
}

func BenchmarkLookup(b *testing.B) {
	tab := NewTable(4096)
	for i := 0; i < 64; i++ {
		tab.Intern(0x1000_0000 + uint64(i)*4096)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if tab.Lookup(0x1000_0000+uint64(i&63)*4096) == None {
			b.Fatal("miss")
		}
	}
}
