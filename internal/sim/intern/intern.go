// Package intern assigns dense integer identities to the sparse 64-bit
// virtual page addresses the simulator is keyed on everywhere else.
//
// The per-access pipeline (machine → mem translation → cache coherence →
// ptsb protection) used to walk a map[uint64] at every layer for every
// simulated access. Interning moves all of that hashing to the cold path: a
// page is assigned a small dense PageID exactly once, when it is mapped, and
// every hot structure downstream becomes a PageID-indexed slice. Lookup on
// the access path is two array indexes through a two-level radix table — no
// hashing, no allocation.
//
// Pages also carry a generation counter. Consumers that cache per-page state
// under a PageID (the PTSB's twins, protection bits and page activity)
// snapshot the generation when they store and compare when they read:
// remapping or unmapping a page bumps the generation, which invalidates all
// downstream state for that PageID in O(1) without enumerating the
// consumers. The detector reads generations the same way to drop a line's
// spans when its page is remapped mid-window.
package intern

import "fmt"

// PageID is a dense identity for one virtual page base address. IDs are
// assigned contiguously from 0 in interning order and never reused, so they
// index slices directly.
type PageID int32

// None marks "not interned" (the page has never been mapped).
const None PageID = -1

// leafBits sizes a radix leaf: one leaf covers up to 1<<leafBits
// consecutive virtual pages, so the handful of simulated regions (globals,
// heap, TMI state, libc, stacks) touch only a few leaves each. A leaf is
// grown on demand, doubling from minLeaf entries, so it only spans the
// highest index interned in it: a region of a few pages near a leaf's base
// pays 64 bytes, not the 64 KiB a full leaf (4-byte entries) would cost.
const leafBits = 14

// minLeaf is a leaf's first allocation, in entries.
const minLeaf = 16

// maxDenseLeaves caps the radix root. Pages whose leaf index falls past it
// (4 KiB pages above 256 GiB, e.g. stack or kernel addresses) are interned
// in a map instead: growing the root to reach them would cost memory
// proportional to the address, and one page near 2^64 would never finish
// allocating.
const maxDenseLeaves = 1 << 12

// Table interns virtual page base addresses. It is owned by one simulated
// run (one mem.Memory) and shared by every address space of that run: all
// spaces agree on the virtual layout, so a single addr→PageID mapping serves
// them all. Table is not safe for concurrent use; like the rest of the
// simulator it relies on the machine's one-token execution discipline.
type Table struct {
	shift uint // log2(page size)
	root  [][]PageID
	far   map[uint64]PageID // vpn -> PageID, for leaves past maxDenseLeaves
	addrs []uint64          // PageID -> page base address
	gens  []uint32          // PageID -> generation (bumped on remap/unmap)
}

// NewTable returns an empty table for the given page size (a power of two).
func NewTable(pageSize int) *Table {
	if pageSize <= 0 || pageSize&(pageSize-1) != 0 {
		panic(fmt.Sprintf("intern: page size %d is not a power of two", pageSize))
	}
	shift := uint(0)
	for 1<<shift != pageSize {
		shift++
	}
	return &Table{shift: shift}
}

// PageSize reports the page size the table was built for.
func (t *Table) PageSize() int { return 1 << t.shift }

// Len reports how many pages have been interned. Valid PageIDs are
// [0, Len()).
func (t *Table) Len() int { return len(t.addrs) }

// Intern returns addr's PageID, assigning the next dense ID on first sight.
// addr may be any byte address within the page. Intern is the cold path:
// it runs at map/allocation time, never per access.
func (t *Table) Intern(addr uint64) PageID {
	vpn := addr >> t.shift
	ri := vpn >> leafBits
	if ri >= maxDenseLeaves {
		if id, ok := t.far[vpn]; ok {
			return id
		}
		if t.far == nil {
			t.far = make(map[uint64]PageID)
		}
		id := t.add(vpn)
		t.far[vpn] = id
		return id
	}
	for uint64(len(t.root)) <= ri {
		t.root = append(t.root, nil)
	}
	leaf := t.root[ri]
	li := vpn & (1<<leafBits - 1)
	if li >= uint64(len(leaf)) {
		leaf = growLeaf(leaf, li)
		t.root[ri] = leaf
	}
	if id := leaf[li]; id != None {
		return id
	}
	id := t.add(vpn)
	leaf[li] = id
	return id
}

// growLeaf returns leaf doubled (from minLeaf entries) until it covers
// index li, keeping its entries and filling the new ones with None. The
// length stays a power of two no larger than 1<<leafBits.
func growLeaf(leaf []PageID, li uint64) []PageID {
	n := max(len(leaf), minLeaf)
	for uint64(n) <= li {
		n *= 2
	}
	grown := make([]PageID, n)
	copy(grown, leaf)
	for i := len(leaf); i < n; i++ {
		grown[i] = None
	}
	return grown
}

// add assigns the next dense PageID to page vpn.
func (t *Table) add(vpn uint64) PageID {
	id := PageID(len(t.addrs))
	t.addrs = append(t.addrs, vpn<<t.shift)
	t.gens = append(t.gens, 0)
	return id
}

// Lookup returns addr's PageID, or None if the page was never interned.
// This is the hot path: two array indexes, no allocation. A leaf covers
// only up to its highest interned index, so the bounds test doubles as the
// never-allocated-leaf test.
func (t *Table) Lookup(addr uint64) PageID {
	vpn := addr >> t.shift
	ri := vpn >> leafBits
	if ri >= uint64(len(t.root)) {
		if id, ok := t.far[vpn]; ok {
			return id
		}
		return None
	}
	leaf := t.root[ri]
	li := vpn & (1<<leafBits - 1)
	if li >= uint64(len(leaf)) {
		return None
	}
	return leaf[li]
}

// Addr returns the page base address of id.
func (t *Table) Addr(id PageID) uint64 { return t.addrs[id] }

// Gen returns id's current generation. State cached under (id, gen) is
// valid only while Gen(id) still equals gen.
func (t *Table) Gen(id PageID) uint32 { return t.gens[id] }

// Invalidate bumps id's generation, logically clearing every consumer's
// cached per-page state for id (twins, protection bits, detector spans) in
// O(1). Called on unmap/remap.
func (t *Table) Invalidate(id PageID) { t.gens[id]++ }

// Grow extends a PageID-indexed slice so id is addressable, filling new
// entries with the zero value. The doubling keeps amortized growth cost on
// the cold (interning) path.
func Grow[T any](s []T, id PageID) []T {
	if int(id) < len(s) {
		return s
	}
	n := len(s)*2 + 1
	if n <= int(id) {
		n = int(id) + 1
	}
	ns := make([]T, n)
	copy(ns, s)
	return ns
}
