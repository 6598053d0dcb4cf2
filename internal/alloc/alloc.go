// Package alloc implements the memory allocator the simulated applications
// use: a size-classed arena allocator in the style of the Lockless allocator
// the paper uses for both its baseline and TMI.
//
// Allocator placement policy is a first-class experimental variable here:
// false sharing bugs like lu-ncb's exist or vanish purely as a function of
// the alignment the allocator hands out, and TMI's redirection of
// allocations into process-shared file-backed memory is what changes fault
// costs (Figure 10) and enables per-page remapping at all.
package alloc

import (
	"fmt"

	"repro/internal/sim/mem"
)

// HeapBase is where the simulated application heap starts.
const HeapBase uint64 = 0x1000_0000

// BulkBase is where bulk (streamed, never byte-addressed) regions start.
const BulkBase uint64 = 0x10_0000_0000

// GlobalsBase is where the program's globals (the .data/.bss analog) start.
// TMI's detector monitors globals as well as the heap (§3.1), and its
// shared-memory region hosts them so globals pages can be repaired too.
const GlobalsBase uint64 = 0x0800_0000

// StateBase is where TMI's always-shared state region (padded
// synchronization objects, runtime metadata) lives (Figure 6).
const StateBase uint64 = 0x7000_0000

// StateSize bounds the state region: it is reserved in full, mapped only as
// AllocState reaches into it.
const StateSize uint64 = 32 << 20

// Backing identifies what kind of memory backs the heap, which drives the
// first-touch fault cost (Figure 10's 4 KiB-vs-huge-page comparison).
type Backing int

// Backing kinds.
const (
	// BackingAnon models private anonymous mmap/sbrk memory (the pthreads
	// baseline).
	BackingAnon Backing = iota
	// BackingSharedFile models TMI's process-shared file-backed memory.
	BackingSharedFile
	// BackingSharedHuge is shared file-backed memory with 2 MiB pages.
	BackingSharedHuge
)

// First-touch fault costs by backing (cycles). Shared file-backed mappings
// must push changes through to the file and fault more expensively; huge
// pages fault rarely but each fault populates more.
const (
	FaultAnon       = 1200
	FaultSharedFile = 6500
	FaultSharedHuge = 9500
)

// FaultCost returns the per-fault cost for a backing.
func (b Backing) FaultCost() int64 {
	switch b {
	case BackingSharedFile:
		return FaultSharedFile
	case BackingSharedHuge:
		return FaultSharedHuge
	default:
		return FaultAnon
	}
}

// Policy is an allocator placement policy.
type Policy struct {
	// Name for reports.
	Name string
	// DefaultAlign is the alignment AllocDefault uses for small objects
	// (Lockless uses 16).
	DefaultAlign int
	// LargeAlign is the alignment for allocations of LargeThreshold bytes
	// or more; TMI's allocator rounds these to cache lines, which is what
	// incidentally repairs lu-ncb.
	LargeAlign     int
	LargeThreshold int
	// PerOpCycles models the allocator's own cost per allocation.
	PerOpCycles int64
}

// LocklessPolicy is the baseline allocator policy.
func LocklessPolicy() Policy {
	return Policy{Name: "lockless", DefaultAlign: 16, LargeAlign: 16, LargeThreshold: 1 << 10, PerOpCycles: 60}
}

// TMIPolicy is TMI's allocator: identical except large allocations are
// cache-line aligned in the process-shared region.
func TMIPolicy() Policy {
	return Policy{Name: "tmi", DefaultAlign: 16, LargeAlign: 64, LargeThreshold: 1 << 10, PerOpCycles: 60}
}

// PaddedPolicy is the pad repair backend's placement policy: every
// allocation gets its own cache line, so no two objects can ever share
// one. The per-op cost is higher (size-class rounding to lines) and small
// objects waste up to a line of slack — the memory-for-contention trade
// the policy table quantifies.
func PaddedPolicy() Policy {
	return Policy{Name: "padded", DefaultAlign: 64, LargeAlign: 64, LargeThreshold: 1 << 10, PerOpCycles: 70}
}

// region is one file-backed range (heap, globals, TMI state): a bump
// pointer whose pages are mapped, shared, in every registered space as the
// pointer crosses into them.
type region struct {
	base, next uint64
	name       string    // file name, for a file created on first use
	file       *mem.File // nil until the first page is mapped
	pages      uint64    // mapped pages
}

// Allocator hands out simulated addresses in the heap, globals and TMI state
// regions and keeps them mapped in every registered address space.
type Allocator struct {
	policy   Policy
	backing  Backing
	spaces   []*mem.AddrSpace
	pageSize uint64

	heap, globals, state region
	bulkNext             uint64

	// freeLists recycles small blocks by size class (powers of two from
	// MinClass to MaxClass), as Lockless does; larger blocks are not
	// recycled.
	freeLists map[int][]uint64

	// Stats.
	Allocations uint64
	Frees       uint64
	Reuses      uint64
	HeapBytes   uint64
	BulkBytes   uint64
	// PolicySwitches counts mid-run SetPolicy calls (pad repair backend).
	PolicySwitches uint64
}

// Size-class bounds for the free lists.
const (
	MinClass = 16
	MaxClass = 4096
)

// classFor rounds n up to its size class, or 0 if unclassed.
func classFor(n int) int {
	if n <= 0 || n > MaxClass {
		return 0
	}
	c := MinClass
	for c < n {
		c <<= 1
	}
	return c
}

// New creates an allocator over file with the given policy and backing.
// Spaces registered with AddSpace get the heap, globals and state regions
// mapped as they grow.
func New(policy Policy, backing Backing, file *mem.File, pageSize int) *Allocator {
	return &Allocator{
		policy:   policy,
		backing:  backing,
		pageSize: uint64(pageSize),
		heap:     region{base: HeapBase, next: HeapBase, file: file},
		globals:  region{base: GlobalsBase, next: GlobalsBase, name: "globals"},
		state:    region{base: StateBase, next: StateBase, name: "tmistate"},
		bulkNext: BulkBase,
	}
}

// Policy returns the active placement policy.
func (a *Allocator) Policy() Policy { return a.policy }

// SetPolicy swaps the placement policy for subsequent allocations (the pad
// repair backend re-segregates future objects this way; existing objects
// are handled at the cache model by IsolateLine). Free lists are dropped:
// blocks carved under the old alignment must not be recycled into the new
// regime.
func (a *Allocator) SetPolicy(p Policy) {
	a.policy = p
	a.freeLists = map[int][]uint64{}
	a.PolicySwitches++
}

// Backing returns the heap's backing kind.
func (a *Allocator) Backing() Backing { return a.backing }

// AddSpace registers an address space; already-mapped pages are mapped into
// it immediately.
func (a *Allocator) AddSpace(s *mem.AddrSpace) {
	for _, r := range []*region{&a.heap, &a.globals, &a.state} {
		r.mapInto(s, 0, a.pageSize)
	}
	if a.bulkNext > BulkBase {
		s.MapBulk(BulkBase, a.bulkNext-BulkBase)
	}
	a.spaces = append(a.spaces, s)
}

// Alloc returns n fresh bytes aligned to align, reusing a freed block of
// the same size class when one satisfies the alignment.
func (a *Allocator) Alloc(n, align int) uint64 {
	if n <= 0 {
		panic("alloc: non-positive size")
	}
	if align < 1 {
		align = 1
	}
	if c := classFor(n); c != 0 && c >= align {
		if list := a.freeLists[c]; len(list) > 0 {
			for i, addr := range list {
				if addr%uint64(align) == 0 {
					a.freeLists[c] = append(list[:i], list[i+1:]...)
					a.Allocations++
					a.Reuses++
					return addr
				}
			}
		}
	}
	addr := a.bump(&a.heap, n, align)
	a.Allocations++
	a.HeapBytes = a.heap.next - HeapBase
	return addr
}

// Free recycles a block of n bytes at addr into its size-class free list.
// Blocks above MaxClass are abandoned (arena reclamation is out of scope,
// as in the real Lockless fast path).
func (a *Allocator) Free(addr uint64, n int) {
	c := classFor(n)
	if c == 0 {
		return
	}
	if a.freeLists == nil {
		a.freeLists = make(map[int][]uint64)
	}
	a.freeLists[c] = append(a.freeLists[c], addr)
	a.Frees++
}

// AllocDefault allocates with the policy's placement rules.
func (a *Allocator) AllocDefault(n int) uint64 {
	align := a.policy.DefaultAlign
	if n >= a.policy.LargeThreshold {
		align = a.policy.LargeAlign
	}
	return a.Alloc(n, align)
}

// AllocGlobal places n bytes in the globals region (a static/global
// variable). Globals live in their own pages of the shared file, mapped in
// every registered space.
func (a *Allocator) AllocGlobal(n, align int) uint64 {
	if n <= 0 {
		panic("alloc: non-positive global size")
	}
	if align < 1 {
		align = 1
	}
	addr := a.bump(&a.globals, n, align)
	a.Allocations++
	return addr
}

// GlobalsEnd returns the first address past the mapped globals.
func (a *Allocator) GlobalsEnd() uint64 { return a.globals.end(a.pageSize) }

// AllocState places n bytes in TMI's always-shared state region, where the
// process-shared synchronization objects live. Running past StateSize
// panics.
func (a *Allocator) AllocState(n int) uint64 {
	if n <= 0 {
		panic("alloc: non-positive state size")
	}
	if a.state.next+uint64(n) > StateBase+StateSize {
		panic("alloc: state region exhausted")
	}
	return a.bump(&a.state, n, 1)
}

// AllocBulk reserves n bytes of bulk data in every registered space.
func (a *Allocator) AllocBulk(n int64) uint64 {
	if n <= 0 {
		panic("alloc: non-positive bulk size")
	}
	addr := a.bulkNext
	size := (uint64(n) + a.pageSize - 1) &^ (a.pageSize - 1)
	a.bulkNext += size
	a.BulkBytes += size
	a.heap.file.Memory().Reserve(size)
	for _, s := range a.spaces {
		s.MapBulk(addr, size)
	}
	return addr
}

// PerOpCycles reports the allocator's modeled per-allocation cost.
func (a *Allocator) PerOpCycles() int64 { return a.policy.PerOpCycles }

// bump carves n bytes aligned to align from r and maps the pages the
// region grew into in every registered space.
func (a *Allocator) bump(r *region, n, align int) uint64 {
	addr := (r.next + uint64(align) - 1) &^ (uint64(align) - 1)
	r.next = addr + uint64(n)
	need := (r.next - r.base + a.pageSize - 1) / a.pageSize
	if need > r.pages {
		if r.file == nil {
			r.file = a.heap.file.Memory().NewFile(r.name)
		}
		from := r.pages
		r.pages = need
		for _, s := range a.spaces {
			r.mapInto(s, from, a.pageSize)
		}
	}
	return addr
}

// mapInto maps r's pages from page index from up to its mapped size into s.
func (r *region) mapInto(s *mem.AddrSpace, from, pageSize uint64) {
	if r.pages > from {
		s.Map(r.base+from*pageSize, int(r.pages-from), r.file, int(from), false, mem.ProtRW)
	}
}

// end returns the first address past r's mapped pages.
func (r *region) end(pageSize uint64) uint64 { return r.base + r.pages*pageSize }

// HeapPages reports the mapped heap size in pages.
func (a *Allocator) HeapPages() int { return int(a.heap.pages) }

// HeapEnd returns the first address past the allocated heap.
func (a *Allocator) HeapEnd() uint64 { return a.heap.end(a.pageSize) }

// String describes the allocator configuration.
func (a *Allocator) String() string {
	return fmt.Sprintf("%s allocator (backing=%d, page=%d)", a.policy.Name, a.backing, a.pageSize)
}
