// Package mem implements the simulated physical and virtual memory substrate
// that the rest of the system runs on: physical pages, shared-memory files
// (the analog of shm_open + mmap regions), per-process address spaces with
// shared and private (copy-on-write) mappings, page protections, and page
// faults.
//
// TMI's repair mechanism is entirely a story about memory mappings — the same
// virtual page backed by different physical pages in different processes —
// so this package models mappings at byte fidelity: every simulated load and
// store reads or writes real bytes in a real backing page, which is what lets
// the consistency-model experiments (word tearing, lost atomic updates, stuck
// flags) reproduce for real rather than by assertion.
package mem

import (
	"fmt"
	"sync"

	"repro/internal/sim/intern"
)

// Page sizes supported by the simulated MMU.
const (
	PageSize4K = 4 << 10
	PageSize2M = 2 << 20
	// LineSize is the cache line size used throughout the simulator.
	LineSize = 64
)

// Page is one physical page. PhysID is globally unique and is what the cache
// coherence simulator keys on: two virtual mappings alias (and can falsely
// share) exactly when they resolve to the same PhysID.
type Page struct {
	PhysID uint64
	Data   []byte
}

// Memory is the physical memory manager. It allocates pages for files,
// anonymous regions and COW copies, and keeps the global accounting used by
// the memory-overhead experiments (Figure 8).
type Memory struct {
	mu        sync.Mutex
	pageSize  int
	nextPhys  uint64
	pageCount int    // materialized pages
	reserved  uint64 // nominal bytes reserved (incl. never-touched bulk data)
	files     []*File
	// pageTable interns virtual page addresses for the whole run. All
	// address spaces over this Memory share it, so PageIDs are comparable
	// across processes (the PTSB and detector rely on that).
	pageTable *intern.Table
}

// NewMemory returns a Memory whose files use the given page size
// (PageSize4K or PageSize2M).
func NewMemory(pageSize int) *Memory {
	if pageSize != PageSize4K && pageSize != PageSize2M {
		panic(fmt.Sprintf("mem: unsupported page size %d", pageSize))
	}
	return &Memory{pageSize: pageSize, nextPhys: 1, pageTable: intern.NewTable(pageSize)}
}

// PageSize reports the page size this memory was configured with.
func (m *Memory) PageSize() int { return m.pageSize }

// PageTable returns the run-wide virtual-page interning table.
func (m *Memory) PageTable() *intern.Table { return m.pageTable }

// NewFile creates a shared-memory file (the analog of shm_open). Pages are
// materialized lazily on first touch.
func (m *Memory) NewFile(name string) *File {
	m.mu.Lock()
	defer m.mu.Unlock()
	f := &File{mem: m, Name: name, pages: make(map[int]*Page)}
	m.files = append(m.files, f)
	return f
}

// NewAnonPage allocates a standalone physical page (used for COW copies and
// PTSB twins).
func (m *Memory) NewAnonPage() *Page {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.newPageLocked()
}

func (m *Memory) newPageLocked() *Page {
	p := &Page{PhysID: m.nextPhys, Data: make([]byte, m.pageSize)}
	m.nextPhys++
	m.pageCount++
	return p
}

// Reserve records nominal bytes for accounting without materializing pages.
// Bulk workload datasets (tens of GB in the paper) are reserved, streamed
// over with modeled latency, and never materialized on the host.
func (m *Memory) Reserve(bytes uint64) {
	m.mu.Lock()
	m.reserved += bytes
	m.mu.Unlock()
}

// MaterializedPages reports how many physical pages exist on the host.
func (m *Memory) MaterializedPages() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.pageCount
}

// AccountedBytes reports the simulated memory footprint: reserved bulk bytes
// plus all materialized pages.
func (m *Memory) AccountedBytes() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.reserved + uint64(m.pageCount)*uint64(m.pageSize)
}

// File is a shared-memory object: a lazily materialized array of physical
// pages that any number of address spaces can map, shared or private.
type File struct {
	mem   *Memory
	Name  string
	mu    sync.Mutex
	pages map[int]*Page
	size  int // highest mapped page index + 1 (nominal length in pages)
}

// Page returns the physical page at index i, materializing it (zeroed) on
// first use.
func (f *File) Page(i int) *Page {
	f.mu.Lock()
	defer f.mu.Unlock()
	if p, ok := f.pages[i]; ok {
		return p
	}
	f.mem.mu.Lock()
	p := f.mem.newPageLocked()
	f.mem.mu.Unlock()
	f.pages[i] = p
	if i >= f.size {
		f.size = i + 1
	}
	return p
}

// PageSize reports the page size of the file's backing memory.
func (f *File) PageSize() int { return f.mem.pageSize }

// Memory returns the physical memory manager backing the file.
func (f *File) Memory() *Memory { return f.mem }
