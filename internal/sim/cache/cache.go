// Package cache simulates an invalidation-based MESI cache coherence
// protocol across N cores, at cache-line granularity, keyed by *physical*
// line address. It is the substrate that makes false sharing exist at all in
// this reproduction: two threads whose virtual pages resolve to the same
// physical line contend here, and stop contending the moment TMI remaps one
// of them to a private physical page.
//
// The simulator enforces the single-writer/multiple-reader (SWMR) invariant
// and reports HITM ("hit modified") events — a request hitting a line that a
// remote core holds in Modified state — which are exactly the events Intel
// PEBS exposes and TMI's detector consumes.
//
// Physical page IDs are allocated densely from 1 (mem.Memory.nextPhys), so
// physical line addresses are dense too: the line directory is a block-paged
// slice indexed by line number, not a map. Every access is two array indexes
// and zero allocations in steady state; a block of 64 directory entries is
// allocated once, the first time any line in it is touched.
package cache

import (
	"fmt"
	"math/bits"
)

// State is a MESI line state as seen by one core.
type State uint8

// MESI states.
const (
	Invalid State = iota
	Shared
	Exclusive
	Modified
)

func (s State) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Exclusive:
		return "E"
	case Modified:
		return "M"
	}
	return "?"
}

// blockLines is the number of directory entries per allocated block: 64
// lines = one 4 KiB page's worth, the natural unit of physical-address
// density here.
const blockLines = 64

// line is the directory entry for one physical cache line.
type line struct {
	sharers uint64 // bitmask of cores holding a valid copy
	hitm    uint32 // HITM events observed on this line (detector ground truth)
	owner   int8   // core holding the line E or M, -1 if none
	dirty   bool   // owner holds the line Modified
}

// lineBlock holds the directory entries for blockLines consecutive lines.
type lineBlock [blockLines]line

func newLineBlock() *lineBlock {
	b := new(lineBlock)
	for i := range b {
		b[i].owner = -1
	}
	return b
}

// HITMEvent is emitted when an access by Core hits a line held Modified by
// Source. It is the raw hardware event behind PEBS sampling.
type HITMEvent struct {
	Core   int    // requesting core
	Source int    // core that held the line Modified
	Phys   uint64 // physical byte address of the access
	Write  bool   // the request was a store
}

// Result describes the outcome of one line access.
type Result struct {
	Latency int64
	HITM    bool
	Source  int // valid when HITM
}

// Stats aggregates coherence activity.
type Stats struct {
	Accesses      uint64
	L1Hits        uint64
	LLCHits       uint64
	DRAMFills     uint64
	HITM          uint64
	Upgrades      uint64
	Invalidations uint64
	Writebacks    uint64
	// Cross-socket events; always zero on the flat single-socket default.
	RemoteHITM  uint64 // HITMs served across the socket interconnect
	RemoteFills uint64 // LLC/DRAM fills whose home node was remote
}

// TrafficBytes estimates interconnect traffic: every cross-cache transfer,
// fill and writeback moves one line.
func (s Stats) TrafficBytes() uint64 {
	return (s.LLCHits + s.DRAMFills + s.HITM + s.Writebacks) * LineSize
}

// EnergyMicroJ estimates the energy cost of the observed memory activity —
// the "significant energy penalty for generating and processing cache
// coherence traffic" the paper's introduction cites. Per-event costs are
// EnergyL1/LLC/HITM/DRAM picojoules (params.go).
func (s Stats) EnergyMicroJ() float64 {
	pj := float64(s.L1Hits)*EnergyL1 +
		float64(s.LLCHits+s.Upgrades)*EnergyLLC +
		float64(s.HITM)*EnergyHITM +
		float64(s.DRAMFills+s.Writebacks)*EnergyDRAM
	return pj / 1e6
}

// System is the coherence fabric for a fixed set of cores.
type System struct {
	numCores int
	blocks   []*lineBlock // line directory, block-paged by line number
	stats    Stats
	onHITM   func(HITMEvent)
	// sockets > 1 activates the two-level topology (topology.go); 0 is the
	// flat single-socket default with no penalties anywhere.
	sockets int
	topo    Topology
	// isolated maps a line address to per-core private shadow entries (the
	// `pad` repair backend's re-segregation model); nil until the first
	// IsolateLine call.
	isolated map[uint64][]line
}

// New returns a coherence system for numCores cores (max 64). Private
// caches are unbounded: a core keeps every line it fetched until another
// core's store invalidates it (contention modeling does not depend on
// capacity).
func New(numCores int) *System {
	if numCores < 1 || numCores > 64 {
		panic(fmt.Sprintf("cache: unsupported core count %d", numCores))
	}
	return &System{numCores: numCores}
}

// getLine returns the directory entry for the line at physical line address
// la, allocating its block on first touch.
func (s *System) getLine(la uint64) *line {
	li := la / LineSize
	bi := li / blockLines
	for uint64(len(s.blocks)) <= bi {
		s.blocks = append(s.blocks, nil)
	}
	b := s.blocks[bi]
	if b == nil {
		b = newLineBlock()
		s.blocks[bi] = b
	}
	return &b[li%blockLines]
}

// peekLine returns the directory entry for la without allocating, or nil if
// its block was never touched.
func (s *System) peekLine(la uint64) *line {
	li := la / LineSize
	bi := li / blockLines
	if bi >= uint64(len(s.blocks)) || s.blocks[bi] == nil {
		return nil
	}
	return &s.blocks[bi][li%blockLines]
}

// OnHITM installs the HITM event callback (the PEBS sampler). The callback
// runs synchronously inside Access; it must not re-enter the System.
func (s *System) OnHITM(fn func(HITMEvent)) { s.onHITM = fn }

// NumCores reports the configured core count.
func (s *System) NumCores() int { return s.numCores }

// Stats returns a copy of the aggregate statistics.
func (s *System) Stats() Stats { return s.stats }

// HITMForLine reports the HITM count observed on the line containing phys.
func (s *System) HITMForLine(phys uint64) uint64 {
	if ln := s.peekLine(phys &^ (LineSize - 1)); ln != nil {
		return uint64(ln.hitm)
	}
	return 0
}

// StateOf reports core's MESI state for the line containing phys
// (test/debug use).
func (s *System) StateOf(core int, phys uint64) State {
	ln := s.peekLine(phys &^ (LineSize - 1))
	if ln == nil || ln.sharers&(1<<uint(core)) == 0 {
		return Invalid
	}
	if int(ln.owner) == core {
		if ln.dirty {
			return Modified
		}
		return Exclusive
	}
	return Shared
}

// Access performs a memory access of size bytes at physical address phys by
// core. Accesses that span a line boundary are split and their latencies
// accumulated (the HITM result reflects the first line that hit Modified
// remotely). atomic adds the locked-RMW cost.
func (s *System) Access(core int, phys uint64, size int, write, atomic bool) Result {
	if size <= 0 {
		size = 1
	}
	var res Result
	first := phys &^ (LineSize - 1)
	last := (phys + uint64(size) - 1) &^ (LineSize - 1)
	for la := first; ; la += LineSize {
		r := s.accessLine(core, la, write)
		res.Latency += r.Latency
		if r.HITM && !res.HITM {
			res.HITM = true
			res.Source = r.Source
			if s.onHITM != nil {
				s.onHITM(HITMEvent{Core: core, Source: r.Source, Phys: phys, Write: write})
			}
		}
		if la == last {
			break
		}
	}
	if atomic {
		res.Latency += LatAtomicExtra
	}
	return res
}

func (s *System) accessLine(core int, la uint64, write bool) Result {
	s.stats.Accesses++
	bit := uint64(1) << uint(core)
	var ln *line
	if s.isolated != nil {
		if sh, ok := s.isolated[la]; ok {
			// Re-segregated line: each core coheres against its private
			// shadow entry, so contention is impossible by construction.
			ln = &sh[core]
		}
	}
	if ln == nil {
		ln = s.getLine(la)
	}
	holds := ln.sharers&bit != 0
	remoteDirty := ln.dirty && int(ln.owner) != core

	if !write {
		switch {
		case holds:
			s.stats.L1Hits++
			return Result{Latency: LatL1Hit}
		case remoteDirty:
			// Remote core has the line Modified: HITM. The owner writes the
			// line back and both end up Shared.
			s.stats.HITM++
			s.stats.Writebacks++
			ln.hitm++
			src := int(ln.owner)
			ln.dirty = false
			ln.owner = -1
			ln.sharers |= bit
			return Result{Latency: LatHITM + s.hitmPenalty(core, src), HITM: true, Source: src}
		case ln.sharers != 0:
			// Clean copy in another cache / LLC.
			s.stats.LLCHits++
			ln.sharers |= bit
			if ln.owner >= 0 {
				// Demote a remote Exclusive holder to Shared.
				ln.owner = -1
			}
			return Result{Latency: LatLLC + s.fillPenalty(core, la)}
		default:
			s.stats.DRAMFills++
			ln.sharers = bit
			ln.owner = int8(core)
			ln.dirty = false // Exclusive
			return Result{Latency: LatDRAM + s.fillPenalty(core, la)}
		}
	}

	// Store path.
	switch {
	case holds && int(ln.owner) == core:
		// Already E or M locally.
		ln.dirty = true
		s.stats.L1Hits++
		return Result{Latency: LatL1Hit}
	case remoteDirty:
		// RFO hitting a remote Modified line: HITM for stores too.
		s.stats.HITM++
		s.stats.Writebacks++
		s.stats.Invalidations++
		ln.hitm++
		src := int(ln.owner)
		ln.sharers = bit
		ln.owner = int8(core)
		ln.dirty = true
		return Result{Latency: LatHITM + s.hitmPenalty(core, src), HITM: true, Source: src}
	case holds:
		// Shared locally: upgrade, invalidating other sharers.
		s.stats.Upgrades++
		s.invalidateOthers(ln, core)
		ln.sharers = bit
		ln.owner = int8(core)
		ln.dirty = true
		return Result{Latency: LatUpgrade}
	case ln.sharers != 0:
		// Clean copies elsewhere: invalidate and take ownership.
		s.stats.LLCHits++
		s.invalidateOthers(ln, core)
		ln.sharers = bit
		ln.owner = int8(core)
		ln.dirty = true
		return Result{Latency: LatLLC + s.fillPenalty(core, la)}
	default:
		s.stats.DRAMFills++
		ln.sharers = bit
		ln.owner = int8(core)
		ln.dirty = true
		return Result{Latency: LatDRAM + s.fillPenalty(core, la)}
	}
}

// CheckSWMR verifies the single-writer/multiple-reader invariant over every
// line and returns an error describing the first violation. Used by property
// tests.
func (s *System) CheckSWMR() error {
	for bi, b := range s.blocks {
		if b == nil {
			continue
		}
		for i := range b {
			ln := &b[i]
			la := (uint64(bi)*blockLines + uint64(i)) * LineSize
			if ln.dirty {
				if ln.owner < 0 {
					return fmt.Errorf("cache: line 0x%x dirty without owner", la)
				}
				if ln.sharers != 1<<uint(ln.owner) {
					return fmt.Errorf("cache: line 0x%x modified by core %d but sharer mask %b", la, ln.owner, ln.sharers)
				}
			}
			if ln.owner >= 0 && ln.sharers&(1<<uint(ln.owner)) == 0 {
				return fmt.Errorf("cache: line 0x%x owner %d not a sharer", la, ln.owner)
			}
		}
	}
	return nil
}

// invalidateOthers counts the invalidations of every core but `core` in
// the line's sharer set; the caller then narrows the set.
func (s *System) invalidateOthers(ln *line, core int) {
	s.stats.Invalidations += uint64(bits.OnesCount64(ln.sharers &^ (1 << uint(core))))
}
