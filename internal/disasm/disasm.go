// Package disasm models the binary-analysis side of TMI's detector. The
// paper's detection thread disassembles the application binary once at
// startup to learn, for every instruction address, whether it is a load or a
// store and how wide the access is — information PEBS records do not carry
// but that is required to distinguish true sharing (overlapping bytes) from
// false sharing (disjoint bytes) (§3.1).
//
// In this reproduction a workload's "binary" is a Program: a table of
// instruction sites registered by the workload before it runs. Each site
// gets a synthetic instruction address (PC); the detector recovers kind and
// width by "disassembling" the PC through this table, exactly as TMI's
// detector recovers them from the real binary.
package disasm

import (
	"fmt"
	"sync"
)

// Kind classifies an instruction site.
type Kind uint8

// Instruction kinds.
const (
	KindLoad Kind = iota
	KindStore
	KindAtomic // locked RMW: both a load and a store
	KindOther
)

func (k Kind) String() string {
	switch k {
	case KindLoad:
		return "load"
	case KindStore:
		return "store"
	case KindAtomic:
		return "atomic"
	case KindOther:
		return "other"
	}
	return "?"
}

// Reads reports whether the instruction kind reads memory. A locked RMW
// (KindAtomic) both reads and writes its operand.
func (k Kind) Reads() bool { return k == KindLoad || k == KindAtomic }

// Writes reports whether the instruction kind writes memory.
func (k Kind) Writes() bool { return k == KindStore || k == KindAtomic }

// CodeBase is where the synthetic text segment starts; each site occupies
// InstrBytes bytes of it.
const (
	CodeBase   = 0x40_0000
	InstrBytes = 4
)

// Site identifies one registered instruction site.
type Site uint32

// PC returns the synthetic instruction address of the site.
func (s Site) PC() uint64 { return CodeBase + uint64(s)*InstrBytes }

// SiteInfo describes a registered instruction site.
type SiteInfo struct {
	Site  Site
	Name  string
	Kind  Kind
	Width int // access width in bytes
	// Runtime marks a site that belongs to the runtime library (psync's
	// lock words and barriers) rather than to application code. The paper's
	// LLVM pass instruments only the application; runtime-internal atomics
	// execute below the annotation layer, so the annotation verifier
	// (internal/analysis) exempts them from region-enclosure checks.
	Runtime bool
}

// Program is the instruction-site table for one workload binary.
type Program struct {
	mu     sync.Mutex
	sites  []SiteInfo
	byName map[string]Site
}

// NewProgram returns an empty program.
func NewProgram() *Program {
	return &Program{byName: make(map[string]Site)}
}

// Site registers (or looks up) an instruction site by name. Re-registering
// the same name must use the same kind and width.
func (p *Program) Site(name string, kind Kind, width int) Site {
	return p.register(name, kind, width, false)
}

// RuntimeSite registers a runtime-internal instruction site (see
// SiteInfo.Runtime). The psync layer registers its lock and barrier
// instructions through this so annotation checkers can tell library code
// from application code.
func (p *Program) RuntimeSite(name string, kind Kind, width int) Site {
	return p.register(name, kind, width, true)
}

func (p *Program) register(name string, kind Kind, width int, runtime bool) Site {
	p.mu.Lock()
	defer p.mu.Unlock()
	if s, ok := p.byName[name]; ok {
		si := p.sites[s]
		if si.Kind != kind || si.Width != width || si.Runtime != runtime {
			panic(fmt.Sprintf("disasm: site %q re-registered with different signature", name))
		}
		return s
	}
	s := Site(len(p.sites))
	p.sites = append(p.sites, SiteInfo{Site: s, Name: name, Kind: kind, Width: width, Runtime: runtime})
	p.byName[name] = s
	return s
}

// Sites returns a copy of the site table in registration (PC) order — the
// "disassembly listing" static analyses walk.
func (p *Program) Sites() []SiteInfo {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]SiteInfo, len(p.sites))
	copy(out, p.sites)
	return out
}

// Disassemble recovers the site information behind a PC, as the detector's
// startup disassembly pass would. ok is false for addresses outside the
// registered text segment.
func (p *Program) Disassemble(pc uint64) (SiteInfo, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if pc < CodeBase || (pc-CodeBase)%InstrBytes != 0 {
		return SiteInfo{}, false
	}
	idx := (pc - CodeBase) / InstrBytes
	if idx >= uint64(len(p.sites)) {
		return SiteInfo{}, false
	}
	return p.sites[idx], true
}

// NumSites reports how many sites are registered.
func (p *Program) NumSites() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.sites)
}

// TextEnd returns the first address past the synthetic text segment.
func (p *Program) TextEnd() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return CodeBase + uint64(len(p.sites))*InstrBytes
}

// FootprintBytes estimates the detector-side memory cost of holding the
// disassembly tables (part of the Figure 8 memory accounting).
func (p *Program) FootprintBytes() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	const perSite = 48 // table entry + index overhead
	return uint64(len(p.sites)) * perSite
}
