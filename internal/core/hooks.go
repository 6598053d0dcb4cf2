package core

import (
	"repro/internal/disasm"
	"repro/internal/sim/machine"
	"repro/internal/sim/trace"
)

// This file holds the runtime's machine hooks, which build installs. Three
// fixed layers see the run's events, in a fixed order:
//
//	region enter, sync: tracer → observer → controller (CCC, PTSB commit)
//	region exit:        controller → observer → tracer (reverse)
//	post-access:        rt.postAccess (sampling and backend costs)
//	value, wake:        observer only, installed only when one is set
//
// The tracer is outermost so the trace brackets everything the other
// layers do; the CCC controller is innermost because it owns the semantics
// (its Enter performs the PTSB flush the others only observe). The order is
// pinned by TestHookChainOrderIsDeterministic.

// AccessInfo is one completed memory access as reported to an Observer:
// plain data, no machine internals, so observers (the model checker) stay
// decoupled from the simulator.
type AccessInfo struct {
	TID     int
	PC      uint64
	Addr    uint64
	Size    int
	Write   bool
	Atomic  bool
	Value   uint64 // datum: loaded value (old value for RMW/CAS) or stored value
	Runtime bool   // access issued by a runtime-library site (psync internals)
	Site    string // site name when the PC disassembles, else ""
}

// Observer receives the run's visible-event stream: every memory access
// with its datum, CCC region boundaries, psync synchronization points, and
// scheduler wake edges. This is the model checker's tap: together with
// Config.Scheduler it gives full observe-and-control over interleavings.
// All callbacks run on the simulated thread with the machine quiescent.
//
// OnAccess's argument points into a per-thread scratch buffer that is
// overwritten by the thread's next access: read it during the call, copy
// the fields you keep, never retain the pointer.
type Observer interface {
	OnAccess(*AccessInfo)
	OnRegion(tid int, k machine.RegionKind, enter bool)
	OnSync(tid int)
	OnWake(waker, wakee int)
}

func (rt *runtime) regionEnter(t *machine.Thread, k machine.RegionKind) {
	if rt.tracer != nil {
		rt.tracer.Record(t.Clock(), t.ID, trace.KindRegionEnter, uint64(k))
	}
	if obs := rt.cfg.Observer; obs != nil {
		obs.OnRegion(t.ID, k, true)
	}
	rt.cccCtl.Enter(t, k)
}

func (rt *runtime) regionExit(t *machine.Thread, k machine.RegionKind) {
	rt.cccCtl.Exit(t, k)
	if obs := rt.cfg.Observer; obs != nil {
		obs.OnRegion(t.ID, k, false)
	}
	if rt.tracer != nil {
		rt.tracer.Record(t.Clock(), t.ID, trace.KindRegionExit, uint64(k))
	}
}

// onSync is psync's synchronization-boundary hook: the controller's part
// is the PTSB commit.
func (rt *runtime) onSync(t *machine.Thread) {
	if rt.tracer != nil {
		rt.tracer.Record(t.Clock(), t.ID, trace.KindSync, 0)
	}
	if obs := rt.cfg.Observer; obs != nil {
		obs.OnSync(t.ID)
	}
	if cost := rt.ptsbE.Commit(t); cost > 0 {
		t.AddCost(cost)
		if rt.tracer != nil {
			rt.tracer.Record(t.Clock(), t.ID, trace.KindCommit, uint64(cost))
		}
	}
}

func (rt *runtime) onValue(t *machine.Thread, acc *machine.Access, val uint64) {
	info := &rt.accScratch[t.ID]
	*info = AccessInfo{
		TID: t.ID, PC: acc.PC, Addr: acc.Addr, Size: acc.Size,
		Write: acc.Write, Atomic: acc.Atomic, Value: val,
	}
	si, ok := disasm.Lookup(rt.sites, acc.PC)
	if !ok {
		si, ok = rt.prog.Disassemble(acc.PC) // registered after Setup
	}
	if ok {
		info.Runtime = si.Runtime
		info.Site = si.Name
	}
	rt.cfg.Observer.OnAccess(info)
}

func (rt *runtime) onWake(t, other *machine.Thread) {
	rt.cfg.Observer.OnWake(t.ID, other.ID)
}
