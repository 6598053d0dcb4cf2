package core

import (
	"sort"

	"repro/internal/disasm"
	"repro/internal/sim/cache"
	"repro/internal/sim/machine"
)

// This file fixes the runtime's hook-chain composition. Chains are built
// from declared layers sorted by a fixed priority, so which layer sees an
// event first does not depend on the order the layers are registered in,
// and region exit unwinds in reverse of region enter:
//
//	region enter:  tracer → observer → controller (CCC)
//	region exit:   controller → observer → tracer (reverse)
//	post-access:   tracer → observer → controller (costs sum)
//	value/sync/wake: tracer → observer → controller
//
// The tracer is outermost so the trace brackets everything the other
// layers do; the CCC controller is innermost because it owns the semantics
// (its Enter performs the PTSB flush the others only observe). The order is
// pinned by TestHookChainOrderIsDeterministic.

// layerPriority orders hook layers outermost-first.
type layerPriority int

const (
	layerTracer layerPriority = iota
	layerObserver
	layerController
)

// hookLayer is one subsystem's contribution to the machine hook chain. Any
// field may be nil.
type hookLayer struct {
	prio        layerPriority
	regionEnter func(t *machine.Thread, k machine.RegionKind)
	regionExit  func(t *machine.Thread, k machine.RegionKind)
	postAccess  func(t *machine.Thread, acc *machine.Access, res cache.Result) int64
	onValue     func(t *machine.Thread, acc *machine.Access, val uint64)
	onSync      func(t *machine.Thread)
	onWake      func(t, other *machine.Thread)
}

// composedHooks is the deterministic composition of a layer set: the chains
// are preresolved call slices built once at configuration time, so event
// dispatch at run time is a bounds-checked loop over a flat slice — no
// nested closure hops, no per-event composition work.
type composedHooks struct {
	enters []func(t *machine.Thread, k machine.RegionKind)
	exits  []func(t *machine.Thread, k machine.RegionKind)
	posts  []func(t *machine.Thread, acc *machine.Access, res cache.Result) int64
	values []func(t *machine.Thread, acc *machine.Access, val uint64)
	syncs  []func(t *machine.Thread)
	wakes  []func(t, other *machine.Thread)
}

func (c *composedHooks) regionEnter(t *machine.Thread, k machine.RegionKind) {
	for _, f := range c.enters {
		f(t, k)
	}
}

func (c *composedHooks) regionExit(t *machine.Thread, k machine.RegionKind) {
	for i := len(c.exits) - 1; i >= 0; i-- {
		c.exits[i](t, k)
	}
}

func (c *composedHooks) postAccess(t *machine.Thread, acc *machine.Access, res cache.Result) int64 {
	var total int64
	for _, f := range c.posts {
		total += f(t, acc, res)
	}
	return total
}

func (c *composedHooks) onValue(t *machine.Thread, acc *machine.Access, val uint64) {
	for _, f := range c.values {
		f(t, acc, val)
	}
}

func (c *composedHooks) onSync(t *machine.Thread) {
	for _, f := range c.syncs {
		f(t)
	}
}

func (c *composedHooks) onWake(t, other *machine.Thread) {
	for _, f := range c.wakes {
		f(t, other)
	}
}

// hook returns fn as a machine hook, or nil when no layer contributed — the
// machine fast-paths nil hooks, so empty chains cost nothing per event.
func hook[F any](n int, fn F) F {
	if n == 0 {
		var zero F
		return zero
	}
	return fn
}

// composeLayers sorts layers by priority (stably, so equal priorities keep
// registration order) and flattens each hook kind into its call slice:
// enter-like hooks run outermost-first, regionExit runs innermost-first,
// and postAccess costs are summed.
func composeLayers(layers []hookLayer) composedHooks {
	sorted := append([]hookLayer(nil), layers...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].prio < sorted[j].prio })

	var c composedHooks
	for _, l := range sorted {
		if l.regionEnter != nil {
			c.enters = append(c.enters, l.regionEnter)
		}
		if l.regionExit != nil {
			c.exits = append(c.exits, l.regionExit)
		}
		if l.postAccess != nil {
			c.posts = append(c.posts, l.postAccess)
		}
		if l.onValue != nil {
			c.values = append(c.values, l.onValue)
		}
		if l.onSync != nil {
			c.syncs = append(c.syncs, l.onSync)
		}
		if l.onWake != nil {
			c.wakes = append(c.wakes, l.onWake)
		}
	}
	return c
}

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

// buildLayers assembles the runtime's hook layers from its configuration.
func (rt *runtime) buildLayers() []hookLayer {
	var layers []hookLayer
	// Controller layer (always): CCC region semantics, PTSB commit at sync,
	// and the base cost model.
	layers = append(layers, hookLayer{
		prio:        layerController,
		regionEnter: rt.cccCtl.Enter,
		regionExit:  rt.cccCtl.Exit,
		postAccess:  rt.postAccess,
		onSync:      rt.commitSync,
	})
	if rt.cfg.Observer != nil {
		obs := rt.cfg.Observer
		layers = append(layers, hookLayer{
			prio: layerObserver,
			regionEnter: func(t *machine.Thread, k machine.RegionKind) {
				obs.OnRegion(t.ID, k, true)
			},
			regionExit: func(t *machine.Thread, k machine.RegionKind) {
				obs.OnRegion(t.ID, k, false)
			},
			onValue: func(t *machine.Thread, acc *machine.Access, val uint64) {
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
				obs.OnAccess(info)
			},
			onSync: func(t *machine.Thread) { obs.OnSync(t.ID) },
			onWake: func(t, other *machine.Thread) { obs.OnWake(t.ID, other.ID) },
		})
	}
	if rt.tracer != nil {
		layers = append(layers, rt.tracerLayer())
	}
	return layers
}
