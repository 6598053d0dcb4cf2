package workload

import "fmt"

// RepairKind says how a Repair changes the program at one site.
type RepairKind int

// Repair kinds.
const (
	// RepairAtomic routes a plain load/store site through the equivalent
	// atomic operation with Repair.Order; the site is re-registered as
	// SiteAtomic so the annotation contract stays intact.
	RepairAtomic RepairKind = iota
	// RepairOrder strengthens the memory order of an existing atomic site:
	// every operation through it runs under the join of its original order
	// and Repair.Order.
	RepairOrder
	// RepairFenceBefore inserts Fence(Repair.Order) immediately before every
	// access through the site.
	RepairFenceBefore
	// RepairFenceAfter inserts Fence(Repair.Order) immediately after every
	// access through the site.
	RepairFenceAfter
)

func (k RepairKind) String() string {
	switch k {
	case RepairAtomic:
		return "atomic"
	case RepairOrder:
		return "order"
	case RepairFenceBefore:
		return "fence-before"
	case RepairFenceAfter:
		return "fence-after"
	}
	return "?"
}

// Repair is one source-level fix at one instruction site, in the vocabulary
// a programmer would apply to C11 code: annotate an access as atomic,
// strengthen an ordering, or insert a standalone fence.
type Repair struct {
	Site  string
	Kind  RepairKind
	Order MemOrder
}

func (r Repair) String() string {
	return fmt.Sprintf("%s: %s %s", r.Site, r.Kind, r.Order)
}

// ParseRepair builds a Repair from the string form the toolio suggest
// schema carries.
func ParseRepair(site, kind, order string) (Repair, error) {
	r := Repair{Site: site}
	if site == "" {
		return r, fmt.Errorf("workload: repair with empty site")
	}
	switch kind {
	case "atomic":
		r.Kind = RepairAtomic
	case "order":
		r.Kind = RepairOrder
	case "fence-before":
		r.Kind = RepairFenceBefore
	case "fence-after":
		r.Kind = RepairFenceAfter
	default:
		return r, fmt.Errorf("workload: unknown repair kind %q", kind)
	}
	switch order {
	case "relaxed":
		r.Order = Relaxed
	case "acquire":
		r.Order = Acquire
	case "release":
		r.Order = Release
	case "acq_rel":
		r.Order = AcqRel
	case "seq_cst":
		r.Order = SeqCst
	default:
		return r, fmt.Errorf("workload: unknown memory order %q", order)
	}
	return r, nil
}

// JoinOrders is the least upper bound in the C11 strength lattice
// (relaxed < acquire, release < acq_rel < seq_cst).
func JoinOrders(a, b MemOrder) MemOrder {
	if a == b {
		return a
	}
	if a == SeqCst || b == SeqCst {
		return SeqCst
	}
	if a == Relaxed {
		return b
	}
	if b == Relaxed {
		return a
	}
	acq := a.Acquires() || b.Acquires()
	rel := a.Releases() || b.Releases()
	switch {
	case acq && rel:
		return AcqRel
	case acq:
		return Acquire
	default:
		return Release
	}
}

// siteRepair is the per-site plan compiled from a repair set.
type siteRepair struct {
	atomic      bool // route plain accesses through atomics
	order       MemOrder
	hasOrder    bool
	fenceBefore MemOrder
	hasBefore   bool
	fenceAfter  MemOrder
	hasAfter    bool
}

// Repaired wraps a workload so that it runs with the given repairs applied,
// exactly as if the programmer had edited the source: plain sites named by a
// RepairAtomic become atomic sites (and their accesses atomic operations),
// RepairOrder strengthens orders, and the fence kinds splice standalone
// fences around the site's accesses. Sites not named by any repair are
// untouched. The wrapper is pure workload-level, so both the model checker
// and tmilint's model build can run the repaired program unchanged.
func Repaired(w Workload, repairs []Repair) Workload {
	if len(repairs) == 0 {
		return w
	}
	plan := map[string]*siteRepair{}
	for _, r := range repairs {
		sr := plan[r.Site]
		if sr == nil {
			sr = &siteRepair{}
			plan[r.Site] = sr
		}
		switch r.Kind {
		case RepairAtomic:
			sr.atomic = true
			sr.order = joinInto(sr.hasOrder, sr.order, r.Order)
			sr.hasOrder = true
		case RepairOrder:
			sr.order = joinInto(sr.hasOrder, sr.order, r.Order)
			sr.hasOrder = true
		case RepairFenceBefore:
			sr.fenceBefore = joinInto(sr.hasBefore, sr.fenceBefore, r.Order)
			sr.hasBefore = true
		case RepairFenceAfter:
			sr.fenceAfter = joinInto(sr.hasAfter, sr.fenceAfter, r.Order)
			sr.hasAfter = true
		}
	}
	rw := &repairedWorkload{base: w, plan: plan, byPC: map[uint64]*siteRepair{}}
	if _, ok := w.(Outcomer); ok {
		return &repairedOutcomer{rw}
	}
	return rw
}

func joinInto(has bool, cur, next MemOrder) MemOrder {
	if !has {
		return next
	}
	return JoinOrders(cur, next)
}

type repairedWorkload struct {
	base Workload
	plan map[string]*siteRepair
	// byPC binds registered site PCs to their plan entry; filled during
	// Setup, when the wrapped Env sees the site names.
	byPC map[uint64]*siteRepair
}

func (rw *repairedWorkload) Name() string { return rw.base.Name() }

func (rw *repairedWorkload) Info() Info {
	info := rw.base.Info()
	for _, sr := range rw.plan {
		if sr.atomic || sr.hasOrder {
			info.UsesAtomics = true
		}
	}
	return info
}

func (rw *repairedWorkload) Setup(env Env) error {
	return rw.base.Setup(&repairEnv{Env: env, rw: rw})
}

func (rw *repairedWorkload) Body(t Thread) {
	rw.base.Body(&repairThread{Thread: t, rw: rw})
}

func (rw *repairedWorkload) Validate(env Env) error { return rw.base.Validate(env) }

// repairedOutcomer adds the Outcome passthrough only when the base workload
// has one, so the model checker's Outcomer detection is not fooled.
type repairedOutcomer struct{ *repairedWorkload }

func (ro *repairedOutcomer) Outcome(env Env) string {
	return ro.base.(Outcomer).Outcome(env)
}

type repairEnv struct {
	Env
	rw *repairedWorkload
}

func (re *repairEnv) Site(name string, kind SiteKind, width int) Site {
	sr := re.rw.plan[name]
	if sr != nil && sr.atomic && kind != SiteAtomic {
		kind = SiteAtomic
	}
	s := re.Env.Site(name, kind, width)
	if sr != nil {
		re.rw.byPC[s.PC] = sr
	}
	return s
}

type repairThread struct {
	Thread
	rw *repairedWorkload
}

func (rt *repairThread) enter(s Site) *siteRepair {
	sr := rt.rw.byPC[s.PC]
	if sr != nil && sr.hasBefore {
		rt.Thread.Fence(sr.fenceBefore)
	}
	return sr
}

func (rt *repairThread) exit(sr *siteRepair) {
	if sr != nil && sr.hasAfter {
		rt.Thread.Fence(sr.fenceAfter)
	}
}

func (rt *repairThread) effOrder(sr *siteRepair, o MemOrder) MemOrder {
	if sr != nil && sr.hasOrder {
		return JoinOrders(o, sr.order)
	}
	return o
}

func (rt *repairThread) Load(s Site, addr uint64) uint64 {
	sr := rt.enter(s)
	var v uint64
	if sr != nil && sr.atomic {
		v = rt.Thread.AtomicLoad(s, addr, sr.order)
	} else {
		v = rt.Thread.Load(s, addr)
	}
	rt.exit(sr)
	return v
}

func (rt *repairThread) Store(s Site, addr uint64, v uint64) {
	sr := rt.enter(s)
	if sr != nil && sr.atomic {
		rt.Thread.AtomicStore(s, addr, v, sr.order)
	} else {
		rt.Thread.Store(s, addr, v)
	}
	rt.exit(sr)
}

func (rt *repairThread) AtomicAdd(s Site, addr uint64, delta uint64, order MemOrder) uint64 {
	sr := rt.enter(s)
	v := rt.Thread.AtomicAdd(s, addr, delta, rt.effOrder(sr, order))
	rt.exit(sr)
	return v
}

func (rt *repairThread) AtomicCAS(s Site, addr uint64, old, new uint64, order MemOrder) bool {
	sr := rt.enter(s)
	ok := rt.Thread.AtomicCAS(s, addr, old, new, rt.effOrder(sr, order))
	rt.exit(sr)
	return ok
}

func (rt *repairThread) AtomicLoad(s Site, addr uint64, order MemOrder) uint64 {
	sr := rt.enter(s)
	v := rt.Thread.AtomicLoad(s, addr, rt.effOrder(sr, order))
	rt.exit(sr)
	return v
}

func (rt *repairThread) AtomicStore(s Site, addr uint64, v uint64, order MemOrder) {
	sr := rt.enter(s)
	rt.Thread.AtomicStore(s, addr, v, rt.effOrder(sr, order))
	rt.exit(sr)
}
