package workloads

import (
	"fmt"
	"strings"

	"repro/tmi/workload"
)

// This file holds the litmus kernels the model checker (internal/mc,
// cmd/tmimc) explores exhaustively: the classic shapes from the memory-model
// literature (SB, MP, LB, IRIW, CoRR), their C11-ordering variants
// (release/acquire MP, fence-mediated SB and MP), and two deliberately
// under-annotated fixtures. Every kernel is one litmusSpec entry in
// litmusSpecs, run by the one litmus interpreter below; adding a kernel is
// adding an entry. The clean kernels are written against the CCC annotation
// contract, so under sequential consistency — and, if Table 2 holds, under
// the PTSB with code-centric consistency — their forbidden outcome never
// appears.
//
// Conventions shared by the kernels: each variable lives at offset 0 of its
// own page so page twinning is exercised per variable; "warm" or "scratch"
// plain stores at offset litmusWarm of a page the thread later reads create
// a dirty private copy without overlapping any other thread's bytes; every
// thread ends at a barrier, which is a PTSB commit point; loads happen once,
// never in spin loops, so the schedule space stays finite and small.

const (
	// litmusWarm is the page offset of the warm/scratch words.
	litmusWarm = 512
	// litmusUnread is the value of a register its load never wrote (an MP
	// consumer that saw flag=0 skips the data load); outcomes print "-".
	litmusUnread = ^uint64(0)
	// na fills the order slot of an access through a plain site: the
	// site's declared kind, not the order, makes the access plain.
	na = workload.Relaxed
	// noGuard marks an op that runs unconditionally.
	noGuard = -1
)

type litmusOpKind uint8

const (
	litmusStore litmusOpKind = iota
	litmusLoad
	litmusFence
)

// litmusOp is one step of a thread: a store of val, a load into register
// reg, or a fence. Accesses go through site sites[site] at offset off of
// page page; the site's declared kind decides whether the access is plain
// or atomic with the given order. A guarded op runs only if register guard
// read 1 — the MP consumer's data load, made only after it saw the flag.
type litmusOp struct {
	kind  litmusOpKind
	site  int
	page  int
	off   uint64
	val   uint64
	reg   int
	order workload.MemOrder
	guard int // register index, or noGuard
}

// store writes val through sites[site] to page page at offset off.
func store(site, page int, off, val uint64, o workload.MemOrder) litmusOp {
	return litmusOp{kind: litmusStore, site: site, page: page, off: off, val: val, order: o, guard: noGuard}
}

// load reads offset 0 of page page through sites[site] into register reg.
func load(reg, site, page int, o workload.MemOrder) litmusOp {
	return litmusOp{kind: litmusLoad, site: site, page: page, reg: reg, order: o, guard: noGuard}
}

func fence(o workload.MemOrder) litmusOp {
	return litmusOp{kind: litmusFence, order: o, guard: noGuard}
}

// ifRead1 guards op on register r having read 1.
func (op litmusOp) ifRead1(r int) litmusOp {
	op.guard = r
	return op
}

// litmusSite is a site's name after the kernel's prefix, and its kind.
type litmusSite struct {
	name string
	kind workload.SiteKind
}

// litmusSpec is one litmus kernel as data. Setup allocates the pages in
// order, then the barrier "<prefix>.bar", then the sites in order — the
// order fixes every address and PC tmimc reports.
//
// The forbidden outcome is a register tuple, and Validate fails exactly when
// the registers equal it. For the MP family that is (flag, data) = (1, 0):
// the only values ever stored to data are 0 and 42, and data is read only
// once flag read 1, so "flag=1 and data≠42" can only be (1, 0).
type litmusSpec struct {
	name, prefix, desc string
	threads, pages     int
	sites              []litmusSite
	ops                [][]litmusOp // one list per thread
	regs               []string     // outcome register names, in print order
	forbid             []uint64
	forbidMsg          string
	// customSync marks the two under-annotated fixtures, which synchronize
	// through accesses the annotation pass missed.
	customSync bool
}

var (
	mpSites        = []litmusSite{{"store_data", workload.SiteStore}, {"load_data", workload.SiteLoad}, {"store_flag", workload.SiteAtomic}, {"load_flag", workload.SiteAtomic}}
	scratchMPSites = []litmusSite{{"store_data", workload.SiteStore}, {"load_data", workload.SiteLoad}, {"scratch", workload.SiteStore}, {"store_flag", workload.SiteAtomic}, {"load_flag", workload.SiteAtomic}}
	sbSites        = []litmusSite{{"warm", workload.SiteStore}, {"store_x", workload.SiteAtomic}, {"store_y", workload.SiteAtomic}, {"load_x", workload.SiteAtomic}, {"load_y", workload.SiteAtomic}}
	xySites        = []litmusSite{{"store_x", workload.SiteAtomic}, {"store_y", workload.SiteAtomic}, {"load_x", workload.SiteAtomic}, {"load_y", workload.SiteAtomic}}
	r01, r0123     = []string{"r0", "r1"}, []string{"r0", "r1", "r2", "r3"}
	flagData       = []string{"flag", "data"}
	mpForbid       = "flag=1 but data=0, want 42"
	iriwForbid     = "readers saw x-then-y and y-then-x (forbidden under SC)"
)

// litmusSpecs is every litmus kernel; the clean ones (LitmusSuite) in the
// order tmimc checks them by default.
var litmusSpecs = []litmusSpec{
	// SB is Dekker's core: each thread publishes its flag with a seq_cst
	// store, then reads the other's. Each thread warm-dirties the page it
	// later reads, so the atomic load must reach the shared view past a
	// dirty private copy. Pages: x, y.
	{name: "litmus-sb", prefix: "sb", threads: 2, pages: 2, sites: sbSites,
		desc: "litmus SB: SC forbids r0=0,r1=0",
		ops: [][]litmusOp{
			{store(0, 1, litmusWarm, 1, na), store(1, 0, 0, 1, workload.SeqCst), load(0, 4, 1, workload.SeqCst)},
			{store(0, 0, litmusWarm, 2, na), store(2, 1, 0, 1, workload.SeqCst), load(1, 3, 0, workload.SeqCst)},
		},
		regs: r01, forbid: []uint64{0, 0}, forbidMsg: "r0=0 r1=0 is forbidden under SC"},
	// MP publishes dirty data through a release/acquire flag: the release
	// must commit the data page before the flag is visible. Pages: data, flag.
	{name: "litmus-mp", prefix: "mp", threads: 2, pages: 2, sites: mpSites,
		desc: "litmus MP: flag=1 implies data=42",
		ops: [][]litmusOp{
			{store(0, 0, 0, 42, na), store(2, 1, 0, 1, workload.Release)},
			{load(0, 3, 1, workload.Acquire), load(1, 1, 0, na).ifRead1(0)},
		},
		regs: flagData, forbid: []uint64{1, 0}, forbidMsg: mpForbid},
	// LB reads the other thread's variable before publishing its own; SC
	// forbids both loads returning 1. Pages: x, y.
	{name: "litmus-lb", prefix: "lb", threads: 2, pages: 2, sites: xySites,
		desc: "litmus LB: SC forbids r0=1,r1=1",
		ops: [][]litmusOp{
			{load(0, 3, 1, workload.SeqCst), store(0, 0, 0, 1, workload.SeqCst)},
			{load(1, 2, 0, workload.SeqCst), store(1, 1, 0, 1, workload.SeqCst)},
		},
		regs: r01, forbid: []uint64{1, 1}, forbidMsg: "r0=1 r1=1 is forbidden under SC"},
	// IRIW: two writers, two readers reading x and y in opposite orders; SC
	// forbids the readers disagreeing on the write order. Pages: x, y.
	{name: "litmus-iriw", prefix: "iriw", threads: 4, pages: 2, sites: xySites,
		desc: "litmus IRIW: readers must agree on the write order",
		ops: [][]litmusOp{
			{store(0, 0, 0, 1, workload.SeqCst)},
			{store(1, 1, 0, 1, workload.SeqCst)},
			{load(0, 2, 0, workload.SeqCst), load(1, 3, 1, workload.SeqCst)},
			{load(2, 3, 1, workload.SeqCst), load(3, 2, 0, workload.SeqCst)},
		},
		regs: r0123, forbid: []uint64{1, 0, 1, 0}, forbidMsg: iriwForbid},
	// CoRR: the reader warm-dirties x's page, then reads x twice with relaxed
	// atomics, which must still reach the shared view past the dirty copy
	// (Table 2 case 2) though they never flush. Page: x.
	{name: "litmus-corr", prefix: "corr", threads: 2, pages: 1,
		sites: []litmusSite{{"warm", workload.SiteStore}, {"store_x", workload.SiteAtomic}, {"load_x", workload.SiteAtomic}},
		desc:  "litmus CoRR: relaxed reads of one variable never go backwards",
		ops: [][]litmusOp{
			{store(1, 0, 0, 1, workload.Relaxed)},
			{store(0, 0, litmusWarm, 9, na), load(0, 2, 0, workload.Relaxed), load(1, 2, 0, workload.Relaxed)},
		},
		regs: r01, forbid: []uint64{1, 0}, forbidMsg: "reads went backwards (1 then 0), coherence violated"},
	// brokenfence is MP through a *plain* flag, which no CCC region ever
	// flushes, and the consumer scratch-dirties the data page before reading
	// the flag. tmilint finds nothing (every access matches its site's kind),
	// but under the PTSB the consumer can see flag=1 while its private copy
	// of data is still 0. It is also the seeded data race of the race
	// detector tests. Pages: data (+scratch), flag.
	{name: "litmus-brokenfence", prefix: "brokenfence", threads: 2, pages: 2, customSync: true,
		sites: []litmusSite{{"store_data", workload.SiteStore}, {"load_data", workload.SiteLoad}, {"scratch", workload.SiteStore}, {"store_flag", workload.SiteStore}, {"load_flag", workload.SiteLoad}},
		desc:  "under-annotated MP: plain flag never flushes the PTSB",
		ops: [][]litmusOp{
			{store(0, 0, 0, 42, na), store(3, 1, 0, 1, na)},
			{store(2, 0, litmusWarm, 7, na), load(0, 4, 1, na), load(1, 1, 0, na).ifRead1(0)},
		},
		regs: flagData, forbid: []uint64{1, 0}, forbidMsg: mpForbid},
	// mp-relacq is MP with exactly the orderings C11 requires; the consumer's
	// acquire must discard its scratch-dirtied twin. Pages: data (+scratch), flag.
	{name: "litmus-mp-relacq", prefix: "mprelacq", threads: 2, pages: 2, sites: scratchMPSites,
		desc: "litmus MP with release store / acquire load: flag=1 implies data=42",
		ops: [][]litmusOp{
			{store(0, 0, 0, 42, na), store(3, 1, 0, 1, workload.Release)},
			{store(2, 0, litmusWarm, 7, na), load(0, 4, 1, workload.Acquire), load(1, 1, 0, na).ifRead1(0)},
		},
		regs: flagData, forbid: []uint64{1, 0}, forbidMsg: mpForbid},
	// fencesb is SB over relaxed flags with a seq_cst fence between each
	// thread's store and load; the fence's flush discards the warm twin.
	{name: "litmus-fencesb", prefix: "fencesb", threads: 2, pages: 2, sites: sbSites,
		desc: "litmus SB over relaxed atomics and seq_cst fences: SC forbids r0=0,r1=0",
		ops: [][]litmusOp{
			{store(0, 1, litmusWarm, 1, na), store(1, 0, 0, 1, workload.Relaxed), fence(workload.SeqCst), load(0, 4, 1, workload.Relaxed)},
			{store(0, 0, litmusWarm, 2, na), store(2, 1, 0, 1, workload.Relaxed), fence(workload.SeqCst), load(1, 3, 0, workload.Relaxed)},
		},
		regs: r01, forbid: []uint64{0, 0}, forbidMsg: "r0=0 r1=0 is forbidden with seq_cst fences"},
	// fencemp is MP over a relaxed flag with Alglave et al.'s canonical fence
	// placement: release fence before the flag store, acquire fence after the
	// flag load. Remove either and flag=1 with stale data becomes reachable.
	{name: "litmus-fencemp", prefix: "fencemp", threads: 2, pages: 2, sites: scratchMPSites,
		desc: "litmus MP over a relaxed flag and release/acquire fences: flag=1 implies data=42",
		ops: [][]litmusOp{
			{store(0, 0, 0, 42, na), fence(workload.Release), store(3, 1, 0, 1, workload.Relaxed)},
			{store(2, 0, litmusWarm, 7, na), load(0, 4, 1, workload.Relaxed), fence(workload.Acquire), load(1, 1, 0, na).ifRead1(0)},
		},
		regs: flagData, forbid: []uint64{1, 0}, forbidMsg: mpForbid},
	// iriw-relaxed: relaxed writers; each reader scratch-dirties the page of
	// the variable it then reads through a *plain* load (the missed
	// annotation), after an atomic load of the other. Under the PTSB the
	// plain load can return the stale twin, so the readers disagree. The
	// repair tmilint -suggest must find upgrades both plain-load sites.
	{name: "litmus-iriw-relaxed", prefix: "iriwrelaxed", threads: 4, pages: 2, customSync: true,
		sites: []litmusSite{{"scratch", workload.SiteStore}, {"store_x", workload.SiteAtomic}, {"store_y", workload.SiteAtomic},
			{"load_x", workload.SiteAtomic}, {"load_y", workload.SiteAtomic}, {"load_y_plain", workload.SiteLoad}, {"load_x_plain", workload.SiteLoad}},
		desc: "under-annotated relaxed IRIW: plain second loads read stale twins",
		ops: [][]litmusOp{
			{store(1, 0, 0, 1, workload.Relaxed)},
			{store(2, 1, 0, 1, workload.Relaxed)},
			{store(0, 1, litmusWarm, 7, na), load(0, 3, 0, workload.Relaxed), load(1, 5, 1, na)},
			{store(0, 0, litmusWarm, 7, na), load(2, 4, 1, workload.Relaxed), load(3, 6, 0, na)},
		},
		regs: r0123, forbid: []uint64{1, 0, 1, 0}, forbidMsg: iriwForbid},
}

// LitmusSuite returns the clean litmus kernels (SC-equivalence must hold).
func LitmusSuite() []workload.Workload {
	var out []workload.Workload
	for i := range litmusSpecs {
		if !litmusSpecs[i].customSync {
			out = append(out, &litmus{spec: &litmusSpecs[i]})
		}
	}
	return out
}

// litmusByName returns a fresh interpreter for the named kernel, or nil.
func litmusByName(name string) workload.Workload {
	for i := range litmusSpecs {
		if litmusSpecs[i].name == name {
			return &litmus{spec: &litmusSpecs[i]}
		}
	}
	return nil
}

// litmus runs one litmusSpec. Registers are written by their owning
// simulated thread only (the machine runs one thread at a time, and the
// final read happens after Run returns).
type litmus struct {
	spec  *litmusSpec
	pages []uint64
	sites []workload.Site
	r     []uint64
	bar   workload.Barrier
}

var _ workload.Outcomer = (*litmus)(nil)

func (w *litmus) Name() string { return w.spec.name }

func (w *litmus) Info() workload.Info {
	atomics := false
	for _, s := range w.spec.sites {
		atomics = atomics || s.kind == workload.SiteAtomic
	}
	return workload.Info{Threads: w.spec.threads, FootprintMB: 1, UsesAtomics: atomics,
		UsesCustomSync: w.spec.customSync, Desc: w.spec.desc}
}

func (w *litmus) Setup(env workload.Env) error {
	s := w.spec
	if err := definedFor(s.name, s.threads, env); err != nil {
		return err
	}
	page := env.PageSize()
	w.pages = make([]uint64, s.pages)
	for i := range w.pages {
		w.pages[i] = env.Alloc(page, page)
	}
	w.bar = env.NewBarrier(s.prefix+".bar", s.threads)
	w.sites = make([]workload.Site, len(s.sites))
	for i, site := range s.sites {
		w.sites[i] = env.Site(s.prefix+"."+site.name, site.kind, 8)
	}
	w.r = make([]uint64, len(s.regs))
	for i := range w.r {
		w.r[i] = litmusUnread
	}
	return nil
}

func (w *litmus) Body(t workload.Thread) {
	for _, op := range w.spec.ops[t.ID()] {
		if op.guard != noGuard && w.r[op.guard] != 1 {
			continue
		}
		if op.kind == litmusFence {
			t.Fence(op.order)
			continue
		}
		site, addr := w.sites[op.site], w.pages[op.page]+op.off
		atomic := w.spec.sites[op.site].kind == workload.SiteAtomic
		switch {
		case op.kind == litmusStore && atomic:
			t.AtomicStore(site, addr, op.val, op.order)
		case op.kind == litmusStore:
			t.Store(site, addr, op.val)
		case atomic:
			w.r[op.reg] = t.AtomicLoad(site, addr, op.order)
		default:
			w.r[op.reg] = t.Load(site, addr)
		}
	}
	t.Wait(w.bar)
}

func (w *litmus) Validate(env workload.Env) error {
	for i, v := range w.spec.forbid {
		if w.r[i] != v {
			return nil
		}
	}
	return fmt.Errorf("%s: %s", w.spec.name, w.spec.forbidMsg)
}

func (w *litmus) Outcome(env workload.Env) string {
	out := make([]string, len(w.r))
	for i, v := range w.r {
		out[i] = w.spec.regs[i] + "=-"
		if v != litmusUnread {
			out[i] = fmt.Sprintf("%s=%d", w.spec.regs[i], v)
		}
	}
	return strings.Join(out, " ")
}
