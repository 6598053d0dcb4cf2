package workloads

import (
	"fmt"

	"repro/tmi/workload"
)

// This file holds the consistency kernels behind the paper's Figures 3, 11
// and 12: programs whose *correctness* (not performance) depends on
// code-centric consistency once a page twinning store buffer is active.

// wordTearing is Figure 3: two threads store aligned 2-byte values with
// overlapping byte patterns into the same word. Every memory model the
// paper surveys guarantees aligned multi-byte store atomicity, so the final
// value must be one of the two stored values — but a byte-diffing PTSB can
// merge them into 0xABCD, a value no thread wrote.
type wordTearing struct {
	inAsm bool // stores wrapped in asm regions (CCC protects them)

	x     uint64
	pad0  uint64
	bar   workload.Barrier
	sHi   workload.Site
	sLo   workload.Site
	sWarm workload.Site
}

// WordTearing constructs the Figure 3 kernel. With inAsm the stores are
// inline assembly (so a correct runtime must preserve AMBSA); without, they
// are plain racy C stores (undefined semantics — tearing is permitted).
func WordTearing(inAsm bool) workload.Workload {
	return &wordTearing{inAsm: inAsm}
}

var _ workload.Workload = (*wordTearing)(nil)

func (w *wordTearing) Name() string {
	if w.inAsm {
		return "wordtear-asm"
	}
	return "wordtear"
}

func (w *wordTearing) Info() workload.Info {
	return workload.Info{Threads: 2, FootprintMB: 1, UsesAsm: w.inAsm,
		HasFalseSharing: true, Desc: "Figure 3 AMBSA kernel"}
}

func (w *wordTearing) Setup(env workload.Env) error {
	if err := definedFor(w.Name(), 2, env); err != nil {
		return err
	}
	w.x = env.Alloc(2, 2)
	w.pad0 = env.Alloc(8, 8)
	w.bar = env.NewBarrier("wordtear.bar", env.Threads())
	w.sHi = env.Site("wordtear.store_hi", workload.SiteStore, 2)
	w.sLo = env.Site("wordtear.store_lo", workload.SiteStore, 2)
	w.sWarm = env.Site("wordtear.warm", workload.SiteStore, 8)
	return nil
}

func (w *wordTearing) Body(t workload.Thread) {
	// Both threads dirty the page first so each holds a private PTSB copy
	// whose twin has x == 0.
	t.Store(w.sWarm, w.pad0, uint64(t.ID())+1)
	if w.inAsm {
		t.EnterAsm()
	}
	if t.ID() == 0 {
		t.Store(w.sHi, w.x, 0xAB00)
	} else {
		t.Store(w.sLo, w.x, 0x00CD)
	}
	if w.inAsm {
		t.ExitAsm()
	}
	t.Wait(w.bar)
}

func (w *wordTearing) Validate(env workload.Env) error {
	got := env.Load(w.x, 2)
	if got == 0xAB00 || got == 0x00CD {
		return nil
	}
	return fmt.Errorf("wordtear: x = 0x%04X, not a value any thread stored (AMBSA violated)", got)
}

// Torn reports whether the final value is the Figure 3 merge artifact.
// Exposed for the experiments that *demonstrate* tearing.
func (w *wordTearing) Torn(env workload.Env) bool {
	return env.Load(w.x, 2) == 0xABCD
}

// definedFor rejects a run of a kernel that defines each of its threads'
// programs on any other thread count: extra threads would replay some
// defined thread's program, and a missing thread's partners would wait on
// it forever.
func definedFor(name string, threads int, env workload.Env) error {
	if n := env.Threads(); n != threads {
		return fmt.Errorf("%s: defined for %d threads, not %d", name, threads, n)
	}
	return nil
}

// cannealSwap is Figure 11: concurrent atomic pair-swaps over a shared
// element array (canneal's netlist moves, implemented with lock-free inline
// assembly). A PTSB without code-centric consistency performs the swaps on
// stale private copies; the diff-and-merge then replicates some elements
// and loses others. Validation checks the multiset of elements is the
// original permutation.
type cannealSwap struct {
	iters int

	elems uint64
	n     int
	bar   workload.Barrier
	sA    workload.Site
	sB    workload.Site
}

// CannealSwap constructs the Figure 11 kernel (a small-footprint cut of
// canneal that Sheriff can run — and corrupt).
func CannealSwap() workload.Workload {
	return &cannealSwap{iters: 2500, n: 256}
}

var _ workload.Workload = (*cannealSwap)(nil)

func (c *cannealSwap) Name() string { return "canneal-swap" }

func (c *cannealSwap) Info() workload.Info {
	return workload.Info{Threads: 4, FootprintMB: 8, UsesAtomics: true, UsesAsm: true,
		Desc: "Figure 11: concurrent atomic element swaps"}
}

func (c *cannealSwap) Setup(env workload.Env) error {
	c.elems = env.Alloc(c.n*8, 64)
	for i := 0; i < c.n; i++ {
		env.Store(c.elems+uint64(i)*8, 8, uint64(i+1))
	}
	c.bar = env.NewBarrier("cannealswap.bar", env.Threads())
	c.sA = env.Site("cannealswap.swap_a", workload.SiteAtomic, 8)
	c.sB = env.Site("cannealswap.swap_b", workload.SiteAtomic, 8)
	return nil
}

func (c *cannealSwap) Body(t workload.Thread) {
	rng := t.Rand()
	for i := 0; i < c.iters; i++ {
		a := rng.Intn(c.n)
		b := rng.Intn(c.n)
		if a == b {
			continue
		}
		t.AsmAtomicSwap(c.sA, c.sB, c.elems+uint64(a)*8, c.elems+uint64(b)*8)
		t.Work(180) // evaluate the move
	}
	t.Wait(c.bar)
}

func (c *cannealSwap) Validate(env workload.Env) error {
	seen := make(map[uint64]int, c.n)
	for i := 0; i < c.n; i++ {
		seen[env.Load(c.elems+uint64(i)*8, 8)]++
	}
	for v := 1; v <= c.n; v++ {
		switch n := seen[uint64(v)]; {
		case n == 0:
			return fmt.Errorf("canneal-swap: element %d lost", v)
		case n > 1:
			return fmt.Errorf("canneal-swap: element %d replicated %d times", v, n)
		}
	}
	return nil
}

// choleskyFlag is Figure 12: T1 clears a volatile flag that T0 spins on;
// both then meet at a barrier. Under a PTSB without code-centric
// consistency, T0 holds a stale private copy of the flag's page (it wrote
// other data there) and spins forever. Code-centric consistency honors the
// volatile access as an atomic and reads shared memory.
type choleskyFlag struct {
	flag  uint64
	datum uint64
	done  uint64
	bar   workload.Barrier

	sFlagLd workload.Site
	sFlagSt workload.Site
	sDatum  workload.Site
	sDone   workload.Site
}

// CholeskyFlag constructs the Figure 12 kernel.
func CholeskyFlag() workload.Workload { return &choleskyFlag{} }

var _ workload.Workload = (*choleskyFlag)(nil)

func (c *choleskyFlag) Name() string { return "cholesky-flag" }

func (c *choleskyFlag) Info() workload.Info {
	return workload.Info{Threads: 2, FootprintMB: 1, UsesAtomics: true, UsesCustomSync: false,
		Desc: "Figure 12: volatile-flag spin that hangs without CCC"}
}

func (c *choleskyFlag) Setup(env workload.Env) error {
	if err := definedFor(c.Name(), 2, env); err != nil {
		return err
	}
	page := env.PageSize()
	base := env.Alloc(page, page) // one page holding flag and T0's datum
	c.flag = base
	c.datum = base + 512
	c.done = env.Alloc(8, 64)
	env.Store(c.flag, 8, 1) // flag starts true
	c.bar = env.NewBarrier("choleskyflag.bar", env.Threads())
	c.sFlagLd = env.Site("choleskyflag.load_flag", workload.SiteAtomic, 8)
	c.sFlagSt = env.Site("choleskyflag.store_flag", workload.SiteAtomic, 8)
	c.sDatum = env.Site("choleskyflag.datum", workload.SiteStore, 8)
	c.sDone = env.Site("choleskyflag.done", workload.SiteStore, 8)
	return nil
}

const flagSpinLimit = 50_000

func (c *choleskyFlag) Body(t workload.Thread) {
	if t.ID() == 0 {
		// T0 dirties the flag's page first (matrix setup), then spins.
		t.Store(c.sDatum, c.datum, 7)
		for spins := 0; ; spins++ {
			// The volatile read: code-centric consistency treats it as an
			// atomic (SC) access.
			if t.AtomicLoad(c.sFlagLd, c.flag, workload.SeqCst) == 0 {
				break
			}
			t.Work(40)
			if spins == flagSpinLimit {
				t.Hang("flag never observed false: stale private copy")
			}
		}
		t.Store(c.sDone, c.done, 1)
	} else {
		t.Work(20_000)
		t.AtomicStore(c.sFlagSt, c.flag, 0, workload.SeqCst)
	}
	t.Wait(c.bar)
}

func (c *choleskyFlag) Validate(env workload.Env) error {
	if env.Load(c.done, 8) != 1 {
		return fmt.Errorf("cholesky-flag: T0 never exited the spin loop")
	}
	return nil
}
