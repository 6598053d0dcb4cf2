package workloads

import (
	"fmt"

	"repro/tmi/workload"
)

// misannotated is a deliberately broken fixture for tmilint's annotation
// verifier: it models a program built with one translation unit skipped by
// the CCC annotation pass (§3.4). The shared generation word is an atomic
// instruction (the site registers as SiteAtomic), but the code reaches it
// with plain loads and stores — no region callbacks fire, so under the PTSB
// its cross-thread races silently demote from Table 2 case 2 ("atomic") to
// case 1 ("undefined"). The verifier must flag both sites
// (unannotated-atomic), which `make lint` pins; the fixture is resolvable
// by name but deliberately kept out of Names() so catalog-wide gates stay
// clean.
type misannotated struct {
	iters int

	gen      uint64 // shared generation word, one line
	counters uint64 // per-thread padded counters, one line each
	bar      workload.Barrier

	sGen    workload.Site // SiteAtomic reached by plain accesses (the bug)
	sGenSet workload.Site // SiteAtomic reached by plain stores (the bug)
	sCtr    workload.Site
	sCtrLd  workload.Site
}

// Misannotated constructs the fixture.
func Misannotated() workload.Workload { return &misannotated{iters: 4000} }

var _ workload.Workload = (*misannotated)(nil)

func (m *misannotated) Name() string { return "misannotated" }

func (m *misannotated) Info() workload.Info {
	return workload.Info{
		Threads:     4,
		FootprintMB: 1,
		UsesAtomics: true, // the sites are atomic instructions; the annotations are what is missing
		Desc:        "fixture: atomic generation word accessed without region callbacks",
	}
}

func (m *misannotated) Setup(env workload.Env) error {
	n := env.Threads()
	m.gen = env.Alloc(64, 64)
	m.counters = env.Alloc(n*64, 64)
	m.bar = env.NewBarrier("misannotated.bar", n)
	m.sGen = env.Site("misannotated.gen_read", workload.SiteAtomic, 8)
	m.sGenSet = env.Site("misannotated.gen_bump", workload.SiteAtomic, 8)
	m.sCtr = env.Site("misannotated.counter", workload.SiteStore, 8)
	m.sCtrLd = env.Site("misannotated.counter_load", workload.SiteLoad, 8)
	return nil
}

func (m *misannotated) Body(t workload.Thread) {
	my := m.counters + uint64(t.ID())*64
	for i := 0; i < m.iters; i++ {
		// The missed annotation: both accesses reach SiteAtomic sites as
		// plain operations, so no consistency region brackets them.
		g := t.Load(m.sGen, m.gen)
		t.Store(m.sGenSet, m.gen, g|1)
		// Honest per-thread work so Validate stays deterministic.
		t.Store(m.sCtr, my, t.Load(m.sCtrLd, my)+1)
	}
	t.Wait(m.bar)
}

func (m *misannotated) Validate(env workload.Env) error {
	n := env.Threads()
	for tid := 0; tid < n; tid++ {
		if got := env.Load(m.counters+uint64(tid)*64, 8); got != uint64(m.iters) {
			return fmt.Errorf("misannotated: thread %d counter %d, want %d", tid, got, m.iters)
		}
	}
	if env.Load(m.gen, 8)&1 != 1 {
		return fmt.Errorf("misannotated: generation bit never set")
	}
	return nil
}
