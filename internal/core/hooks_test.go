package core

import (
	"bytes"
	"testing"

	"repro/internal/raceflag"
	"repro/internal/sim/machine"
	"repro/internal/sim/trace"
	"repro/tmi/workload"
)

// hookOrderWorkload gives every wired layer something to do: each thread
// stores to its own word of a PTSB-armed page, then syncs (a mutex, whose
// commit publishes the store), enters a seq-cst atomic region (whose CCC
// flush commits again) and an asm region.
type hookOrderWorkload struct {
	words, ctr uint64
	mu         workload.Mutex
	st, add    workload.Site
}

func (w *hookOrderWorkload) Name() string                { return "hook-order" }
func (w *hookOrderWorkload) Info() workload.Info         { return workload.Info{Threads: 2} }
func (w *hookOrderWorkload) Validate(workload.Env) error { return nil }

func (w *hookOrderWorkload) Setup(env workload.Env) error {
	w.words = env.Alloc(128, 64)
	w.ctr = env.Alloc(8, 64)
	w.mu = env.NewMutex("order.mu")
	w.st = env.Site("order.store", workload.SiteStore, 8)
	w.add = env.Site("order.add", workload.SiteAtomic, 8)
	return nil
}

// hookOrderIters is how many times each thread runs hookOrderWorkload's
// loop, and so how many of its syncs find a store not yet published.
const hookOrderIters = 3

func (w *hookOrderWorkload) word(tid int) uint64 { return w.words + uint64(tid)*64 }

func (w *hookOrderWorkload) Body(t workload.Thread) {
	word := w.word(t.ID())
	for i := uint64(1); i <= hookOrderIters; i++ {
		t.Store(w.st, word, i)
		t.Lock(w.mu)
		t.Unlock(w.mu)
		t.Store(w.st, word, i)
		t.AtomicAdd(w.add, w.ctr, 1, workload.SeqCst)
		t.EnterAsm()
		t.Store(w.st, word, i)
		t.ExitAsm()
	}
}

// orderProbe is an Observer that checks, at each of its callbacks, which
// of the other two layers have already seen the event: the tracer's event
// counts, the controller's PTSB-disabled state and whether the thread's
// private word has been published to shared memory tell.
type orderProbe struct {
	t       *testing.T
	rt      *runtime
	w       *hookOrderWorkload
	depth   []int // per thread: open regions that disable the PTSB
	enters  uint64
	exits   uint64
	syncs   uint64
	pending int // syncs that found the thread's store not yet committed
}

func (p *orderProbe) OnAccess(*AccessInfo) {}
func (p *orderProbe) OnWake(int, int)      {}

func (p *orderProbe) OnRegion(tid int, k machine.RegionKind, enter bool) {
	disables := k != machine.RegionAtomicRelaxed
	if enter {
		p.enters++
		if n := p.rt.tracer.Count(trace.KindRegionEnter); n != p.enters {
			p.t.Errorf("region enter %d: tracer has %d enters; it must run before the observer", p.enters, n)
		}
		p.checkController(tid, "enter", "after")
		if disables {
			p.depth[tid]++
		}
		return
	}
	p.exits++
	if disables {
		p.depth[tid]--
	}
	if n := p.rt.tracer.Count(trace.KindRegionExit); n != p.exits-1 {
		p.t.Errorf("region exit %d: tracer has %d exits; it must run after the observer", p.exits, n)
	}
	p.checkController(tid, "exit", "before")
}

// checkController fails unless the controller's PTSB-disabled state is the
// one the observer's own region depth predicts.
func (p *orderProbe) checkController(tid int, event, when string) {
	th := p.rt.mc.Threads()[tid]
	if got, want := p.rt.cccCtl.Disabled(th), p.depth[tid] > 0; got != want {
		p.t.Errorf("T%d region %s: controller disabled=%v, want %v; it must run %s the observer", tid, event, got, want, when)
	}
}

func (p *orderProbe) OnSync(tid int) {
	p.syncs++
	if n := p.rt.tracer.Count(trace.KindSync); n != p.syncs {
		p.t.Errorf("sync %d: tracer has %d syncs; it must run before the observer", p.syncs, n)
	}
	addr := p.w.word(tid)
	private, err1 := p.rt.mc.Threads()[tid].Space().ReadBytes(addr, 8)
	shared, err2 := p.rt.sharedView.ReadBytes(addr, 8)
	if err1 != nil || err2 != nil {
		p.t.Errorf("sync %d: reading T%d's word: %v, %v", p.syncs, tid, err1, err2)
	} else if !bytes.Equal(private, shared) {
		p.pending++
	}
}

// TestHookChainOrderIsDeterministic pins the wired layer order on a real
// run: region enter and sync reach tracer → observer → controller, region
// exit the reverse. This is the contract that lets the tracer and the
// model-checker observer coexist: each sees a consistent view no matter
// which Config flags are set.
func TestHookChainOrderIsDeterministic(t *testing.T) {
	w := &hookOrderWorkload{}
	probe := &orderProbe{t: t, w: w, depth: make([]int, 2)}
	cfg := Config{Setup: TMIAlloc, ForceProtect: true, Trace: true, Observer: probe}.withDefaults()
	rt, err := build(w, cfg, w.Info(), 2)
	if err != nil {
		t.Fatal(err)
	}
	probe.rt = rt
	if _, err := rt.execute(w); err != nil {
		t.Fatal(err)
	}
	if probe.enters == 0 || probe.exits != probe.enters {
		t.Errorf("observer saw %d enters and %d exits, want a matched nonzero count", probe.enters, probe.exits)
	}
	// Each iteration's mutex acquire must reach the observer while the
	// store before it is still private: the commit runs after.
	if want := 2 * hookOrderIters; probe.pending != want {
		t.Errorf("observer saw an unpublished store at %d of %d syncs, want %d; the commit must run after the observer",
			probe.pending, probe.syncs, want)
	}
}

// pingPongWorkload keeps a line contended: thread 1 stores to its word
// until thread 0, which shares the line, has measured its own accesses.
type pingPongWorkload struct {
	line        uint64
	ld, st, add workload.Site
	done        bool
	allocs      float64
}

func (w *pingPongWorkload) Name() string                { return "ping-pong" }
func (w *pingPongWorkload) Info() workload.Info         { return workload.Info{Threads: 2} }
func (w *pingPongWorkload) Validate(workload.Env) error { return nil }

func (w *pingPongWorkload) Setup(env workload.Env) error {
	w.line = env.Alloc(64, 64)
	w.ld = env.Site("pp.load", workload.SiteLoad, 8)
	w.st = env.Site("pp.store", workload.SiteStore, 8)
	w.add = env.Site("pp.add", workload.SiteAtomic, 8)
	return nil
}

func (w *pingPongWorkload) Body(t workload.Thread) {
	if t.ID() == 1 {
		for !w.done {
			t.Store(w.st, w.line+8, 1)
		}
		return
	}
	i := uint64(0)
	access := func() {
		t.Store(w.st, w.line, i)
		t.Load(w.ld, w.line)
		t.AtomicAdd(w.add, w.line+16, 1, workload.SeqCst)
		i++
	}
	for range 2000 { // warm: fault the page, grow the sample buffers
		access()
	}
	w.allocs = testing.AllocsPerRun(2000, access)
	w.done = true
}

// A steady-state access through the wired hooks under TMIDetect — region
// enter and exit, post-access with HITMs reaching the sampler — must not
// allocate. Detection ticks may allocate; they are rare enough per access
// that AllocsPerRun's per-run average rounds them away.
func TestWiredAccessSteadyStateAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("AllocsPerRun is meaningless under -race")
	}
	w := &pingPongWorkload{}
	rep, err := Run(w, Config{Setup: TMIDetect})
	if err != nil {
		t.Fatal(err)
	}
	if rep.RecordsSeen == 0 {
		t.Fatal("no PEBS records reached the detector; the sampler path did not run")
	}
	if w.allocs != 0 {
		t.Errorf("steady-state access allocates %.1f/op, want 0", w.allocs)
	}
}
