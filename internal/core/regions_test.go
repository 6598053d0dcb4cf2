package core

import (
	"fmt"
	"testing"

	"repro/internal/sim/machine"
	"repro/tmi/workload"
)

var allOrders = []workload.MemOrder{workload.Relaxed, workload.Acquire, workload.Release, workload.SeqCst, workload.AcqRel}

// atomicsFixture calls every atomic Thread method at every memory order
// through a site of its own, plus Fence, an atomic inside EnterAsm/ExitAsm,
// AsmAtomicSwap and a mutex (whose psync accesses are runtime sites).
type atomicsFixture struct {
	sites map[string]workload.Site
	words uint64
	mu    workload.Mutex
}

func (w *atomicsFixture) Name() string                { return "atomics-fixture" }
func (w *atomicsFixture) Info() workload.Info         { return workload.Info{Threads: 2} }
func (w *atomicsFixture) Validate(workload.Env) error { return nil }

func (w *atomicsFixture) Setup(env workload.Env) error {
	w.sites = map[string]workload.Site{}
	for _, m := range []string{"add", "cas", "load", "store"} {
		for _, o := range allOrders {
			name := fmt.Sprintf("fx.%s.%v", m, o)
			w.sites[name] = env.Site(name, workload.SiteAtomic, 8)
		}
	}
	for _, name := range []string{"fx.asm.add", "fx.swap.a", "fx.swap.b"} {
		w.sites[name] = env.Site(name, workload.SiteAtomic, 8)
	}
	w.words = env.Alloc(128, 64)
	w.mu = env.NewMutex("fx.mu")
	return nil
}

func (w *atomicsFixture) Body(t workload.Thread) {
	a, b := w.words, w.words+64
	for _, o := range allOrders {
		t.AtomicAdd(w.sites[fmt.Sprintf("fx.add.%v", o)], a, 1, o)
		v := t.AtomicLoad(w.sites[fmt.Sprintf("fx.load.%v", o)], a, o)
		t.AtomicCAS(w.sites[fmt.Sprintf("fx.cas.%v", o)], a, v, v+1, o)
		t.AtomicStore(w.sites[fmt.Sprintf("fx.store.%v", o)], b, v, o)
		t.Fence(o)
	}
	t.EnterAsm()
	t.AtomicAdd(w.sites["fx.asm.add"], a, 1, workload.SeqCst)
	t.ExitAsm()
	t.AsmAtomicSwap(w.sites["fx.swap.a"], w.sites["fx.swap.b"], a, b)
	t.Lock(w.mu)
	t.Unlock(w.mu)
}

// regionDepthObserver tracks each thread's region nesting and checks every
// application access against it.
type regionDepthObserver struct {
	t      *testing.T
	depth  map[int]int
	atSite map[string]int // application accesses per site
	maxAt  map[string]int // deepest nesting each site was reached at
	fences map[machine.RegionKind]bool
}

func (o *regionDepthObserver) OnAccess(a *AccessInfo) {
	if a.Runtime {
		return
	}
	if !a.Atomic {
		o.t.Errorf("thread %d: plain access through %q", a.TID, a.Site)
	}
	d := o.depth[a.TID]
	if d < 1 {
		o.t.Errorf("thread %d: atomic at %q (pc 0x%x) arrived outside any region", a.TID, a.Site, a.PC)
	}
	o.atSite[a.Site]++
	if d > o.maxAt[a.Site] {
		o.maxAt[a.Site] = d
	}
}

func (o *regionDepthObserver) OnRegion(tid int, k machine.RegionKind, enter bool) {
	if !enter {
		o.depth[tid]--
		return
	}
	o.depth[tid]++
	if k.IsFence() {
		o.fences[k] = true
	}
}

func (o *regionDepthObserver) OnSync(int)      {}
func (o *regionDepthObserver) OnWake(int, int) {}

// TestAppAtomicsRunInsideRegions pins that the annotation contract cannot
// be broken from inside runThread: every application atomic arrives inside
// a consistency region, and every region is closed when the threads exit.
// A workload can only break the contract through its sites (a plain access
// through an atomic site, a kind mismatch, an unbalanced asm region), which
// is what internal/analysis.Verify checks.
func TestAppAtomicsRunInsideRegions(t *testing.T) {
	for _, setup := range []Setup{Pthreads, TMIDetect, TMIProtect} {
		t.Run(setup.String(), func(t *testing.T) {
			obs := &regionDepthObserver{
				t: t, depth: map[int]int{}, atSite: map[string]int{},
				maxAt: map[string]int{}, fences: map[machine.RegionKind]bool{},
			}
			w := &atomicsFixture{}
			rep, err := Run(w, Config{Setup: setup, Seed: 1, Observer: obs})
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Validated {
				t.Fatalf("fixture did not validate: %s", rep.ValidationErr)
			}
			for tid, d := range obs.depth {
				if d != 0 {
					t.Errorf("thread %d exited at region depth %d", tid, d)
				}
			}
			for name := range w.sites {
				if obs.atSite[name] < 1 {
					t.Errorf("site %q produced no access", name)
				}
			}
			if obs.maxAt["fx.asm.add"] < 2 {
				t.Errorf("atomic inside EnterAsm/ExitAsm reached depth %d, want its own region inside the asm region", obs.maxAt["fx.asm.add"])
			}
			for _, k := range []machine.RegionKind{machine.RegionFenceAcquire, machine.RegionFenceRelease, machine.RegionFenceAcqRel, machine.RegionFenceSeqCst} {
				if !obs.fences[k] {
					t.Errorf("no %v region from Fence", k)
				}
			}
		})
	}
}
