package analysis_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/alloc"
	"repro/internal/analysis"
	"repro/internal/detect"
	"repro/tmi"
	"repro/tmi/workload"
	"repro/tmi/workloads"
)

// TestCatalogClean is the annotation gate: every named catalog workload,
// including the manual variants, must model and verify with zero findings.
func TestCatalogClean(t *testing.T) {
	for _, name := range workloads.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			w, err := workloads.ByName(name)
			if err != nil {
				t.Fatalf("ByName: %v", err)
			}
			m, err := analysis.BuildModel(w, analysis.Options{})
			if err != nil {
				t.Fatalf("BuildModel: %v", err)
			}
			for _, f := range analysis.Verify(m) {
				t.Errorf("finding: %s", f)
			}
		})
	}
}

// TestFixtureFlaggedStatically checks that the seeded misannotated fixture
// is caught by the static verifier with the expected rule.
func TestFixtureFlaggedStatically(t *testing.T) {
	w, err := workloads.ByName("misannotated")
	if err != nil {
		t.Fatalf("ByName: %v", err)
	}
	m, err := analysis.BuildModel(w, analysis.Options{})
	if err != nil {
		t.Fatalf("BuildModel: %v", err)
	}
	findings := analysis.Verify(m)
	var unannotated int
	for _, f := range findings {
		if f.Rule == "unannotated-atomic" {
			unannotated++
			if !strings.Contains(f.Detail, "Table 2 case 1") {
				t.Errorf("finding does not cite the Table 2 demotion: %s", f)
			}
		}
	}
	// Both the read and the bump site are reached by plain accesses.
	if unannotated != 2 {
		t.Fatalf("got %d unannotated-atomic findings, want 2; all: %v", unannotated, findings)
	}
}

// TestDeterministic checks that two builds of the same model agree.
func TestDeterministic(t *testing.T) {
	build := func() *analysis.Model {
		w, err := workloads.ByName("spinlockpool")
		if err != nil {
			t.Fatalf("ByName: %v", err)
		}
		m, err := analysis.BuildModel(w, analysis.Options{})
		if err != nil {
			t.Fatalf("BuildModel: %v", err)
		}
		return m
	}
	a, b := build(), build()
	if len(a.Lines) != len(b.Lines) || a.Ops != b.Ops {
		t.Fatalf("models differ: %d/%d lines, %d/%d ops", len(a.Lines), len(b.Lines), a.Ops, b.Ops)
	}
	pa, pb := a.PredictLines(), b.PredictLines()
	if fmt.Sprint(pa) != fmt.Sprint(pb) {
		t.Fatalf("predictions differ:\n%v\n%v", pa, pb)
	}
}

// tiny is a configurable inline workload for edge-case tests.
type tiny struct {
	threads  int
	setup    func(*tiny, workload.Env) error
	body     func(*tiny, workload.Thread)
	validate func(*tiny, workload.Env) error
	info     workload.Info

	base  uint64
	bar   workload.Barrier
	mu    workload.Mutex
	sites map[string]workload.Site
}

func (w *tiny) Name() string { return "tiny" }
func (w *tiny) Info() workload.Info {
	info := w.info
	if info.Threads == 0 {
		info.Threads = w.threads
	}
	return info
}
func (w *tiny) Setup(env workload.Env) error { return w.setup(w, env) }
func (w *tiny) Body(t workload.Thread)       { w.body(w, t) }
func (w *tiny) Validate(env workload.Env) error {
	if w.validate == nil {
		return nil
	}
	return w.validate(w, env)
}

// TestAtomicIsLoadAndStore: an atomic RMW must contribute both read and
// write footprints, so two threads doing disjoint-byte atomics on one line
// classify as false sharing.
func TestAtomicIsLoadAndStore(t *testing.T) {
	w := &tiny{
		threads: 2,
		info:    workload.Info{UsesAtomics: true},
		setup: func(w *tiny, env workload.Env) error {
			w.base = env.Alloc(64, 64)
			w.sites = map[string]workload.Site{
				"a": env.Site("tiny.a", workload.SiteAtomic, 8),
			}
			return nil
		},
		body: func(w *tiny, t workload.Thread) {
			addr := w.base + uint64(t.ID())*8
			for i := 0; i < 100; i++ {
				t.AtomicAdd(w.sites["a"], addr, 1, workload.Relaxed)
			}
		},
	}
	m, err := analysis.BuildModel(w, analysis.Options{})
	if err != nil {
		t.Fatalf("BuildModel: %v", err)
	}
	if fs := analysis.Verify(m); len(fs) != 0 {
		t.Fatalf("unexpected findings: %v", fs)
	}
	lm := m.Lines[w.base]
	if lm == nil {
		t.Fatal("no line model for the shared line")
	}
	for tid := 0; tid < 2; tid++ {
		f := lm.PerThread[tid]
		if f == nil || f.ReadMask == 0 || f.WriteMask == 0 {
			t.Fatalf("thread %d foot %+v: atomic must set both masks", tid, f)
		}
	}
	preds := m.PredictLines()
	if len(preds) != 1 || preds[0].Class != detect.SharingFalse {
		t.Fatalf("predictions %v, want one false-sharing line", preds)
	}
}

// TestOverlapIsTrueSharing: overlapping cross-thread byte ranges with a
// writer must classify as true sharing, exactly like the dynamic detector.
func TestOverlapIsTrueSharing(t *testing.T) {
	w := &tiny{
		threads: 2,
		setup: func(w *tiny, env workload.Env) error {
			w.base = env.Alloc(64, 64)
			w.sites = map[string]workload.Site{
				"w8": env.Site("tiny.w8", workload.SiteStore, 8),
				"r4": env.Site("tiny.r4", workload.SiteLoad, 4),
			}
			return nil
		},
		body: func(w *tiny, t workload.Thread) {
			for i := 0; i < 100; i++ {
				if t.ID() == 0 {
					t.Store(w.sites["w8"], w.base, 7) // bytes [0,8)
				} else {
					t.Load(w.sites["r4"], w.base+4) // bytes [4,8): overlaps
				}
			}
		},
	}
	m, err := analysis.BuildModel(w, analysis.Options{})
	if err != nil {
		t.Fatalf("BuildModel: %v", err)
	}
	preds := m.PredictLines()
	if len(preds) != 1 || preds[0].Class != detect.SharingTrue {
		t.Fatalf("predictions %v, want one true-sharing line", preds)
	}
}

// TestDeadlockAborts: a barrier that can never fill must abort with a
// deadlock finding instead of hanging the analysis.
func TestDeadlockAborts(t *testing.T) {
	w := &tiny{
		threads: 2,
		setup: func(w *tiny, env workload.Env) error {
			w.bar = env.NewBarrier("tiny.bar", env.Threads()+1)
			return nil
		},
		body: func(w *tiny, t workload.Thread) {
			t.Wait(w.bar)
		},
	}
	m, err := analysis.BuildModel(w, analysis.Options{})
	if err != nil {
		t.Fatalf("BuildModel: %v", err)
	}
	if !m.Aborted {
		t.Fatal("model not marked aborted")
	}
	var deadlock bool
	for _, f := range analysis.Verify(m) {
		deadlock = deadlock || f.Rule == "deadlock"
	}
	if !deadlock {
		t.Fatalf("no deadlock finding: %v", analysis.Verify(m))
	}
}

// hasRule reports whether the model's verified findings include rule.
func hasRule(t *testing.T, w workload.Workload, rule string) {
	t.Helper()
	m, err := analysis.BuildModel(w, analysis.Options{})
	if err != nil {
		t.Fatalf("BuildModel: %v", err)
	}
	fs := analysis.Verify(m)
	for _, f := range fs {
		if f.Rule == rule {
			return
		}
	}
	t.Fatalf("no %s finding: %v", rule, fs)
}

// TestFaultFlagged: an access to unmapped memory must end in a fault
// finding, not a crashed analysis.
func TestFaultFlagged(t *testing.T) {
	hasRule(t, &tiny{
		threads: 1,
		setup: func(w *tiny, env workload.Env) error {
			w.sites = map[string]workload.Site{"ld": env.Site("tiny.ld", workload.SiteLoad, 8)}
			return nil
		},
		body: func(w *tiny, t workload.Thread) {
			t.Load(w.sites["ld"], 0x40)
		},
	}, "fault")
}

// TestHangFlagged: a thread that reports itself livelocked must produce a
// hang finding.
func TestHangFlagged(t *testing.T) {
	hasRule(t, &tiny{
		threads: 1,
		setup:   func(w *tiny, env workload.Env) error { return nil },
		body: func(w *tiny, t workload.Thread) {
			t.Hang("flag never set")
		},
	}, "hang")
}

// TestLockMisuseFlagged: unlocking a mutex the thread does not hold must
// produce a lock-misuse finding.
func TestLockMisuseFlagged(t *testing.T) {
	hasRule(t, &tiny{
		threads: 1,
		setup: func(w *tiny, env workload.Env) error {
			w.mu = env.NewMutex("tiny.mu")
			return nil
		},
		body: func(w *tiny, t workload.Thread) {
			t.Unlock(w.mu)
		},
	}, "lock-misuse")
}

// TestValidateFlagged: a workload whose Validate rejects the final state
// must produce a validate finding.
func TestValidateFlagged(t *testing.T) {
	hasRule(t, &tiny{
		threads:  1,
		setup:    func(w *tiny, env workload.Env) error { return nil },
		body:     func(w *tiny, t workload.Thread) {},
		validate: func(w *tiny, env workload.Env) error { return fmt.Errorf("wrong total") },
	}, "validate")
}

// TestCondTakesAStateObject: the model's lock words are the runtime's own.
// psync gives a condition variable a padded state-region object, so a mutex
// created after one has its CAS target on the next state line.
func TestCondTakesAStateObject(t *testing.T) {
	w := &tiny{
		threads: 1,
		setup: func(w *tiny, env workload.Env) error {
			env.NewCond("tiny.cv")
			w.mu = env.NewMutex("tiny.mu")
			return nil
		},
		body: func(w *tiny, t workload.Thread) {
			t.Lock(w.mu)
			t.Unlock(w.mu)
		},
	}
	m, err := analysis.BuildModel(w, analysis.Options{Trace: true})
	if err != nil {
		t.Fatalf("BuildModel: %v", err)
	}
	for _, ev := range m.Trace {
		if ev.Site == "psync.mutex.cas" {
			if want := alloc.StateBase + 64; ev.Addr != want {
				t.Fatalf("mutex CAS at 0x%x, want 0x%x (after the cond's object)", ev.Addr, want)
			}
			return
		}
	}
	t.Fatalf("no psync.mutex.cas event in the trace: %v", m.Trace)
}

// TestUnbalancedAsmFlagged: a body that enters an asm region and never
// exits must produce an unbalanced-region finding.
func TestUnbalancedAsmFlagged(t *testing.T) {
	w := &tiny{
		threads: 1,
		info:    workload.Info{UsesAsm: true},
		setup:   func(w *tiny, env workload.Env) error { return nil },
		body: func(w *tiny, t workload.Thread) {
			t.EnterAsm()
		},
	}
	m, err := analysis.BuildModel(w, analysis.Options{})
	if err != nil {
		t.Fatalf("BuildModel: %v", err)
	}
	var unbalanced bool
	for _, f := range analysis.Verify(m) {
		unbalanced = unbalanced || f.Rule == "unbalanced-region"
	}
	if !unbalanced {
		t.Fatalf("no unbalanced-region finding: %v", analysis.Verify(m))
	}
}

// TestPrecisionRecall compares static predictions against dynamic detector
// runs for three catalog false-sharing workloads. The static model sees
// exact footprints while the detector samples, so demand recall of the
// dynamic false-sharing lines and sane precision bounds.
func TestPrecisionRecall(t *testing.T) {
	for _, name := range []string{"histogramfs", "lreg", "stringmatch"} {
		name := name
		t.Run(name, func(t *testing.T) {
			w, err := workloads.ByName(name)
			if err != nil {
				t.Fatalf("ByName: %v", err)
			}
			m, err := analysis.BuildModel(w, analysis.Options{})
			if err != nil {
				t.Fatalf("BuildModel: %v", err)
			}
			dyn, err := workloads.ByName(name)
			if err != nil {
				t.Fatalf("ByName: %v", err)
			}
			rep, err := tmi.Run(dyn, tmi.Config{System: tmi.TMIDetect})
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			acc := analysis.CompareFalseSharing(m, rep.Lines, analysis.DefaultMinAccesses)
			t.Logf("%s", acc)
			if acc.DynamicFalse == 0 {
				t.Fatalf("dynamic run found no false sharing to compare against")
			}
			if acc.Recall < 0.5 {
				t.Errorf("recall %.2f too low: static model missed most dynamic lines", acc.Recall)
			}
			if acc.Precision < 0 || acc.Precision > 1 || acc.Recall > 1 {
				t.Errorf("accuracy out of bounds: %+v", acc)
			}
		})
	}
}
