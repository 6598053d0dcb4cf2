package workloads

import (
	"strings"
	"testing"

	"repro/tmi"
	"repro/tmi/workload"
)

// TestLitmusSpecsWellFormed checks every table entry against what the
// interpreter indexes blindly: one op list per thread, sites, pages and
// registers in range, guards on a register the thread loaded earlier, one
// forbidden value per outcome register, and unique site and kernel names.
func TestLitmusSpecsWellFormed(t *testing.T) {
	kernels := map[string]bool{}
	for _, s := range litmusSpecs {
		if kernels[s.name] {
			t.Errorf("duplicate kernel %q", s.name)
		}
		kernels[s.name] = true
		if len(s.ops) != s.threads {
			t.Errorf("%s: %d op lists for %d threads", s.name, len(s.ops), s.threads)
		}
		if len(s.forbid) != len(s.regs) {
			t.Errorf("%s: forbidden tuple has %d values for %d registers", s.name, len(s.forbid), len(s.regs))
		}
		names := map[string]bool{}
		for _, site := range s.sites {
			if names[site.name] {
				t.Errorf("%s: duplicate site %q", s.name, site.name)
			}
			names[site.name] = true
		}
		for tid, ops := range s.ops {
			loaded := map[int]bool{}
			for i, op := range ops {
				if op.guard != noGuard && !loaded[op.guard] {
					t.Errorf("%s: T%d op %d guards on r%d, which T%d has not loaded", s.name, tid, i, op.guard, tid)
				}
				if op.kind == litmusFence {
					continue
				}
				if op.site < 0 || op.site >= len(s.sites) || op.page < 0 || op.page >= s.pages {
					t.Errorf("%s: T%d op %d: site %d or page %d out of range", s.name, tid, i, op.site, op.page)
				}
				if op.kind == litmusLoad {
					if op.reg < 0 || op.reg >= len(s.regs) {
						t.Errorf("%s: T%d op %d loads into r%d of %d", s.name, tid, i, op.reg, len(s.regs))
					}
					loaded[op.reg] = true
				}
			}
		}
	}
}

// TestLitmusRunsCleanUnderDefaultSchedule smoke-tests every litmus kernel
// under the default (min-clock) schedule: the kernels must set up, run and
// validate under the baseline and under TMI. The annotation contract of every
// kernel is checked by internal/analysis's TestCatalogClean and schedule
// exploration lives in internal/mc; this test only pins that the kernels
// are well-formed workloads.
func TestLitmusRunsCleanUnderDefaultSchedule(t *testing.T) {
	for _, s := range litmusSpecs {
		for _, sys := range []tmi.System{tmi.Pthreads, tmi.TMIAlloc} {
			w, err := ByName(s.name)
			if err != nil {
				t.Fatalf("ByName(%q): %v", s.name, err)
			}
			rep, err := tmi.Run(w, tmi.Config{System: sys})
			if err != nil {
				t.Fatalf("%s under %v: %v", s.name, sys, err)
			}
			if !rep.Validated {
				t.Errorf("%s under %v: %s", s.name, sys, rep.ValidationErr)
			}
			out := w.(workload.Outcomer).Outcome(nil)
			if out == "" || strings.Contains(out, "%!") {
				t.Errorf("%s: bad outcome fingerprint %q", s.name, out)
			}
		}
	}
}

// TestLitmusRejectsUndefinedThreadCount: a kernel defines its threads'
// programs (the litmus rows and the two-thread CCC kernels alike), so
// running it on another thread count is a setup error, not a run in which
// the extra threads replay some defined thread's program (a false race in
// a clean kernel) or some threads never run.
func TestLitmusRejectsUndefinedThreadCount(t *testing.T) {
	for _, name := range []string{"litmus-sb", "wordtear", "wordtear-asm", "cholesky-flag"} {
		for _, n := range []int{1, 3} {
			w, err := ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			_, err = tmi.Run(w, tmi.Config{System: tmi.Pthreads, Threads: n})
			if want := name + ": defined for 2 threads"; err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("%s, Threads: %d: err = %v, want a setup error naming %s and its 2 threads", name, n, err, name)
			}
		}
	}
}
