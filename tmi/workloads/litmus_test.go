package workloads_test

import (
	"strings"
	"testing"

	"repro/tmi"
	"repro/tmi/workload"
	"repro/tmi/workloads"
)

// TestLitmusRunsCleanUnderDefaultSchedule smoke-tests every litmus kernel
// under the default (min-clock) schedule: the kernels must set up, run and
// validate under the baseline and under TMI. The annotation contract of every
// kernel is checked by internal/analysis's TestCatalogClean and schedule
// exploration lives in internal/mc; this test only pins that the kernels
// are well-formed workloads.
func TestLitmusRunsCleanUnderDefaultSchedule(t *testing.T) {
	names := []string{
		"litmus-sb", "litmus-mp", "litmus-lb", "litmus-iriw", "litmus-corr",
		"litmus-brokenfence",
	}
	for _, name := range names {
		for _, sys := range []tmi.System{tmi.Pthreads, tmi.TMIAlloc} {
			w, err := workloads.ByName(name)
			if err != nil {
				t.Fatalf("ByName(%q): %v", name, err)
			}
			rep, err := tmi.Run(w, tmi.Config{System: sys})
			if err != nil {
				t.Fatalf("%s under %v: %v", name, sys, err)
			}
			if !rep.Validated {
				t.Errorf("%s under %v: %s", name, sys, rep.ValidationErr)
			}
			if out, ok := w.(workload.Outcomer); ok {
				s := out.Outcome(nil)
				if s == "" || strings.Contains(s, "%!") {
					t.Errorf("%s: bad outcome fingerprint %q", name, s)
				}
			} else {
				t.Errorf("%s: does not implement workload.Outcomer", name)
			}
		}
	}
}
