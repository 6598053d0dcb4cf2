package core

import (
	"strings"
	"testing"

	"repro/tmi/workload"
)

func TestSetupStrings(t *testing.T) {
	want := map[Setup]string{
		Pthreads:       "pthreads",
		TMIAlloc:       "tmi-alloc",
		TMIDetect:      "tmi-detect",
		TMIProtect:     "tmi-protect",
		SheriffDetect:  "sheriff-detect",
		SheriffProtect: "sheriff-protect",
		LASER:          "laser",
	}
	for s, name := range want {
		if s.String() != name {
			t.Errorf("%d.String() = %q, want %q", int(s), s.String(), name)
		}
	}
}

func TestSetupPredicates(t *testing.T) {
	if !TMIAlloc.IsTMI() || !TMIDetect.IsTMI() || !TMIProtect.IsTMI() {
		t.Error("TMI modes misclassified")
	}
	if Pthreads.IsTMI() || SheriffProtect.IsTMI() || LASER.IsTMI() {
		t.Error("non-TMI setups misclassified")
	}
	if !SheriffDetect.IsSheriff() || !SheriffProtect.IsSheriff() {
		t.Error("sheriff predicates wrong")
	}
	for _, s := range []Setup{TMIDetect, TMIProtect, LASER} {
		if !s.Monitors() {
			t.Errorf("%v should monitor", s)
		}
	}
	for _, s := range []Setup{Pthreads, TMIAlloc, SheriffDetect, SheriffProtect} {
		if s.Monitors() {
			t.Errorf("%v should not monitor", s)
		}
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Period != 100 {
		t.Errorf("default period %d, want 100 (the paper's operating point)", c.Period)
	}
	if c.ThresholdPerSec != 100_000 {
		t.Errorf("default threshold %f, want 100000", c.ThresholdPerSec)
	}
	// Explicit values survive.
	c = Config{Period: 7, ThresholdPerSec: 5}.withDefaults()
	if c.Period != 7 || c.ThresholdPerSec != 5 {
		t.Error("explicit config values overwritten")
	}
}

func TestSheriffIncompatibilityGate(t *testing.T) {
	if r := sheriffIncompatibility(workload.Info{FootprintMB: 50}); r != "" {
		t.Errorf("small clean workload should be compatible: %q", r)
	}
	if r := sheriffIncompatibility(workload.Info{FootprintMB: 5000}); !strings.Contains(r, "footprint") {
		t.Errorf("large footprint should be incompatible: %q", r)
	}
	if r := sheriffIncompatibility(workload.Info{FootprintMB: 10, UsesCustomSync: true}); !strings.Contains(r, "synchronization") {
		t.Errorf("custom sync should be incompatible: %q", r)
	}
}

func TestErrIncompatibleMessage(t *testing.T) {
	e := &ErrIncompatible{System: "sheriff-protect", Workload: "ocean-ncp", Reason: "too big"}
	msg := e.Error()
	for _, part := range []string{"sheriff-protect", "ocean-ncp", "too big"} {
		if !strings.Contains(msg, part) {
			t.Errorf("error message %q missing %q", msg, part)
		}
	}
}

type nilThreadsWorkload struct{ workload.Workload }

func (nilThreadsWorkload) Name() string                { return "broken" }
func (nilThreadsWorkload) Info() workload.Info         { return workload.Info{} }
func (nilThreadsWorkload) Setup(workload.Env) error    { return nil }
func (nilThreadsWorkload) Body(workload.Thread)        {}
func (nilThreadsWorkload) Validate(workload.Env) error { return nil }

func TestRunRejectsZeroThreads(t *testing.T) {
	if _, err := Run(nilThreadsWorkload{}, Config{}); err == nil {
		t.Error("a workload declaring no threads must be rejected")
	}
}
