package mc_test

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/mc"
	"repro/tmi/workload"
	"repro/tmi/workloads"
)

func factory(t *testing.T, name string) mc.Factory {
	t.Helper()
	return func() (workload.Workload, error) { return workloads.ByName(name) }
}

func baselineOpts() mc.Options {
	return mc.Options{Setup: core.Pthreads}
}

func ptsbOpts() mc.Options {
	return mc.Options{Setup: core.TMIAlloc, ForceProtect: true}
}

// TestExploreSB pins the exact SC outcome set of store buffering: the
// forbidden r0=0,r1=0 must be absent and the three SC outcomes present.
func TestExploreSB(t *testing.T) {
	res, err := mc.Explore(factory(t, "litmus-sb"), baselineOpts())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete {
		t.Fatalf("exploration incomplete after %d runs", res.Runs)
	}
	want := []string{"r0=0 r1=1", "r0=1 r1=0", "r0=1 r1=1"}
	if got := res.OutcomeSet(); !reflect.DeepEqual(got, want) {
		t.Fatalf("outcome set = %v, want %v", got, want)
	}
	if !res.AllValidated() {
		t.Fatalf("some SC outcome failed validation: %+v", res.Outcomes)
	}
	t.Logf("litmus-sb baseline: %d runs (%d sleep-blocked), depth %d",
		res.Runs, res.SleepBlocked, res.MaxDepth)
}

// TestDPORMatchesBrute cross-validates the reduction: sleep-set DPOR must
// observe exactly the outcome set brute-force enumeration observes, on both
// configurations, while executing fewer runs.
func TestDPORMatchesBrute(t *testing.T) {
	for _, name := range []string{"litmus-sb", "litmus-mp"} {
		for _, cfg := range []struct {
			label string
			opts  mc.Options
		}{
			{"baseline", baselineOpts()},
			{"ptsb", ptsbOpts()},
		} {
			opts := cfg.opts
			opts.MaxRuns = 2_000_000
			brute, err := mc.EnumerateAll(factory(t, name), opts)
			if err != nil {
				t.Fatalf("%s/%s: brute: %v", name, cfg.label, err)
			}
			if !brute.Complete {
				t.Fatalf("%s/%s: brute incomplete after %d runs", name, cfg.label, brute.Runs)
			}
			dpor, err := mc.Explore(factory(t, name), cfg.opts)
			if err != nil {
				t.Fatalf("%s/%s: dpor: %v", name, cfg.label, err)
			}
			if !dpor.Complete {
				t.Fatalf("%s/%s: dpor incomplete after %d runs", name, cfg.label, dpor.Runs)
			}
			if got, want := dpor.OutcomeSet(), brute.OutcomeSet(); !reflect.DeepEqual(got, want) {
				t.Errorf("%s/%s: dpor outcomes %v != brute outcomes %v", name, cfg.label, got, want)
			}
			if dpor.Runs > brute.Runs {
				t.Errorf("%s/%s: dpor ran %d schedules, brute only %d — no reduction",
					name, cfg.label, dpor.Runs, brute.Runs)
			}
			t.Logf("%s/%s: brute %d runs, dpor %d runs (%d sleep-blocked)",
				name, cfg.label, brute.Runs, dpor.Runs, dpor.SleepBlocked)
		}
	}
}

// TestLitmusSCEquivalence machine-checks Lemma 3.1 on the clean kernels
// that use only sequentially consistent atomics: with correct CCC
// annotations, the PTSB outcome set equals the SC baseline outcome set, no
// explored schedule fails validation, and no schedule races. The
// C11-ordering kernels get the same check in TestC11LitmusSCEquivalence.
func TestLitmusSCEquivalence(t *testing.T) {
	c11 := map[string]bool{}
	for _, name := range c11CleanKernels {
		c11[name] = true
	}
	var names []string
	for _, w := range workloads.LitmusSuite() {
		if !c11[w.Name()] {
			names = append(names, w.Name())
		}
	}
	checkLitmusSC(t, names)
}

// checkLitmusSC runs one subtest per kernel asserting SC equivalence,
// validation and race freedom.
func checkLitmusSC(t *testing.T, names []string) {
	t.Helper()
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			res, err := mc.CheckSC(factory(t, name), mc.SCOptions{Race: true})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Baseline.Complete || !res.PTSB.Complete {
				t.Fatalf("incomplete exploration: baseline %d runs (complete=%v), ptsb %d runs (complete=%v)",
					res.Baseline.Runs, res.Baseline.Complete, res.PTSB.Runs, res.PTSB.Complete)
			}
			if !res.SCEquivalent() {
				t.Fatalf("SC divergence: %+v", res.Divergences)
			}
			if !res.Baseline.AllValidated() || !res.PTSB.AllValidated() {
				t.Fatalf("validation failure: baseline %+v, ptsb %+v",
					res.Baseline.Outcomes, res.PTSB.Outcomes)
			}
			if len(res.Races) != 0 {
				t.Fatalf("clean kernel reported races: %v", res.Races)
			}
			t.Logf("%s: baseline %d runs / %d outcomes, ptsb %d runs / %d outcomes",
				name, res.Baseline.Runs, len(res.Baseline.Outcomes),
				res.PTSB.Runs, len(res.PTSB.Outcomes))
		})
	}
}

// TestBrokenFenceDivergence checks the negative fixture: the under-annotated
// MP kernel must diverge under the PTSB (flag observed set, data stale), the
// counterexample must shrink to a proper prefix, and the race detector must
// flag the plain flag accesses.
func TestBrokenFenceDivergence(t *testing.T) {
	res, err := mc.CheckSC(factory(t, "litmus-brokenfence"), mc.SCOptions{Race: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Baseline.Complete || !res.PTSB.Complete {
		t.Fatalf("incomplete exploration: baseline=%v ptsb=%v", res.Baseline.Complete, res.PTSB.Complete)
	}
	if res.SCEquivalent() {
		t.Fatalf("brokenfence not flagged: ptsb outcomes %v ⊆ baseline outcomes %v",
			res.PTSB.OutcomeSet(), res.Baseline.OutcomeSet())
	}
	var stale *mc.Divergence
	for i := range res.Divergences {
		if res.Divergences[i].Outcome == "flag=1 data=0" {
			stale = &res.Divergences[i]
		}
	}
	if stale == nil {
		t.Fatalf("expected divergent outcome %q, got %+v", "flag=1 data=0", res.Divergences)
	}
	info := res.PTSB.Outcomes[stale.Outcome]
	if info.Validated {
		t.Errorf("divergent outcome unexpectedly passed Validate")
	}
	if len(stale.MinPrefix) == 0 || len(stale.MinPrefix) >= len(stale.Schedule) {
		t.Errorf("counterexample did not shrink: prefix %v vs schedule %v",
			stale.MinPrefix, stale.Schedule)
	}
	if !strings.Contains(stale.MinOutcome, "data=0") {
		t.Errorf("minimized outcome %q lost the stale read", stale.MinOutcome)
	}
	if len(res.Races) == 0 {
		t.Fatal("race detector missed the plain-flag race")
	}
	var flagRace bool
	for _, r := range res.Races {
		if strings.Contains(r.Site1+r.Site2, "flag") {
			flagRace = true
		}
	}
	if !flagRace {
		t.Errorf("no race on the flag sites: %v", res.Races)
	}
	t.Logf("divergence %q: schedule len %d, minimal prefix %v (outcome %q), %d races",
		stale.Outcome, len(stale.Schedule), stale.MinPrefix, stale.MinOutcome, len(res.Races))
}

// TestSampleSB checks the bounded fallback: random walks plus the default
// schedule must terminate, never claim completeness, and only produce SC
// outcomes on a correctly annotated kernel.
func TestSampleSB(t *testing.T) {
	opts := ptsbOpts()
	opts.Schedules = 40
	res, err := mc.Sample(factory(t, "litmus-sb"), opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Complete {
		t.Error("random sampling must not report a complete exploration")
	}
	if res.Runs != 40 {
		t.Errorf("ran %d schedules, want 40", res.Runs)
	}
	if !res.AllValidated() {
		t.Errorf("sampled run failed validation: %+v", res.Outcomes)
	}
	if _, ok := res.Outcomes["r0=0 r1=0"]; ok {
		t.Error("sampling produced the SC-forbidden SB outcome")
	}
}

// TestReplayDeterminism re-runs a recorded schedule and requires the same
// outcome — the property every DPOR and shrink step depends on.
func TestReplayDeterminism(t *testing.T) {
	res, err := mc.Explore(factory(t, "litmus-mp"), ptsbOpts())
	if err != nil {
		t.Fatal(err)
	}
	for outcome, info := range res.Outcomes {
		div, err := mc.ReplaySchedule(factory(t, "litmus-mp"), ptsbOpts(), info.Schedule)
		if err != nil {
			t.Fatalf("replaying %v: %v", info.Schedule, err)
		}
		if div != outcome {
			t.Errorf("replay of %v produced %q, recorded %q", info.Schedule, div, outcome)
		}
	}
}
