package mc_test

// Model-checking tests for the C11-ordering litmus kernels and the
// suggest→apply→verify repair loop. The clean kernels (release/acquire MP,
// fence-mediated SB and MP) get the same treatment as the pre-C11 suite:
// DPOR cross-validated against brute force, then checked SC-equivalent and
// race-free. The relaxed-IRIW fixture is the negative: its designed
// forbidden outcome is reproduced through a pinned witness schedule, and the
// statically-suggested repair set is verified dynamically.

import (
	"reflect"
	"testing"

	"repro/internal/analysis"
	"repro/internal/mc"
	"repro/tmi/workload"
	"repro/tmi/workloads"
)

func repairedCatalogFactory(t *testing.T, name string, repairs []workload.Repair) mc.Factory {
	t.Helper()
	return func() (workload.Workload, error) {
		w, err := workloads.ByName(name)
		if err != nil {
			return nil, err
		}
		return workload.Repaired(w, repairs), nil
	}
}

var c11CleanKernels = []string{"litmus-mp-relacq", "litmus-fencesb", "litmus-fencemp"}

// TestC11DPORMatchesBrute cross-validates the reduction on the kernels that
// exercise the per-ordering oracle semantics: release/acquire publication,
// fence clocks, and relaxed non-publication.
func TestC11DPORMatchesBrute(t *testing.T) {
	for _, name := range c11CleanKernels {
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
			t.Logf("%s/%s: brute %d runs, dpor %d runs (%d sleep-blocked)",
				name, cfg.label, brute.Runs, dpor.Runs, dpor.SleepBlocked)
		}
	}
}

// TestC11LitmusSCEquivalence machine-checks Lemma 3.1 on the C11 kernels:
// correctly placed acquire/release orderings and standalone fences keep the
// PTSB outcome set equal to the SC baseline's, with no races. Each kernel
// must also be in the clean suite, so tmimc's full check covers it.
func TestC11LitmusSCEquivalence(t *testing.T) {
	clean := map[string]bool{}
	for _, w := range workloads.LitmusSuite() {
		clean[w.Name()] = true
	}
	for _, name := range c11CleanKernels {
		if !clean[name] {
			t.Errorf("%s missing from LitmusSuite", name)
		}
	}
	checkLitmusSC(t, c11CleanKernels)
}

// iriwRelaxedForbidden is the outcome litmus-iriw-relaxed is designed to
// forbid (readers disagree on the store order) and iriwRelaxedWitness a
// PTSB schedule that produces it, recorded from a full divergence search so
// the test stays deterministic and cheap.
const iriwRelaxedForbidden = "r0=1 r1=0 r2=1 r3=0"

// Recorded minimal prefix from a full divergence search (tmimc -workload
// litmus-iriw-relaxed -expect-divergence); ReplaySchedule completes the
// prefix deterministically.
var iriwRelaxedWitness = []int{2, 1, 1, 1, 3}

// TestIRIWRelaxedForbiddenWitness replays the pinned schedule under the PTSB
// and requires the designed forbidden outcome: without acquire ordering on
// the leading loads, each reader can observe one store from its twinned page
// and miss the other, disagreeing on the store order. The outcome must also
// fail the workload's own Validate — it is non-SC by construction.
func TestIRIWRelaxedForbiddenWitness(t *testing.T) {
	outcome, err := mc.ReplaySchedule(factory(t, "litmus-iriw-relaxed"), ptsbOpts(), iriwRelaxedWitness)
	if err != nil {
		t.Fatal(err)
	}
	if outcome != iriwRelaxedForbidden {
		t.Fatalf("witness schedule produced %q, want %q", outcome, iriwRelaxedForbidden)
	}
}

// TestIRIWRelaxedBaselineExcludesForbidden: the SC baseline, explored to
// completion, never produces the forbidden outcome — so the witness above is
// a genuine divergence, not an SC behavior the fixture mislabels.
func TestIRIWRelaxedBaselineExcludesForbidden(t *testing.T) {
	res, err := mc.Explore(factory(t, "litmus-iriw-relaxed"), baselineOpts())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Complete {
		t.Fatalf("baseline incomplete after %d runs", res.Runs)
	}
	if _, ok := res.Outcomes[iriwRelaxedForbidden]; ok {
		t.Fatalf("SC baseline produced the forbidden outcome %q", iriwRelaxedForbidden)
	}
	t.Logf("baseline: %d runs, %d outcomes", res.Runs, len(res.Outcomes))
}

// TestBrokenFenceRepairLoop closes the loop end to end on the MP fixture:
// the statically suggested set repairs the kernel (SC-equivalent and
// race-free under full exploration), and dropping any single repair
// re-breaks it dynamically — the repair set is dynamically minimal.
func TestBrokenFenceRepairLoop(t *testing.T) {
	sugg, err := analysis.Suggest(
		func() (workload.Workload, error) { return workloads.ByName("litmus-brokenfence") },
		analysis.Options{})
	if err != nil {
		t.Fatal(err)
	}
	repairs := sugg.Repairs()
	if !sugg.Clean || len(repairs) != 2 {
		t.Fatalf("suggest: clean=%v repairs=%v", sugg.Clean, repairs)
	}

	full, err := mc.CheckSC(repairedCatalogFactory(t, "litmus-brokenfence", repairs), mc.SCOptions{Race: true})
	if err != nil {
		t.Fatal(err)
	}
	if !full.Baseline.Complete || !full.PTSB.Complete {
		t.Fatal("repaired exploration incomplete")
	}
	if !full.SCEquivalent() || len(full.Races) != 0 {
		t.Fatalf("repaired kernel not verified: sc=%v races=%v", full.SCEquivalent(), full.Races)
	}

	for i := range repairs {
		partial := append(append([]workload.Repair{}, repairs[:i]...), repairs[i+1:]...)
		res, err := mc.CheckSC(repairedCatalogFactory(t, "litmus-brokenfence", partial), mc.SCOptions{Race: true})
		if err != nil {
			t.Fatal(err)
		}
		if res.SCEquivalent() && len(res.Races) == 0 {
			t.Errorf("dropping %v leaves the kernel dynamically clean — repair set not minimal", repairs[i])
		}
	}
}

// TestIRIWRelaxedRepairRaces: the race half of the relaxed-IRIW repair set
// is dynamically minimal. The full set runs race-free under a bounded PTSB
// exploration; dropping either atomicity repair re-exposes its data race
// within the same budget. (The acquire upgrades are statically — not
// dynamically — minimal: this machine's relaxed atomics run directly on
// shared memory, so an all-atomic program is SC regardless of orderings;
// see DESIGN.md §13. The full SC-equivalence proof for the repaired kernel
// runs in the `make check` suggest lane, where the baseline is explored to
// completion.)
func TestIRIWRelaxedRepairRaces(t *testing.T) {
	sugg, err := analysis.Suggest(
		func() (workload.Workload, error) { return workloads.ByName("litmus-iriw-relaxed") },
		analysis.Options{})
	if err != nil {
		t.Fatal(err)
	}
	repairs := sugg.Repairs()
	if !sugg.Clean || len(repairs) != 4 {
		t.Fatalf("suggest: clean=%v repairs=%v", sugg.Clean, repairs)
	}

	explore := func(set []workload.Repair) *mc.ExploreResult {
		t.Helper()
		opts := ptsbOpts()
		opts.Race = true
		opts.MaxRuns = 400
		res, err := mc.Explore(repairedCatalogFactory(t, "litmus-iriw-relaxed", set), opts)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	if res := explore(repairs); len(res.Races) != 0 {
		t.Fatalf("full repair set still races: %v", res.Races)
	}
	for i, r := range repairs {
		if r.Kind != workload.RepairAtomic {
			continue
		}
		partial := append(append([]workload.Repair{}, repairs[:i]...), repairs[i+1:]...)
		if res := explore(partial); len(res.Races) == 0 {
			t.Errorf("dropping %v exposes no race within the budget", r)
		}
	}
}
