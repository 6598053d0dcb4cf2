package tmi_test

import (
	"strings"
	"testing"

	"repro/tmi"
	"repro/tmi/workloads"
)

func run(t *testing.T, name string, cfg tmi.Config) *tmi.Report {
	t.Helper()
	w, err := workloads.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := tmi.Run(w, cfg)
	if err != nil {
		t.Fatalf("%s under %v: %v", name, cfg.System, err)
	}
	return rep
}

func TestBaselineRunsAndValidates(t *testing.T) {
	rep := run(t, "histogramfs", tmi.Config{System: tmi.Pthreads})
	if !rep.Validated {
		t.Fatalf("baseline invalid: %s", rep.ValidationErr)
	}
	if rep.SimSeconds <= 0 {
		t.Error("no simulated time elapsed")
	}
	if rep.HITMEvents == 0 {
		t.Error("a false-sharing workload must generate HITM traffic")
	}
	if rep.RecordsSeen != 0 {
		t.Error("the baseline must not sample")
	}
	if rep.Repaired {
		t.Error("the baseline must not repair")
	}
}

func TestTMIProtectRepairsFalseSharing(t *testing.T) {
	base := run(t, "histogramfs", tmi.Config{System: tmi.Pthreads})
	prot := run(t, "histogramfs", tmi.Config{System: tmi.TMIProtect})
	if !prot.Validated {
		t.Fatalf("invalid: %s", prot.ValidationErr)
	}
	if !prot.Repaired || prot.PagesProtected == 0 {
		t.Fatal("TMI should have repaired histogramfs")
	}
	if sp := tmi.Speedup(base, prot); sp < 3 {
		t.Errorf("speedup %.2fx, want >= 3x", sp)
	}
	if len(prot.T2PMicros) == 0 || prot.MeanT2PMicros() < 70 || prot.MeanT2PMicros() > 190 {
		t.Errorf("T2P %f us outside the paper's envelope", prot.MeanT2PMicros())
	}
	if prot.RepairAtSec <= 0 || prot.RepairAtSec >= prot.SimSeconds {
		t.Errorf("repair time %f outside the run", prot.RepairAtSec)
	}
}

func TestTMIApproachesManualFix(t *testing.T) {
	base := run(t, "histogramfs", tmi.Config{System: tmi.Pthreads})
	man := run(t, "histogramfs-manual", tmi.Config{System: tmi.Pthreads})
	prot := run(t, "histogramfs", tmi.Config{System: tmi.TMIProtect})
	if base.HITMEvents < 4*man.HITMEvents {
		t.Errorf("the packed layout should contend: %d vs %d HITM padded", base.HITMEvents, man.HITMEvents)
	}
	manX := tmi.Speedup(base, man)
	tmiX := tmi.Speedup(base, prot)
	if ratio := tmiX / manX; ratio < 0.5 || ratio > 1.1 {
		t.Errorf("TMI achieves %.0f%% of manual; expect a large fraction (paper: 88%%)", ratio*100)
	}
}

func TestDetectOnlyClassifiesWithoutRepair(t *testing.T) {
	rep := run(t, "histogramfs", tmi.Config{System: tmi.TMIDetect})
	if rep.Repaired {
		t.Error("detect mode must not repair")
	}
	if rep.FalseLines == 0 {
		t.Error("detector should classify the counter lines as false sharing")
	}
	if rep.RecordsSeen == 0 {
		t.Error("detector consumed no records")
	}
}

func TestAllocModeDoesNotSample(t *testing.T) {
	rep := run(t, "histogramfs", tmi.Config{System: tmi.TMIAlloc})
	if rep.RecordsSeen != 0 || rep.FalseLines != 0 {
		t.Error("alloc mode has no detector")
	}
	if !rep.Validated {
		t.Error(rep.ValidationErr)
	}
}

func TestNoFalseSharingNoIntervention(t *testing.T) {
	rep := run(t, "swaptions", tmi.Config{System: tmi.TMIProtect, HugePages: true})
	if rep.Repaired || rep.PagesProtected != 0 {
		t.Error("a clean workload must never trigger repair")
	}
	if !rep.Validated {
		t.Error(rep.ValidationErr)
	}
}

func TestLuNcbRepairedByAllocatorAlone(t *testing.T) {
	base := run(t, "lu-ncb", tmi.Config{System: tmi.Pthreads})
	prot := run(t, "lu-ncb", tmi.Config{System: tmi.TMIProtect})
	if prot.Repaired {
		t.Error("lu-ncb should be fixed by the allocator, not page protection")
	}
	if sp := tmi.Speedup(base, prot); sp < 1.5 {
		t.Errorf("allocator change should fix lu-ncb: speedup %.2f", sp)
	}
}

func TestManualVariantNeedsNoRepair(t *testing.T) {
	rep := run(t, "histogramfs-manual", tmi.Config{System: tmi.TMIProtect})
	if rep.Repaired {
		t.Error("the manually fixed variant has nothing to repair")
	}
}

func TestSheriffBreaksWordTearing(t *testing.T) {
	rep := run(t, "wordtear-asm", tmi.Config{System: tmi.SheriffProtect})
	if rep.Validated {
		t.Fatal("Sheriff's PTSB must tear the aligned 2-byte stores")
	}
	// The workload's Validate error reaches the report verbatim.
	want := "wordtear: x = 0xABCD, not a value any thread stored (AMBSA violated)"
	if rep.ValidationErr != want {
		t.Errorf("expected the Figure 3 merge artifact %q, got: %q", want, rep.ValidationErr)
	}
	ok := run(t, "wordtear-asm", tmi.Config{System: tmi.TMIProtect})
	if !ok.Validated {
		t.Errorf("TMI with CCC must preserve AMBSA: %s", ok.ValidationErr)
	}
}

func TestFig11CannealSwaps(t *testing.T) {
	bad := run(t, "canneal-swap", tmi.Config{System: tmi.SheriffProtect})
	if bad.Validated {
		t.Error("concurrent atomic swaps must corrupt under a PTSB without CCC")
	}
	for _, sys := range []tmi.System{tmi.Pthreads, tmi.TMIProtect} {
		if rep := run(t, "canneal-swap", tmi.Config{System: sys}); !rep.Validated {
			t.Errorf("%v: %s", sys, rep.ValidationErr)
		}
	}
}

func TestFig12CholeskyFlag(t *testing.T) {
	bad := run(t, "cholesky-flag", tmi.Config{System: tmi.SheriffProtect})
	if !bad.Hung {
		t.Error("the volatile-flag spin must hang under a PTSB without CCC")
	}
	for _, sys := range []tmi.System{tmi.Pthreads, tmi.TMIProtect} {
		rep := run(t, "cholesky-flag", tmi.Config{System: sys})
		if rep.Hung || !rep.Validated {
			t.Errorf("%v: hung=%v err=%s", sys, rep.Hung, rep.ValidationErr)
		}
	}
}

func TestSheriffLosesRelaxedAtomicUpdates(t *testing.T) {
	rep := run(t, "shptr-relaxed", tmi.Config{System: tmi.SheriffProtect})
	if rep.Validated {
		t.Error("refcount increments must be lost under Sheriff")
	}
	if !strings.Contains(rep.ValidationErr, "refcount") {
		t.Errorf("unexpected failure: %s", rep.ValidationErr)
	}
}

func TestSheriffIncompatibleWithLargeFootprints(t *testing.T) {
	w, err := workloads.ByName("ocean-ncp")
	if err != nil {
		t.Fatal(err)
	}
	_, err = tmi.Run(w, tmi.Config{System: tmi.SheriffProtect, Seed: 1})
	var inc *tmi.ErrIncompatible
	if err == nil {
		t.Fatal("ocean-ncp (27GB) must be incompatible with Sheriff")
	}
	if e, ok := err.(*tmi.ErrIncompatible); ok {
		inc = e
	} else {
		t.Fatalf("want ErrIncompatible, got %v", err)
	}
	if inc.Workload != "ocean-ncp" {
		t.Errorf("incompatibility names %q", inc.Workload)
	}
}

func TestCCCRelaxedBeatsLockFlushes(t *testing.T) {
	base := run(t, "shptr-relaxed", tmi.Config{System: tmi.Pthreads})
	relaxed := run(t, "shptr-relaxed", tmi.Config{System: tmi.TMIProtect})
	baseL := run(t, "shptr-lock", tmi.Config{System: tmi.Pthreads})
	locked := run(t, "shptr-lock", tmi.Config{System: tmi.TMIProtect})
	rx := tmi.Speedup(base, relaxed)
	lx := tmi.Speedup(baseL, locked)
	if rx < 1.5*lx {
		t.Errorf("relaxed atomics (%.2fx) should far outperform lock-flushed (%.2fx)", rx, lx)
	}
	if relaxed.CCCFlushes > locked.CCCFlushes {
		t.Error("relaxed atomics should not flush the PTSB")
	}
}

func TestPTSBEverywhereAblation(t *testing.T) {
	targeted := run(t, "histogramfs", tmi.Config{System: tmi.TMIProtect})
	everywhere := run(t, "histogramfs", tmi.Config{System: tmi.TMIProtect, PTSBEverywhere: true})
	if everywhere.PagesProtected <= targeted.PagesProtected {
		t.Error("the ablation should protect far more pages")
	}
	if everywhere.SimSeconds < targeted.SimSeconds {
		t.Error("indiscriminate protection should not be faster than targeted")
	}
}

func TestLASERRepairsWithoutConversion(t *testing.T) {
	rep := run(t, "histogramfs", tmi.Config{System: tmi.LASER})
	if !rep.Repaired {
		t.Fatal("LASER should engage its store buffer")
	}
	if len(rep.T2PMicros) != 0 {
		t.Error("LASER never converts threads to processes")
	}
	base := run(t, "histogramfs", tmi.Config{System: tmi.Pthreads})
	prot := run(t, "histogramfs", tmi.Config{System: tmi.TMIProtect})
	lx := tmi.Speedup(base, rep)
	tx := tmi.Speedup(base, prot)
	if lx >= tx {
		t.Errorf("LASER (%.2fx) should capture less benefit than TMI (%.2fx)", lx, tx)
	}
}

func TestLASERKeepsRepairOffForSyncHeavy(t *testing.T) {
	rep := run(t, "spinlockpool", tmi.Config{System: tmi.LASER})
	if rep.Repaired {
		t.Error("TSO preservation keeps LASER's repair off for sync-heavy code")
	}
}

func TestPeriodSweepShape(t *testing.T) {
	var prevRecords uint64
	var runtimeAt1, runtimeAt1000 float64
	for i, period := range []int{1, 100, 1000} {
		rep := run(t, "leveldb-clean", tmi.Config{System: tmi.TMIDetect, HugePages: true, Period: period})
		if i == 0 {
			runtimeAt1 = rep.SimSeconds
		} else {
			if rep.RecordsSeen >= prevRecords {
				t.Errorf("records must fall as the period grows: %d -> %d", prevRecords, rep.RecordsSeen)
			}
		}
		runtimeAt1000 = rep.SimSeconds
		prevRecords = rep.RecordsSeen
	}
	if runtimeAt1 <= runtimeAt1000 {
		t.Error("period 1 should be measurably slower than period 1000 (Figure 4)")
	}
}

func TestLeveldbTrueSharingDominates(t *testing.T) {
	rep := run(t, "leveldb-clean", tmi.Config{System: tmi.TMIDetect, HugePages: true})
	if rep.TrueRecords == 0 {
		t.Fatal("unmodified leveldb should show true sharing (queue, sequence number)")
	}
	if rep.TrueRecords < 3*rep.FalseRecords {
		t.Errorf("true sharing should dominate: true=%d false=%d", rep.TrueRecords, rep.FalseRecords)
	}
	if rep.Repaired {
		t.Error("nothing worth repairing in unmodified leveldb")
	}
}

func TestMemoryAccounting(t *testing.T) {
	base := run(t, "swaptions", tmi.Config{System: tmi.Pthreads})
	full := run(t, "swaptions", tmi.Config{System: tmi.TMIDetect, HugePages: true})
	if full.MemBytes <= base.MemBytes {
		t.Error("TMI-full must cost memory (perf buffers, detector state)")
	}
	// Small-footprint workloads gain a roughly fixed overhead (paper: ~90MB).
	overheadMB := full.MemMB() - base.MemMB()
	if overheadMB < 30 || overheadMB > 200 {
		t.Errorf("fixed overhead %.0f MB out of expected band", overheadMB)
	}
}

func TestDeterminism(t *testing.T) {
	a := run(t, "leveldb", tmi.Config{System: tmi.TMIProtect, Seed: 42})
	b := run(t, "leveldb", tmi.Config{System: tmi.TMIProtect, Seed: 42})
	if a.SimSeconds != b.SimSeconds || a.HITMEvents != b.HITMEvents || a.Commits != b.Commits {
		t.Errorf("same seed must reproduce: (%v,%d,%d) vs (%v,%d,%d)",
			a.SimSeconds, a.HITMEvents, a.Commits, b.SimSeconds, b.HITMEvents, b.Commits)
	}
	c := run(t, "leveldb", tmi.Config{System: tmi.TMIProtect, Seed: 43})
	if c.SimSeconds == a.SimSeconds && c.HITMEvents == a.HITMEvents {
		t.Log("different seeds produced identical results (possible but suspicious)")
	}
}

func TestThreadOverride(t *testing.T) {
	rep := run(t, "histogramfs", tmi.Config{System: tmi.Pthreads, Threads: 2})
	if !rep.Validated {
		t.Error(rep.ValidationErr)
	}
}

func TestAllSuiteWorkloadsValidateUnderBaselineAndTMI(t *testing.T) {
	for _, w := range workloads.Suite() {
		name := w.Name()
		t.Run(name, func(t *testing.T) {
			base := run(t, name, tmi.Config{System: tmi.Pthreads})
			if !base.Validated {
				t.Fatalf("baseline: %s", base.ValidationErr)
			}
			det := run(t, name, tmi.Config{System: tmi.TMIDetect, HugePages: true})
			if !det.Validated {
				t.Fatalf("tmi-detect: %s", det.ValidationErr)
			}
			// Detection is compatible-by-default: bounded perturbation.
			if ratio := det.SimSeconds / base.SimSeconds; ratio > 1.30 {
				t.Errorf("detection overhead %.0f%% too high", (ratio-1)*100)
			}
		})
	}
}

func TestFSSuiteRepairsValidateUnderTMI(t *testing.T) {
	for _, w := range workloads.FSSuite() {
		name := w.Name()
		t.Run(name, func(t *testing.T) {
			rep := run(t, name, tmi.Config{System: tmi.TMIProtect})
			if !rep.Validated {
				t.Fatalf("tmi-protect corrupted %s: %s", name, rep.ValidationErr)
			}
		})
	}
}
