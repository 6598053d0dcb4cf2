// Command tmimc is the model checker for CCC soundness: the dynamic
// companion to tmilint. Where tmilint verifies the annotation *contract*
// statically, tmimc machine-checks the *consequence* the paper proves from
// it (Lemma 3.1): with page twinning armed everywhere, a correctly annotated
// kernel's outcome set equals the sequentially-consistent baseline's. It
// explores every relevant interleaving with sleep-set DPOR, runs a
// vector-clock race detector on the same event stream, and minimizes any
// divergence to the shortest schedule prefix that reproduces it.
//
// Usage:
//
//	tmimc                                  # check the clean litmus kernels exhaustively
//	tmimc -workload litmus-sb              # check one workload
//	tmimc -workload litmus-brokenfence -expect-divergence
//	                                       # negative gate: the fixture MUST diverge
//	tmimc -exhaustive=false -schedules 512 # bounded random sampling for big workloads
//	tmimc -workload litmus-mp -replay 1,0,0,1
//	                                       # re-execute a reported schedule under the PTSB
//	tmimc -apply repairs.json              # apply a `tmilint -suggest -json` repair
//	                                       # set to its workload, then run the gate
//	tmimc -json                            # machine-readable report (internal/toolio)
//
// Exit status: 0 when the gate passes (SC-equivalent and race-free, or — with
// -expect-divergence — every workload diverges), 1 otherwise, 2 on usage
// errors.
//
// -apply closes the repair loop: tmilint's static suggest engine proposes a
// minimal set of atomicity upgrades, ordering strengthenings and fence
// insertions; tmimc re-executes the repaired program under both the SC
// baseline and the PTSB and certifies the repair dynamically. Both
// explorations must complete within -max-runs for the gate to pass.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/mc"
	"repro/internal/toolio"
	"repro/tmi/workload"
	"repro/tmi/workloads"
)

func main() {
	var (
		names      = flag.String("workload", "", "comma-separated workloads to check (default: the clean litmus kernels)")
		exhaustive = flag.Bool("exhaustive", true, "explore all relevant interleavings with DPOR; false switches to random sampling")
		schedules  = flag.Int("schedules", 256, "random schedules per configuration when -exhaustive=false")
		race       = flag.Bool("race", true, "run the vector-clock race detector on every explored schedule")
		jsonOut    = flag.Bool("json", false, "emit a machine-readable toolio report on stdout")
		expectDiv  = flag.Bool("expect-divergence", false, "invert the gate: pass only if every workload diverges (for negative fixtures)")
		replay     = flag.String("replay", "", "comma-separated decision sequence to re-execute under the PTSB (single -workload)")
		applyFile  = flag.String("apply", "", "path to a `tmilint -suggest -json` repair set; applies it to its workload before checking")
		threads    = flag.Int("threads", 0, "override thread count")
		seed       = flag.Int64("seed", 1, "determinism seed")
		maxRuns    = flag.Int("max-runs", 0, "cap on executions per exploration (0 = default)")
		maxEvents  = flag.Int("max-events", 0, "cap on scheduler decisions per run (0 = default)")
	)
	flag.Parse()

	set := litmusNames()
	if *names != "" {
		set = splitList(*names)
	}

	var repairs []workload.Repair
	if *applyFile != "" {
		var err error
		set, repairs, err = loadRepairs(*applyFile, *names)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tmimc:", err)
			os.Exit(2)
		}
	}

	if *replay != "" {
		if len(set) != 1 {
			fmt.Fprintln(os.Stderr, "tmimc: -replay needs exactly one -workload")
			os.Exit(2)
		}
		os.Exit(runReplay(set[0], *replay, *threads, *seed))
	}

	opts := mc.SCOptions{
		Threads: *threads, Seed: *seed,
		MaxRuns: *maxRuns, MaxEvents: *maxEvents,
		Race: *race,
	}
	if !*exhaustive {
		opts.Schedules = *schedules
	}

	rep := toolio.NewReport("tmimc")
	mode := "exhaustive"
	if !*exhaustive {
		mode = fmt.Sprintf("sample:%d", *schedules)
	}
	if !*jsonOut {
		fmt.Printf("tmimc: checking %d workload(s) (mode=%s, race=%v, seed=%d)\n",
			len(set), mode, *race, *seed)
	}
	for _, name := range set {
		f := factoryFor(name)
		if repairs != nil {
			f = repairedFactory(name, repairs)
			if !*jsonOut {
				fmt.Printf("  applying %d repair(s) from %s:\n", len(repairs), *applyFile)
				for _, r := range repairs {
					fmt.Printf("    %s\n", r)
				}
			}
		}
		res, err := mc.CheckSC(f, opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tmimc: %s: %v\n", name, err)
			os.Exit(2)
		}
		gather(rep, name, res, *expectDiv, *exhaustive)
		if !*jsonOut {
			printResult(name, res, *expectDiv)
		}
	}
	if *jsonOut {
		if err := rep.Write(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "tmimc:", err)
			os.Exit(2)
		}
	}
	if !rep.OK {
		os.Exit(1)
	}
}

// gather folds one SC check into the report. In the normal gate a
// divergence, a race, a baseline validation failure or an incomplete
// exhaustive exploration is a finding; with expectDiv the gate inverts and
// only the *absence* of a divergence is.
func gather(rep *toolio.Report, name string, res *mc.SCResult, expectDiv, exhaustive bool) {
	rep.AddStat(name+".baseline_runs", float64(res.Baseline.Runs))
	rep.AddStat(name+".baseline_outcomes", float64(len(res.Baseline.Outcomes)))
	rep.AddStat(name+".ptsb_runs", float64(res.PTSB.Runs))
	rep.AddStat(name+".ptsb_outcomes", float64(len(res.PTSB.Outcomes)))
	rep.AddStat(name+".ptsb_sleep_blocked", float64(res.PTSB.SleepBlocked))
	rep.AddStat(name+".max_depth", float64(res.PTSB.MaxDepth))
	rep.AddStat(name+".divergences", float64(len(res.Divergences)))
	rep.AddStat(name+".races", float64(len(res.Races)))

	if expectDiv {
		if res.SCEquivalent() {
			rep.Add(toolio.Finding{
				Workload: name, Rule: "missed-divergence",
				Detail: fmt.Sprintf("expected an SC divergence but the PTSB outcome set %v is contained in the baseline's %v",
					res.PTSB.OutcomeSet(), res.Baseline.OutcomeSet()),
			})
		}
		return
	}
	for _, d := range res.Divergences {
		rep.Add(toolio.Finding{
			Workload: name, Rule: "sc-divergence",
			Detail: fmt.Sprintf("PTSB outcome %q is outside the SC set; minimal prefix %v completes to %q",
				d.Outcome, d.MinPrefix, d.MinOutcome),
		})
	}
	for _, r := range res.Races {
		rep.Add(toolio.Finding{
			Workload: name, Rule: "data-race", Site: r.Site1, PC: r.PC1,
			Detail: r.String(),
		})
	}
	if !res.Baseline.AllValidated() {
		rep.Add(toolio.Finding{
			Workload: name, Rule: "validation",
			Detail: "a baseline (SC) schedule failed the workload's Validate — the kernel itself is broken",
		})
	}
	if exhaustive && (!res.Baseline.Complete || !res.PTSB.Complete) {
		rep.Add(toolio.Finding{
			Workload: name, Rule: "incomplete",
			Detail: fmt.Sprintf("exploration hit the run budget (baseline %d, ptsb %d runs) — raise -max-runs or use -exhaustive=false",
				res.Baseline.Runs, res.PTSB.Runs),
		})
	}
}

func printResult(name string, res *mc.SCResult, expectDiv bool) {
	verdict := "SC-equivalent"
	if !res.SCEquivalent() {
		verdict = "DIVERGENT"
		if expectDiv {
			verdict = "DIVERGENT (expected)"
		}
	} else if expectDiv {
		verdict = "SC-equivalent (divergence expected!)"
	}
	fmt.Printf("  %-22s %-22s baseline %d runs/%d outcomes, ptsb %d runs/%d outcomes, %d race(s)\n",
		name, verdict,
		res.Baseline.Runs, len(res.Baseline.Outcomes),
		res.PTSB.Runs, len(res.PTSB.Outcomes), len(res.Races))
	for _, d := range res.Divergences {
		fmt.Printf("    divergent outcome %q (witness schedule length %d)\n", d.Outcome, len(d.Schedule))
		if d.MinPrefix != nil {
			fmt.Printf("      minimal prefix %v completes to %q (replay: -workload %s -replay %s)\n",
				d.MinPrefix, d.MinOutcome, name, joinInts(d.MinPrefix))
		}
	}
	for _, r := range res.Races {
		fmt.Printf("    %s\n", r)
	}
}

func runReplay(name, schedule string, threads int, seed int64) int {
	var forced []int
	for _, p := range splitList(schedule) {
		n, err := strconv.Atoi(p)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tmimc: bad -replay element %q\n", p)
			return 2
		}
		forced = append(forced, n)
	}
	opts := mc.PTSBOptions()
	opts.Threads, opts.Seed = threads, seed
	outcome, err := mc.ReplaySchedule(factoryFor(name), opts, forced)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tmimc:", err)
		return 2
	}
	fmt.Printf("%s under PTSB, schedule %v: %s\n", name, forced, outcome)
	return 0
}

// loadRepairs reads a `tmilint -suggest -json` document, parses its repairs
// into the workload package's representation, and resolves the workload set:
// the report's own workload by default, or an explicit -workload override
// (used by tests to aim one repair set at a fixture variant).
func loadRepairs(path, namesFlag string) (set []string, repairs []workload.Repair, err error) {
	fd, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer fd.Close()
	rep, err := toolio.ReadSuggestReport(fd)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %v", path, err)
	}
	if !rep.Clean {
		return nil, nil, fmt.Errorf("%s: repair set is not clean (residual: %s) — refusing to apply", path, strings.Join(rep.Residual, "; "))
	}
	for _, r := range rep.Repairs {
		pr, err := workload.ParseRepair(r.Site, r.Kind, r.Order)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %v", path, err)
		}
		repairs = append(repairs, pr)
	}
	if repairs == nil {
		repairs = []workload.Repair{} // non-nil: "apply the empty set", not "no -apply"
	}
	set = []string{rep.Workload}
	if namesFlag != "" {
		set = splitList(namesFlag)
	}
	return set, repairs, nil
}

func factoryFor(name string) mc.Factory {
	return func() (workload.Workload, error) {
		return workloads.ByName(name)
	}
}

// repairedFactory wraps factoryFor with a workload.Repaired layer so the
// model checker explores the repaired program.
func repairedFactory(name string, repairs []workload.Repair) mc.Factory {
	return func() (workload.Workload, error) {
		w, err := workloads.ByName(name)
		if err != nil {
			return nil, err
		}
		return workload.Repaired(w, repairs), nil
	}
}

func litmusNames() []string {
	var out []string
	for _, w := range workloads.LitmusSuite() {
		out = append(out, w.Name())
	}
	return out
}

func splitList(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func joinInts(xs []int) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.Itoa(x)
	}
	return strings.Join(parts, ",")
}
