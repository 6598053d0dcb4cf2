// Command tmilint is the static CCC-annotation verifier and false-sharing
// layout predictor: the compile-time companion to tmirun. It models
// workloads from one scheduled simulator run each (internal/analysis),
// verifies the code-centric consistency annotation contract against the
// Table 2 policy, and predicts falsely-shared cache lines from allocation
// layouts, scoring the predictions against a dynamic detector run.
//
// Usage:
//
//	tmilint                               # lint the whole catalog + default predictions
//	tmilint -workloads misannotated       # lint one workload
//	tmilint -predict histogramfs,lreg     # predict + compare for a list
//	tmilint -predict none                 # lint only
//	tmilint -sites -workloads leveldb     # dump the per-PC site model
//	tmilint -table2                       # print the Table 2 policy matrix
//	tmilint -json                         # machine-readable report (internal/toolio)
//	tmilint -suggest -workloads litmus-brokenfence -predict none
//	                                      # static fence/annotation repair: solve
//	                                      # for a minimal ordering-repair set
//	tmilint -suggest -workloads litmus-brokenfence -predict none -json
//	                                      # suggest schema for tmimc -apply
//
// Exit status: 0 when every linted workload is clean, 1 when any finding
// was reported, 2 on usage errors. In -suggest mode, suggestions are advice,
// not findings: the exit status is 0 as long as the repaired program
// analyzes clean, 1 when residual defects could not be repaired.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"repro/internal/analysis"
	"repro/internal/ccc"
	"repro/internal/toolio"
	"repro/tmi"
	"repro/tmi/workload"
	"repro/tmi/workloads"
)

// defaultPredict is the default static-vs-dynamic comparison set: three
// catalog workloads with known false sharing and cheap dynamic runs.
const defaultPredict = "histogramfs,lreg,stringmatch"

func main() {
	var (
		names   = flag.String("workloads", "", "comma-separated workloads to lint (default: the whole catalog)")
		predict = flag.String("predict", defaultPredict, "comma-separated workloads to run the layout predictor on, with a dynamic tmi-detect run for comparison; \"none\" disables")
		env     = flag.String("env", "tmi", "modeled environment: tmi|pthreads")
		threads = flag.Int("threads", 0, "override thread count")
		seed    = flag.Int64("seed", 1, "determinism seed")
		sites   = flag.Bool("sites", false, "dump the per-PC site classification for each linted workload")
		lines   = flag.Bool("lines", false, "dump every predicted shared line, not just the comparison summary")
		table2  = flag.Bool("table2", false, "print the Table 2 region-interaction policy matrix and exit")
		jsonOut = flag.Bool("json", false, "emit a machine-readable toolio report on stdout (suppresses human output)")
		suggest = flag.Bool("suggest", false, "solve for a minimal static repair set (ordering upgrades and fence insertions) per linted workload instead of linting")
	)
	flag.Parse()

	if *table2 {
		fmt.Print(ccc.RenderTable2())
		return
	}

	opt := analysis.Options{Threads: *threads, Seed: *seed}
	switch *env {
	case "tmi":
		opt.Env = analysis.EnvTMI
	case "pthreads":
		opt.Env = analysis.EnvPthreads
	default:
		fmt.Fprintf(os.Stderr, "tmilint: unknown -env %q (tmi|pthreads)\n", *env)
		os.Exit(2)
	}

	lintSet := workloads.Names()
	if *names != "" {
		lintSet = splitList(*names)
	}

	if *suggest {
		os.Exit(runSuggest(lintSet, opt, *jsonOut))
	}

	rep := toolio.NewReport("tmilint")
	if !*jsonOut {
		fmt.Printf("tmilint: verifying %d workload(s) (env=%s, seed=%d)\n", len(lintSet), *env, *seed)
	}
	for _, name := range lintSet {
		w, err := workloads.ByName(name)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tmilint:", err)
			os.Exit(2)
		}
		m, err := analysis.BuildModel(w, opt)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tmilint: %s: %v\n", name, err)
			rep.Add(toolio.Finding{Workload: name, Rule: "error", Detail: err.Error()})
			continue
		}
		findings := analysis.Verify(m)
		for _, f := range findings {
			rep.Add(toolio.Finding{Workload: f.Workload, Rule: f.Rule, Site: f.Site, PC: f.PC, Detail: f.Detail})
		}
		rep.AddStat(name+".sites", float64(len(m.Sites)))
		rep.AddStat(name+".lines", float64(len(m.Lines)))
		rep.AddStat(name+".ops", float64(m.Ops))
		if !*jsonOut {
			status := "ok"
			if len(findings) > 0 {
				status = fmt.Sprintf("%d finding(s)", len(findings))
			}
			fmt.Printf("  %-22s %-12s %5d sites, %5d lines, %8d ops\n",
				name, status, len(m.Sites), len(m.Lines), m.Ops)
			for _, f := range findings {
				fmt.Printf("    %s\n", f)
			}
			if *sites {
				dumpSites(m)
			}
		}
	}

	if *predict != "none" && *predict != "" {
		if !*jsonOut {
			fmt.Printf("\nstatic false-sharing prediction vs dynamic detection (tmi-detect):\n")
		}
		for _, name := range splitList(*predict) {
			acc, err := comparePrediction(name, opt, *lines && !*jsonOut)
			if err != nil {
				fmt.Fprintf(os.Stderr, "tmilint: %s: %v\n", name, err)
				rep.Add(toolio.Finding{Workload: name, Rule: "error", Detail: err.Error()})
				continue
			}
			rep.AddStat(name+".predict_static_false", float64(acc.StaticFalse))
			rep.AddStat(name+".predict_dynamic_false", float64(acc.DynamicFalse))
			rep.AddStat(name+".predict_common", float64(acc.Common))
			rep.AddStat(name+".predict_precision", acc.Precision)
			rep.AddStat(name+".predict_recall", acc.Recall)
			if !*jsonOut {
				fmt.Printf("  %s\n", acc)
			}
		}
	}
	if *jsonOut {
		if err := rep.Write(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "tmilint:", err)
			os.Exit(2)
		}
	}
	if !rep.OK {
		os.Exit(1)
	}
}

// runSuggest is the -suggest mode: for each workload, iterate the static
// analysis (race detection over the abstract trace, then Shasha–Snir delay
// sets over the atomic skeleton) against trial repairs until the model is
// clean, then minimize the surviving repair set. With -json exactly one
// workload must be named, and the minimized set is emitted as a
// toolio.SuggestReport for `tmimc -apply` to verify dynamically.
func runSuggest(lintSet []string, opt analysis.Options, jsonOut bool) int {
	if jsonOut && len(lintSet) != 1 {
		fmt.Fprintf(os.Stderr, "tmilint: -suggest -json needs exactly one -workloads entry, got %d\n", len(lintSet))
		return 2
	}
	exit := 0
	for _, name := range lintSet {
		name := name
		f := func() (workload.Workload, error) { return workloads.ByName(name) }
		res, err := analysis.Suggest(f, opt)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tmilint: %s: %v\n", name, err)
			return 2
		}
		if !res.Clean {
			exit = 1
		}
		if jsonOut {
			rep := toolio.NewSuggestReport("tmilint", name)
			rep.Clean = res.Clean
			rep.Residual = res.Residual
			for _, s := range res.Suggestions {
				rep.Repairs = append(rep.Repairs, toolio.SuggestRepair{
					Site:   s.Repair.Site,
					Kind:   s.Repair.Kind.String(),
					Order:  s.Repair.Order.String(),
					Reason: s.Reason,
				})
			}
			if err := rep.Write(os.Stdout); err != nil {
				fmt.Fprintln(os.Stderr, "tmilint:", err)
				return 2
			}
			continue
		}
		if len(res.Suggestions) == 0 && res.Clean {
			fmt.Printf("%s: clean, no repairs needed (%d analysis round(s))\n", name, res.Rounds)
			continue
		}
		fmt.Printf("%s: %d repair(s) after %d analysis round(s)\n", name, len(res.Suggestions), res.Rounds)
		for _, s := range res.Suggestions {
			fmt.Printf("  %-40s %s\n", s.Repair, s.Reason)
		}
		if !res.Clean {
			fmt.Printf("  UNRESOLVED: analysis still reports defects after the round budget:\n")
			for _, r := range res.Residual {
				fmt.Printf("    %s\n", r)
			}
		}
	}
	return exit
}

func comparePrediction(name string, opt analysis.Options, dumpLines bool) (analysis.Accuracy, error) {
	w, err := workloads.ByName(name)
	if err != nil {
		return analysis.Accuracy{}, err
	}
	m, err := analysis.BuildModel(w, opt)
	if err != nil {
		return analysis.Accuracy{}, err
	}
	// A fresh instance for the dynamic run: workloads carry state.
	dyn, err := workloads.ByName(name)
	if err != nil {
		return analysis.Accuracy{}, err
	}
	rep, err := tmi.Run(dyn, tmi.Config{System: tmi.TMIDetect, Seed: opt.Seed, Threads: opt.Threads})
	if err != nil {
		return analysis.Accuracy{}, err
	}
	acc := analysis.CompareFalseSharing(m, rep.Lines, analysis.DefaultMinAccesses)
	if dumpLines {
		for _, p := range m.PredictLines() {
			fmt.Printf("    line 0x%x: %s sharing, %d threads (%d writers), %d accesses\n",
				p.Line, p.Class, p.Threads, p.Writers, p.Accesses)
		}
	}
	return acc, nil
}

func dumpSites(m *analysis.Model) {
	pcs := make([]uint64, 0, len(m.Sites))
	for pc := range m.Sites {
		pcs = append(pcs, pc)
	}
	sort.Slice(pcs, func(i, j int) bool { return pcs[i] < pcs[j] })
	for _, pc := range pcs {
		sm := m.Sites[pc]
		tag := ""
		if sm.Info.Runtime {
			tag = " [runtime]"
		}
		orders := orderString(sm)
		fmt.Printf("    0x%06x %-28s %-6s w=%d%s plain %d/%d atomic %d%s stream %d\n",
			pc, sm.Info.Name, sm.Info.Kind, sm.Info.Width, tag,
			sm.PlainLoads, sm.PlainStores, sm.AtomicOps, orders, sm.StreamOps)
	}
}

func orderString(sm *analysis.SiteModel) string {
	if len(sm.Orders) == 0 {
		return ""
	}
	var parts []string
	for _, o := range []workload.MemOrder{workload.Relaxed, workload.Acquire, workload.Release, workload.AcqRel, workload.SeqCst} {
		if n := sm.Orders[o]; n > 0 {
			parts = append(parts, fmt.Sprintf("%s:%d", o, n))
		}
	}
	return " (" + strings.Join(parts, ",") + ")"
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
