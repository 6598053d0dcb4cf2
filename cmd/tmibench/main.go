// Command tmibench regenerates the paper's tables and figures.
//
// Usage:
//
//	tmibench                         # run everything
//	tmibench -experiment fig9        # one experiment
//	tmibench -runs 5 -csv out/       # more repetitions, CSV for plotting
//	tmibench -parallel 8             # sweep executor worker count
//	tmibench -bench-json auto        # persist BENCH_<date>.json trajectory
//	tmibench -list                   # list experiments
//
// Every simulation cell is deterministic, so tables and CSVs are
// byte-identical at any -parallel setting; only wall-clock changes.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"

	"repro/internal/harness"
	"repro/internal/toolio"
)

func main() {
	var (
		exp      = flag.String("experiment", "all", "experiment id or 'all' (see -list)")
		runs     = flag.Int("runs", 3, "seeded repetitions averaged per configuration")
		seed     = flag.Int64("seed", 1, "base seed")
		csv      = flag.String("csv", "", "directory for CSV output (optional)")
		parallel = flag.Int("parallel", runtime.GOMAXPROCS(0), "sweep executor workers (1 = sequential; output is identical either way)")
		bench    = flag.String("bench-json", "", "write a benchmark-trajectory report to this file ('auto' = first unused BENCH_<date>[.N].json)")
		list     = flag.Bool("list", false, "list experiments and exit")
		cpuprof  = flag.String("cpuprofile", "", "write a CPU profile to this file")
	)
	flag.Parse()

	if *cpuprof != "" {
		f, err := os.Create(*cpuprof)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tmibench:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "tmibench:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}

	if *list {
		for _, e := range harness.All() {
			fmt.Printf("%-22s %s\n", e.ID, e.Title)
		}
		return
	}

	// Ctrl-C cancels the sweep: queued cells fail fast with the context
	// error while in-flight simulations finish, so partial output stays
	// coherent. A second signal kills the process outright.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	o := &harness.Options{Runs: *runs, Seed: *seed, Out: os.Stdout, CSVDir: *csv, Parallel: *parallel, Ctx: ctx}
	defer o.Close()

	var traj *toolio.BenchReport
	if *bench != "" {
		traj = toolio.NewBenchReport(time.Now().Format("2006-01-02"), o.Workers(), *runs, *seed)
	}

	fail := func(id string, err error) {
		fmt.Fprintf(os.Stderr, "tmibench: %s: %v\n", id, err)
		o.Close()
		os.Exit(1)
	}
	run := func(e harness.Experiment) {
		if traj == nil {
			if err := e.Execute(o); err != nil {
				fail(e.ID, err)
			}
			return
		}
		row, err := o.RunTimed(e)
		if err != nil {
			fail(e.ID, err)
		}
		traj.Add(row)
		// Experiment-reported metrics (e.g. the repair-backends sweep's
		// win counts) ride along in the trajectory's Stats bag.
		for k, v := range o.DrainStats() {
			traj.Stats[k] = v
		}
	}

	var exps []harness.Experiment
	if *exp == "all" {
		exps = harness.All()
	} else {
		e, err := harness.ByID(*exp)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tmibench:", err)
			os.Exit(2)
		}
		exps = []harness.Experiment{e}
	}
	for _, e := range exps {
		run(e)
	}

	if traj != nil {
		path := *bench
		if path == "auto" {
			path = toolio.AutoBenchFileName(traj.Date, func(p string) bool {
				_, err := os.Stat(p)
				return err == nil
			})
		}
		f, err := os.Create(path)
		if err != nil {
			fail("bench-json", err)
		}
		if err := traj.Write(f); err != nil {
			fail("bench-json", err)
		}
		if err := f.Close(); err != nil {
			fail("bench-json", err)
		}
		fmt.Fprintf(os.Stderr, "tmibench: wrote %s (%d experiments, %.1fs wall, %.2fx sweep speedup on %d workers)\n",
			path, len(traj.Experiments), traj.WallSeconds, traj.Stats["speedup"], traj.Workers)
	}
}
