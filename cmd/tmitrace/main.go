// Command tmitrace runs a workload with structured event tracing enabled
// and prints a per-kind/per-thread summary plus (optionally) the raw event
// listing: every synchronization boundary, consistency-region transition,
// PTSB twin fault and commit, detector tick and repair action.
//
// Usage:
//
//	tmitrace -workload histogramfs -system tmi-protect
//	tmitrace -workload shptr-lock -system tmi-protect -dump 40
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/sim/cache"
	"repro/tmi"
	"repro/tmi/workloads"
)

func main() {
	var (
		name   = flag.String("workload", "histogramfs", "workload name (see tmirun -list)")
		system = flag.String("system", "tmi-protect", "system to run under")
		dump   = flag.Int("dump", 0, "also print the first N raw events")
		seed   = flag.Int64("seed", 1, "determinism seed")
	)
	flag.Parse()

	sys, err := tmi.ParseSystem(*system)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tmitrace:", err)
		os.Exit(2)
	}
	w, err := workloads.ByName(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tmitrace:", err)
		os.Exit(2)
	}
	rep, err := tmi.Run(w, tmi.Config{System: sys, Seed: *seed, Trace: true})
	if err != nil {
		fmt.Fprintln(os.Stderr, "tmitrace:", err)
		os.Exit(1)
	}
	fmt.Printf("%s under %s: %.3f ms simulated\n\n", rep.Workload, rep.System, rep.SimSeconds*1e3)
	if rep.Tracer == nil {
		fmt.Println("no trace recorded")
		return
	}
	fmt.Print(rep.Tracer.Summary(cache.ClockHz))
	if *dump > 0 {
		events := rep.Tracer.Events()
		if *dump < len(events) {
			events = events[:*dump]
		}
		fmt.Println("\nfirst events:")
		for _, e := range events {
			fmt.Println(" ", e.Format(cache.ClockHz))
		}
	}
}
