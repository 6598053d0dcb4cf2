// Command tmirun runs one workload under one system and prints the report:
// runtime, detection results, repair characterization, memory footprint and
// validation outcome.
//
// Usage:
//
//	tmirun -workload histogramfs -system tmi-protect
//	tmirun -workload leveldb -system pthreads -threads 4
//	tmirun -workload canneal-swap -system sheriff-protect
//	tmirun -workload histogram -list        # list workloads
//	tmirun -workload histogramfs -layout    # dump the memory layout
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"repro/tmi"
	"repro/tmi/workloads"
)

var systems = map[string]tmi.System{
	"pthreads":        tmi.Pthreads,
	"tmi-alloc":       tmi.TMIAlloc,
	"tmi-detect":      tmi.TMIDetect,
	"tmi-protect":     tmi.TMIProtect,
	"sheriff-detect":  tmi.SheriffDetect,
	"sheriff-protect": tmi.SheriffProtect,
	"laser":           tmi.LASER,
	"plastic":         tmi.Plastic,
}

func main() {
	var (
		name       = flag.String("workload", "histogramfs", "workload name (see -list)")
		system     = flag.String("system", "tmi-protect", "pthreads|tmi-alloc|tmi-detect|tmi-protect|sheriff-detect|sheriff-protect|laser")
		threads    = flag.Int("threads", 0, "override thread count")
		period     = flag.Int("period", 100, "perf sampling period")
		huge       = flag.Bool("hugepages", false, "back shared memory with 2 MiB pages")
		everywhere = flag.Bool("ptsb-everywhere", false, "arm the PTSB on the whole heap at first repair")
		seed       = flag.Int64("seed", 1, "determinism seed")
		list       = flag.Bool("list", false, "list workloads and exit")
		trace      = flag.Bool("trace", false, "print the repair lifecycle events")
		layout     = flag.Bool("layout", false, "dump the Figure 6-style memory layout")
		adaptive   = flag.Bool("adaptive", false, "adaptive sampling period (extension)")
		teardown   = flag.Int("teardown", 0, "un-repair pages idle for N detection intervals (extension; 0=off)")
		timeline   = flag.Bool("timeline", false, "print the per-interval HITM-rate timeline")
		backend    = flag.String("backend", "", "repair backend for tmi-protect: t2p (default), pad, map, or tmebox")
		sockets    = flag.Int("sockets", 0, "split cores across N sockets with home-node directory and remote-access penalties (0/1 = flat)")
	)
	flag.Parse()

	if *list {
		for _, n := range workloads.Names() {
			fmt.Println(n)
		}
		return
	}

	sys, ok := systems[*system]
	if !ok {
		var names []string
		for n := range systems {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "tmirun: unknown system %q (one of %s)\n", *system, strings.Join(names, ", "))
		os.Exit(2)
	}
	w, err := workloads.ByName(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tmirun:", err)
		os.Exit(2)
	}

	rep, err := tmi.Run(w, tmi.Config{
		System: sys, Threads: *threads, Period: *period, HugePages: *huge,
		PTSBEverywhere: *everywhere, Seed: *seed,
		AdaptivePeriod: *adaptive, TeardownIdleIntervals: *teardown,
		RepairBackend: *backend, Sockets: *sockets,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "tmirun:", err)
		os.Exit(1)
	}

	fmt.Printf("workload        %s\n", rep.Workload)
	fmt.Printf("system          %s\n", rep.System)
	fmt.Printf("runtime         %.3f ms (simulated)\n", rep.SimSeconds*1e3)
	fmt.Printf("HITM events     %d\n", rep.HITMEvents)
	fmt.Printf("PEBS records    %d (dropped %d)\n", rep.RecordsSeen, rep.Dropped)
	fmt.Printf("sharing lines   %d false, %d true (records: %d false, %d true)\n",
		rep.FalseLines, rep.TrueLines, rep.FalseRecords, rep.TrueRecords)
	fmt.Printf("memory          %.1f MB\n", rep.MemMB())
	fmt.Printf("energy          %.1f uJ (%.1f MB coherence traffic)\n",
		rep.Cache.EnergyMicroJ(), float64(rep.Cache.TrafficBytes())/(1<<20))
	if rep.Repaired {
		fmt.Printf("repaired        yes (backend %s, at %.3f ms, %d pages)\n",
			rep.RepairBackend, rep.RepairAtSec*1e3, rep.PagesProtected)
		if len(rep.T2PMicros) > 0 {
			fmt.Printf("T2P             %.0f us mean over %d threads\n", rep.MeanT2PMicros(), len(rep.T2PMicros))
		}
		fmt.Printf("commits         %d (%.1f/s), twin faults %d, bytes merged %d\n",
			rep.Commits, rep.CommitsPerSec, rep.TwinFaults, rep.BytesMerged)
		fmt.Printf("ccc flushes     %d\n", rep.CCCFlushes)
	} else {
		fmt.Printf("repaired        no\n")
	}
	if rep.Hung {
		fmt.Printf("HUNG            %s\n", rep.HangReason)
	}
	if rep.Validated {
		fmt.Printf("validated       ok\n")
	} else {
		fmt.Printf("validated       FAILED: %s\n", rep.ValidationErr)
	}
	if *trace {
		if len(rep.Events) > 0 {
			fmt.Println("lifecycle trace:")
			for _, e := range rep.Events {
				fmt.Println(" ", e)
			}
		}
		for k, v := range rep.Notes {
			fmt.Printf("  note %-24s %g\n", k, v)
		}
	}
	if *layout {
		fmt.Println("memory layout:")
		for _, line := range rep.Layout {
			fmt.Println(" ", line)
		}
	}
	if *timeline {
		fmt.Println("timeline (per detection interval):")
		fmt.Printf("  %10s %14s %9s %7s\n", "t(ms)", "HITM/s", "records", "pages")
		for _, p := range rep.Timeline {
			fmt.Printf("  %10.3f %14.0f %9d %7d\n", p.AtSec*1e3, p.HITMPerSec, p.RecordsInTick, p.PagesProtected)
		}
	}
	if !rep.Validated && !rep.Hung {
		os.Exit(1)
	}
}
