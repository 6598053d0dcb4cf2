// Command tmivet is the source-level false-sharing analyzer: it points
// TMI's detect→repair loop at real Go packages. It type-checks source with
// go/types, maps struct layouts onto 64-byte cache lines, infers
// per-goroutine writers from `go` statements, worker-spawn loops, and
// sync.Mutex critical sections, and flags lines where two or more inferred
// writers touch disjoint bytes — then (by default) lowers each finding to
// a synthetic workload and confirms it through the simulator's dynamic
// detector. Repairs are `_ [N]byte` padding insertions, or advice where no
// edit can be planned (a scalar element, an unnamed struct, an interleaved
// field order); -fix previews the paddings as a unified diff.
//
// Usage:
//
//	tmivet ./internal/...              # scan recursively
//	tmivet testdata/srcvet/packed     # scan one package directory
//	tmivet -json ./...                # machine-readable report (internal/toolio)
//	tmivet -fix testdata/srcvet/packed # print the padding diff
//	tmivet -confirm=false ./...       # static-only (skip the simulator bridge)
//	tmivet -waive tmivet.waivers ./... # suppress accepted findings by ID
//
// Exit status: 0 when no unwaived finding was reported, 1 when any was,
// 2 on usage or load errors.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/srcvet"
)

func main() {
	var (
		jsonOut = flag.Bool("json", false, "emit a machine-readable toolio report on stdout (suppresses human output)")
		fix     = flag.Bool("fix", false, "print a unified diff of the computed padding repairs")
		confirm = flag.Bool("confirm", true, "run each finding through the simulator confirmation bridge")
		seed    = flag.Int64("seed", 1, "determinism seed for confirmation runs")
		spawn   = flag.Int("spawn", 0, "assumed goroutine count for spawn loops with non-constant trip counts (default 4)")
		waive   = flag.String("waive", "", "waiver file: one finding ID per line, '#' comments")
	)
	flag.Parse()
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: tmivet [flags] dir|dir/... [...]")
		flag.PrintDefaults()
		os.Exit(2)
	}

	opt := srcvet.Options{Confirm: *confirm, Seed: *seed, SpawnCount: *spawn}
	if *waive != "" {
		w, err := srcvet.ParseWaiverFile(*waive)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tmivet:", err)
			os.Exit(2)
		}
		opt.Waivers = w
	}

	dirs, err := srcvet.ScanDirs(flag.Args())
	if err != nil {
		fmt.Fprintln(os.Stderr, "tmivet:", err)
		os.Exit(2)
	}
	if len(dirs) == 0 {
		fmt.Fprintln(os.Stderr, "tmivet: no package directories matched")
		os.Exit(2)
	}

	start := time.Now()
	loader, err := srcvet.NewLoader(dirs[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "tmivet:", err)
		os.Exit(2)
	}
	var pkgs []*srcvet.Package
	var loadErrs []error
	for _, dir := range dirs {
		pkg, err := loader.LoadDir(dir, filepath.ToSlash(filepath.Clean(dir)))
		if err != nil {
			loadErrs = append(loadErrs, err)
			continue
		}
		pkgs = append(pkgs, pkg)
	}

	res := srcvet.Analyze(pkgs, opt)
	res.Errors = append(res.Errors, loadErrs...)

	if *jsonOut {
		rep := res.Report()
		rep.AddStat("wall_ms", float64(time.Since(start).Milliseconds()))
		if err := rep.Write(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "tmivet:", err)
			os.Exit(2)
		}
	} else {
		srcvet.Render(os.Stdout, res)
		fmt.Printf("%s in %.1fs\n", srcvet.Summary(res), time.Since(start).Seconds())
		for _, err := range res.Errors {
			fmt.Fprintln(os.Stderr, "tmivet:", err)
		}
	}

	if *fix {
		fixes, err := srcvet.ApplyFixes(pkgs, res)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tmivet:", err)
			os.Exit(2)
		}
		for _, fx := range fixes {
			fmt.Print(srcvet.UnifiedDiff(fx.Path, fx.Orig, fx.New))
		}
	}

	switch {
	case len(res.Errors) > 0:
		os.Exit(2)
	case !res.OK():
		os.Exit(1)
	}
}
