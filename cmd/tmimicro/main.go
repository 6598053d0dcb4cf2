// Command tmimicro folds `go test -bench` output into the benchmark
// trajectory. It reads benchmark result lines from stdin, extracts ns/op,
// allocs/op when -benchmem is on and any metric a benchmark reports with
// b.ReportMetric, and merges them as micro.* stats into the day's
// BENCH_<date>[.N].json document so macro sweeps and microbenchmarks land
// in one comparable point per PR.
//
// Usage:
//
//	go test -run '^$' -bench . -benchmem ./internal/... | tmimicro
//	... | tmimicro -append BENCH_2026-08-05.2.json
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/toolio"
)

// benchLine matches one `go test -bench` result line, e.g.
//
//	BenchmarkRelayWindow-8  10000  101049 ns/op  1.000 writes/op  239724 B/op  13 allocs/op
//
// Capture groups: name (minus the Benchmark prefix and -procs suffix) and
// the value-unit pairs after the iteration count.
var benchLine = regexp.MustCompile(`^Benchmark(\S+?)(?:-\d+)?\s+\d+\s+(.*)$`)

// benchValue matches one value-unit pair of a result line.
var benchValue = regexp.MustCompile(`([0-9.]+) (\S+)`)

// parseBenchLine returns the micro.* stats of one result line: one per
// unit, named micro.<name>_<unit> with '/' as '_' (ns/op becomes _ns_op,
// writes/op _writes_op). B/op is skipped. A line that is not a result
// yields none.
func parseBenchLine(line string) map[string]float64 {
	m := benchLine.FindStringSubmatch(line)
	if m == nil {
		return nil
	}
	stats := map[string]float64{}
	for _, pair := range benchValue.FindAllStringSubmatch(m[2], -1) {
		if pair[2] == "B/op" {
			continue
		}
		v, err := strconv.ParseFloat(pair[1], 64)
		if err != nil {
			continue
		}
		stats["micro."+m[1]+"_"+strings.ReplaceAll(pair[2], "/", "_")] = v
	}
	return stats
}

func main() {
	var (
		appendTo = flag.String("append", "auto", "trajectory file to merge into ('auto' = newest BENCH_<date>[.N].json, created if absent)")
		date     = flag.String("date", time.Now().Format("2006-01-02"), "trajectory date (YYYY-MM-DD)")
	)
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "tmimicro:", err)
		os.Exit(1)
	}

	stats := map[string]float64{}
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		fmt.Println(line) // pass the raw go test output through
		for k, v := range parseBenchLine(line) {
			stats[k] = v
		}
	}
	if err := sc.Err(); err != nil {
		fail(err)
	}
	if len(stats) == 0 {
		fail(fmt.Errorf("no benchmark result lines on stdin"))
	}

	path := *appendTo
	if path == "auto" {
		path = toolio.LatestBenchFileName(*date, func(p string) bool {
			_, err := os.Stat(p)
			return err == nil
		})
	}

	rep, err := loadOrCreate(path, *date)
	if err != nil {
		fail(err)
	}
	if rep.Stats == nil {
		rep.Stats = map[string]float64{}
	}
	for k, v := range stats {
		rep.Stats[k] = v
	}

	f, err := os.Create(path)
	if err != nil {
		fail(err)
	}
	if err := rep.Write(f); err != nil {
		fail(err)
	}
	if err := f.Close(); err != nil {
		fail(err)
	}
	fmt.Fprintf(os.Stderr, "tmimicro: merged %d micro stats into %s\n", len(stats), path)
}

// loadOrCreate reads an existing trajectory document, or starts a fresh
// micro-only one when the day has no point yet.
func loadOrCreate(path, date string) (*toolio.BenchReport, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return toolio.NewBenchReport(date, runtime.GOMAXPROCS(0), 0, 0), nil
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return toolio.ReadBenchReport(f)
}
