// Command perfbench is the repository's end-to-end and per-layer
// benchmark. It runs one workload in-process for a number of seconds and
// prints, as its last line, one JSON object with the correctness verdict,
// the operation counts and the metrics. See README.md for the workloads,
// the metrics and the layer each metric is meant to move.
//
//	bash perfbench/run.sh --workload tmid-binary --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"syscall"
	"time"
)

// Set-up is repeated this many times per run and its median reported, so
// one slow set-up (a GC, a page-fault burst) does not move setup_s.
const setupRepeats = 9

// hardStop bounds a run that keeps going past --seconds to collect enough
// latency samples, well inside the 180 s a run may take.
const hardStop = 120 * time.Second

// bench is one workload with its inputs prepared. pass runs one fixed unit
// of work; every pass of a run does identical work, so counts and the
// parity reference repeat exactly. close releases what set-up started.
type bench interface {
	pass(tr *tracer, n int) (*passResult, error)
	close()
}

// passResult is what one pass measured. The fields after failed are filled
// only by the workloads that have them; the traced run reads them.
type passResult struct {
	work      float64       // simulated accesses or ingested sample records
	elapsed   time.Duration // wall time of the work
	cpu       time.Duration // process CPU time of the work
	lat       []float64     // µs per blocking operation (a simulated run or a tick)
	heapMB    float64       // live Go heap after runtime.GC at the end of the pass
	attempted int
	failed    int

	sim        simTotals
	relayRTT   []float64 // µs, ticks answered through the router
	scrape     []byte    // the node's /metrics at the end of the pass
	wireErrors int
	migrations migrationTotals
}

var workloadNames = []string{"sim-suite", "tmid-binary", "tmid-ndjson", "cluster-migrate"}

// newBench prepares a workload: its inputs, servers and warm-up.
func newBench(name string, seed int64) (bench, error) {
	switch name {
	case "sim-suite":
		return newSimBench(seed)
	case "tmid-binary":
		return newTmidBench(seed, wireBinary)
	case "tmid-ndjson":
		return newTmidBench(seed, wireNDJSON)
	case "cluster-migrate":
		return newClusterBench(seed)
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "sim-suite, tmid-binary, tmid-ndjson or cluster-migrate")
	seed := flag.Int64("seed", 1, "seed for the simulated runs that generate every input")
	seconds := flag.Int("seconds", 10, "how long to measure")
	traced := flag.Int("trace", 0, "1 runs the traced per-layer breakdown instead of the end-to-end metrics")
	flag.Parse()
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	if !slices.Contains(workloadNames, *workload) {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %v)\n", *workload, workloadNames)
		os.Exit(2)
	}

	run := runEndToEnd
	if *traced == 1 {
		run = runTraced
	}
	res, notes, err := run(*workload, *seed, time.Duration(*seconds)*time.Second)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, n := range notes {
		fmt.Println("#", n)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// setUp prepares the workload setupRepeats times, keeping the last copy,
// and returns the set-up times in seconds.
func setUp(name string, seed int64) (bench, []float64, error) {
	var b bench
	var times []float64
	for i := 0; i < setupRepeats; i++ {
		if b != nil {
			b.close()
		}
		runtime.GC()
		t := time.Now()
		nb, err := newBench(name, seed)
		if err != nil {
			return nil, nil, err
		}
		times = append(times, time.Since(t).Seconds())
		b = nb
	}
	return b, times, nil
}

// runEndToEnd measures the workload untraced: passes until the time is up
// and the latency distribution holds enough samples for its median.
//
// Throughput is counted per CPU-second of the process, not per wall
// second: on the shared two-vCPU host the benchmark was sized on, steal
// time from neighbouring machines moved wall-clock throughput by 10-16%
// between runs of identical code, while work per CPU-second moved by 4-5%.
// Latency stays wall-clock, since that is what a client waits.
func runEndToEnd(name string, seed int64, d time.Duration) (*result, []string, error) {
	b, setups, err := setUp(name, seed)
	if err != nil {
		return nil, nil, err
	}
	defer b.close()

	start := time.Now()
	need := minSamples(0.50)
	var rates, heaps, lat, migrateMS []float64
	res := &result{Metrics: map[string]metric{}}
	for n := 0; time.Since(start) < d || len(lat) < need; n++ {
		if time.Since(start) > hardStop {
			return nil, nil, fmt.Errorf("%s: %d latency samples after %v, need %d", name, len(lat), hardStop, need)
		}
		runtime.GC()
		r, err := b.pass(nil, n)
		if err != nil {
			return nil, nil, err
		}
		rates = append(rates, r.work/r.cpu.Seconds())
		heaps = append(heaps, r.heapMB)
		lat = append(lat, r.lat...)
		migrateMS = append(migrateMS, r.migrations.ms...)
		res.Attempted += r.attempted
		res.Failed += r.failed
	}
	p50, err := percentile(lat, 0.50)
	if err != nil {
		return nil, nil, err
	}
	res.Correct = res.Failed == 0
	res.Metrics["setup_s"] = metric{median(setups), "s"}
	res.Metrics["work_per_cpu_s"] = metric{median(rates), "1/s"}
	res.Metrics["latency_us_p50"] = metric{p50.Value, "us"}
	res.Metrics["heap_mb"] = metric{median(heaps), "MiB"}
	notes := []string{
		fmt.Sprintf("%s seed %d: %d passes; set-up times %.3f s", name, seed, len(rates), setups),
		fmt.Sprintf("latency_us_p50 = %.1f over n=%d", p50.Value, p50.N),
	}
	// Tails and migration times are printed for the record but not gated:
	// steal and speed drift on the shared host moved them by 20-27%
	// between runs of identical code.
	for _, q := range []float64{0.90, 0.99} {
		if p, err := percentile(lat, q); err == nil {
			notes = append(notes, fmt.Sprintf("latency_us_p%g = %.1f over n=%d (not gated)", q*100, p.Value, p.N))
		}
	}
	for _, q := range []float64{0.50, 0.90} {
		if p, err := percentile(migrateMS, q); err == nil {
			notes = append(notes, fmt.Sprintf("migrate_ms_p%g = %.2f over n=%d (not gated)", q*100, p.Value, p.N))
		}
	}
	return res, notes, checkFinite(res)
}

// checkFinite rejects a result JSON cannot carry.
func checkFinite(res *result) error {
	for k, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is %v", k, m.Value)
		}
	}
	return nil
}

// heapMB forces a collection and returns the live heap in MiB.
func heapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// cpuNow is the process's user plus system CPU time so far. Time the
// hypervisor stole from the machine is not in it.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	// RUSAGE_SELF with a valid pointer cannot fail.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
