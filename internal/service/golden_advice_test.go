package service

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/detect"
	"repro/internal/sim/trace"
)

// Addresses of the sharing shapes shapesLog draws. The counters sit on the
// last 4 KiB page below a 2 MiB boundary and the thread-locals on the first
// page above it, so 4 KiB and 2 MiB pages flag different page sets. Every
// shape lives at least 256 bytes from the next, so the line-size
// predictions never regroup two shapes into one hypothetical line.
const (
	shapeCounters = 0x3f_f000 + 0x40  // int a[256], thread t increments a[t]
	shapeTLS      = 0x40_0000 + 0x80  // adjacent 16-byte thread-local slots
	shapeAtomics  = 0x40_2000 + 0x7c0 // two packed uint64 atomics
	shapeShared   = 0x41_0000 + 0x100 // one word every thread updates
	shapeSpans    = 0x80_0000 + 0x200 // scattered byte spans: the span-merge path
)

// shapesLog is the seeded generator behind the golden advice: each window
// mixes packed per-thread counters (load and store per increment, with an
// occasional skidded record), adjacent thread-locals, a packed-atomics
// ping-pong between threads 0 and 1, a true-sharing control, and one line
// that three or more threads hit at scattered offsets, so each thread holds
// more than 24 distinct spans there. Window sizes, thread counts, shape
// weights, periods and intervals vary; one window is empty and one is
// below MinRecords.
func shapesLog(pageSize int, seed int64) *trace.SampleLog {
	rng := rand.New(rand.NewSource(seed))
	log := &trace.SampleLog{PageSize: pageSize}
	sizes := []int{400, 0, 650, 5, 300, 900, 120, 500, 750, 260}
	periods := []int{100, 10, 1000, 1}
	for w, n := range sizes {
		threads := 3 + w%4
		for i := 0; i < n; i++ {
			tid := rng.Intn(threads)
			switch shape := rng.Intn(5 + w%3); shape {
			case 0:
				addr := uint64(shapeCounters + 4*tid)
				if rng.Intn(40) == 0 {
					addr += 4
				}
				log.TapSample(detect.Sample{TID: tid, Addr: addr, Width: 4})
				log.TapSample(detect.Sample{TID: tid, Addr: addr, Width: 4, Write: true})
			case 1:
				log.TapSample(detect.Sample{TID: tid, Addr: uint64(shapeTLS + 16*tid), Width: 4, Write: true})
			case 2:
				tid %= 2
				log.TapSample(detect.Sample{TID: tid, Addr: uint64(shapeAtomics + 8*tid), Width: 8, Write: true})
			case 3:
				log.TapSample(detect.Sample{TID: tid, Addr: shapeShared, Width: 8, Write: rng.Intn(2) == 0})
			default:
				log.TapSample(detect.Sample{TID: tid, Addr: shapeSpans + uint64(rng.Intn(60)), Width: 1 + rng.Intn(4), Write: rng.Intn(3) != 0})
			}
		}
		log.TapWindow(0.001*float64(1+w%3), periods[w%len(periods)])
	}
	return log
}

// historySummary runs log through a detector with cumulative history and
// renders what the simulator path reports from it: line and record
// counts, the per-line reports in address order, the line-size sweep and
// the manual-fix speedup estimate.
func historySummary(log *trace.SampleLog) []byte {
	det := detect.New(detect.DefaultConfig(), nil, nil, nil, nil, log.PageSize)
	det.History = detect.NewHistory()
	for i, w := range log.Windows {
		for _, s := range log.WindowSamples(i) {
			det.Ingest(s)
		}
		det.Analyze(w.IntervalSec, w.Period)
	}
	h := det.History
	var b bytes.Buffer
	fmt.Fprintf(&b, "page_size %d\n", log.PageSize)
	fmt.Fprintf(&b, "lines true %d false %d\n", len(h.TrueLines), len(h.FalseLines))
	fmt.Fprintf(&b, "records true %d false %d false_write %d dropped_spans %d\n",
		h.TrueRecords, h.FalseRecords, h.FalseWriteRecords, h.DroppedSpans)
	lines := make([]detect.LineReport, 0, len(h.Lines))
	for _, l := range h.Lines {
		lines = append(lines, l)
	}
	sort.Slice(lines, func(i, j int) bool { return lines[i].Line < lines[j].Line })
	for _, l := range lines {
		fmt.Fprintf(&b, "line %#x %s records %d est %v dropped %d\n", l.Line, l.Class, l.Records, l.EstEventsPerSec, l.DroppedSpans)
	}
	for _, p := range h.PredictLineSizes() {
		fmt.Fprintf(&b, "predict %d false %d true %d\n", p.LineSize, p.FalseLines, p.TrueLines)
	}
	fmt.Fprintf(&b, "manual_speedup %v\n", h.PredictManualSpeedup(100, 2_000_000_000, 4))
	return b.Bytes()
}

// TestGoldenAdvice pins, at 4 KiB and 2 MiB pages, the advice bytes Replay
// renders for shapesLog and the cumulative history a detector builds from
// the same trace. The parity checks compare a server against Replay from
// the same tree, so a detector change that shifts both sides passes them;
// these files do not move unless a verdict does. Rewrite them with
// `go test ./internal/service -run GoldenAdvice -args -update`.
func TestGoldenAdvice(t *testing.T) {
	var advice, history bytes.Buffer
	for _, pageSize := range []int{4 << 10, 2 << 20} {
		log := shapesLog(pageSize, 18)
		got, err := Replay(log, pageSize, detect.DefaultConfig(), detect.DefaultPeriodController(), 1)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&advice, "# page_size %d\n", pageSize)
		advice.Write(got)
		history.Write(historySummary(log))
	}
	checkGolden(t, "advice.golden", advice.Bytes())
	checkGolden(t, "history.golden", history.Bytes())
}
