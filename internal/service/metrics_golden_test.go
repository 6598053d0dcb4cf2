package service

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/toolio"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden files under testdata/")

// checkGolden compares got against testdata/name, or rewrites the file
// when the test runs with -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s diverged from the rendered scrape:\n--- got\n%s\n--- want\n%s", path, got, want)
	}
}

// TestMetricsGoldenScrape pins the whole tmid exposition byte for byte:
// metric names, # HELP text, bucket bounds, sums and label rendering. The
// registry runs on a fake clock, so the rate and uptime gauges are fixed.
func TestMetricsGoldenScrape(t *testing.T) {
	clk := &fakeClock{t: time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)}
	m := newMetrics(clk.now)

	m.records.Add(12345)
	m.droppedRecords.Add(7)
	m.droppedBatches.Add(2)
	m.invalidBatches.Add(1)
	m.rejected.Add(3)
	m.streamsTotal.Add(9)
	m.streamsNDJSON.Add(4)
	m.streamsBinary.Add(5)
	m.streamsOpen.Add(2)
	m.wireFrames.Add(31)
	m.wireRecordsNDJSON.Add(400)
	m.wireRecordsBinary.Add(11945)
	m.ticks.Add(6)
	m.sessionsActive.Add(4)
	m.sessionsEvicted.Add(1)
	m.migratedIn.Add(2)
	m.migratedOut.Add(1)
	m.migrateFailed.Add(1)

	line := func(class string) toolio.WireLine { return toolio.WireLine{Line: 0x10000, Class: class, Records: 10} }
	for _, o := range []struct {
		adv              toolio.WireAdvice
		latency, analyze time.Duration
	}{
		{toolio.WireAdvice{Pages: []uint64{0x10000}, Lines: []toolio.WireLine{line("false"), line("true")}, Backend: "pad"}, 75 * time.Microsecond, 7 * time.Microsecond},
		{toolio.WireAdvice{}, 3 * time.Millisecond, 300 * time.Microsecond},
		{toolio.WireAdvice{Pages: []uint64{0x10000, 0x11000}, Lines: []toolio.WireLine{line("false")}, Backend: "t2p"}, 2 * time.Second, 40 * time.Millisecond},
		{toolio.WireAdvice{Backend: "pad"}, 50 * time.Microsecond, 3 * time.Second},
	} {
		m.observeAdvice(o.adv, o.latency, o.analyze)
	}

	clk.advance(2500 * time.Millisecond)
	var buf bytes.Buffer
	m.WriteTo(&buf, []int{0, 3, 17}, 64, true)
	checkGolden(t, "metrics.golden", buf.Bytes())
}
