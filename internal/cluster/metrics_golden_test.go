package cluster

import (
	"bytes"
	"flag"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden scrape files under testdata/")

// TestRouterMetricsGoldenScrape pins the router's exposition and its
// MigrationStats quantiles byte for byte. Every member is dead, so the
// render scrapes no node and depends on the router registry alone.
func TestRouterMetricsGoldenScrape(t *testing.T) {
	rt, err := New(Config{
		Nodes:         []string{"http://node-a.invalid:7412", "http://node-b.invalid:7412"},
		ProbeInterval: -1,
		FailAfter:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	rt.reportNodeFailure("http://node-a.invalid:7412")
	rt.reportNodeFailure("http://node-b.invalid:7412")

	m := rt.metrics
	m.streamsTotal.Add(12)
	m.streamsOpen.Add(3)
	m.streamsFailed.Add(2)
	m.messagesRelayed.Add(480)
	m.ticksRelayed.Add(96)
	m.nodesRecovered.Add(1)
	for _, mig := range []struct {
		result  string
		records int
		d       time.Duration
	}{
		{"ok", 4000, 3 * time.Millisecond},
		{"ok", 250, 700 * time.Microsecond},
		{"ok", 186000, 120 * time.Millisecond},
		{"noop", 0, 200 * time.Microsecond},
		{"failed", 0, 4 * time.Second},
		{"ok", 90, 12500 * time.Microsecond},
	} {
		m.migrationDone(mig.result, mig.records, mig.d)
	}

	rec := httptest.NewRecorder()
	rt.handleMetrics(rec, httptest.NewRequest("GET", "/metrics", nil))
	var buf bytes.Buffer
	buf.Write(rec.Body.Bytes())
	fmt.Fprintf(&buf, "# MigrationStats %+v\n", rt.MigrationStats())

	path := filepath.Join("testdata", "router_metrics.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("%s diverged from the rendered scrape:\n--- got\n%s\n--- want\n%s", path, buf.Bytes(), want)
	}
}
