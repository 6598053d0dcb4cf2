package cluster

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/promtext"
)

// routerMetrics is the router's own registry plus the aggregation point
// for per-node scrapes: /metrics renders the router counters (streams,
// relayed messages, migrations with a latency histogram, membership
// churn, ring generation) and then re-exports a whitelisted slice of each
// alive node's /metrics with a node label, so one scrape sees the whole
// cluster's queue depths and session counts.
type routerMetrics struct {
	now func() time.Time

	streamsTotal    atomic.Uint64
	streamsOpen     atomic.Int64
	streamsFailed   atomic.Uint64 // streams ended with a router-injected wire error
	messagesRelayed atomic.Uint64
	ticksRelayed    atomic.Uint64

	migrationsOK     atomic.Uint64
	migrationsNoop   atomic.Uint64 // source had no session (evicted or never fed)
	migrationsFailed atomic.Uint64
	migratedRecords  atomic.Uint64

	nodesLost      atomic.Uint64
	nodesRecovered atomic.Uint64

	mu        sync.Mutex
	migrateMS promtext.Histogram // migration latency, milliseconds
}

func newRouterMetrics(now func() time.Time) *routerMetrics {
	return &routerMetrics{now: now, migrateMS: promtext.NewHistogram(0.5, 1, 2.5, 5, 10, 25, 50, 100, 250, 500, 1000, 2500)}
}

// migrationDone records one migration attempt's outcome and latency.
func (m *routerMetrics) migrationDone(result string, records int, d time.Duration) {
	switch result {
	case "ok":
		m.migrationsOK.Add(1)
		m.migratedRecords.Add(uint64(records))
	case "noop":
		m.migrationsNoop.Add(1)
	default:
		m.migrationsFailed.Add(1)
	}
	m.mu.Lock()
	m.migrateMS.Observe(float64(d) / float64(time.Millisecond))
	m.mu.Unlock()
}

// MigrationStats is the tmiload- and perfbench-facing summary of
// migration activity.
type MigrationStats struct {
	OK, Noop, Failed uint64
	Records          uint64
	P50ms, P99ms     float64
}

// MigrationStats snapshots migration counters and latency quantiles.
func (rt *Router) MigrationStats() MigrationStats {
	m := rt.metrics
	m.mu.Lock()
	h := m.migrateMS.Snapshot()
	m.mu.Unlock()
	return MigrationStats{
		OK: m.migrationsOK.Load(), Noop: m.migrationsNoop.Load(), Failed: m.migrationsFailed.Load(),
		Records: m.migratedRecords.Load(), P50ms: h.Quantile(0.50), P99ms: h.Quantile(0.99),
	}
}

// nodeMetricWhitelist is the slice of each node's /metrics the router
// re-exports under a node label. Short and intentional: the cluster-level
// scrape answers "where are my sessions and how deep are the queues", not
// "mirror every node series".
var nodeMetricWhitelist = []string{
	"tmid_queue_depth",
	"tmid_sessions_active",
	"tmid_streams_open",
	"tmid_ingest_records_total",
	"tmid_sessions_migrated_in_total",
	"tmid_sessions_migrated_out_total",
	"tmid_migrate_failed_total",
}

// handleMetrics renders the router registry and the aggregated node slice.
func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	m := rt.metrics
	counter := func(name, help string, v uint64) { promtext.Counter(w, name, help, v) }
	gauge := func(name, help string, v float64) { promtext.Gauge(w, name, help, v) }
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")

	counter("tmirouter_streams_total", "Client streams admitted and relayed.", m.streamsTotal.Load())
	gauge("tmirouter_streams_open", "Client streams currently relayed.", float64(m.streamsOpen.Load()))
	counter("tmirouter_streams_failed_total", "Streams that ended in an error: framing and retryable errors the router injects, node errors it relays verbatim, and 502s for unreachable nodes.", m.streamsFailed.Load())
	counter("tmirouter_messages_relayed_total", "Wire messages forwarded to owning nodes.", m.messagesRelayed.Load())
	counter("tmirouter_ticks_relayed_total", "Tick/advice round trips relayed.", m.ticksRelayed.Load())
	promtext.Header(w, "tmirouter_migrations_total", "counter", "Session migrations by outcome.")
	fmt.Fprintf(w, "tmirouter_migrations_total{result=\"ok\"} %d\n", m.migrationsOK.Load())
	fmt.Fprintf(w, "tmirouter_migrations_total{result=\"noop\"} %d\n", m.migrationsNoop.Load())
	fmt.Fprintf(w, "tmirouter_migrations_total{result=\"failed\"} %d\n", m.migrationsFailed.Load())
	counter("tmirouter_migrated_records_total", "Session records (cumulative, as acked by the destination) in acked migrations.", m.migratedRecords.Load())
	counter("tmirouter_nodes_lost_total", "Nodes pulled from the ring after consecutive failures.", m.nodesLost.Load())
	counter("tmirouter_nodes_recovered_total", "Dead nodes re-admitted after a successful probe.", m.nodesRecovered.Load())
	gauge("tmirouter_ring_generation", "Current ring generation (bumps on every membership change).", float64(rt.gen.Load()))

	m.mu.Lock()
	h := m.migrateMS.Snapshot()
	m.mu.Unlock()
	h.WriteTo(w, "tmirouter_migration_ms", "Session migration latency in milliseconds.")

	// Membership gauges plus the whitelisted node re-export.
	info := rt.Ring()
	promtext.Header(w, "tmirouter_node_up", "gauge", "1 when the node answers probes.")
	for _, n := range info.Nodes {
		up := 0
		if n.Alive {
			up = 1
		}
		fmt.Fprintf(w, "tmirouter_node_up{node=%q} %d\n", n.URL, up)
	}
	promtext.Header(w, "tmirouter_node_streams", "gauge", "Streams currently relayed per node.")
	for _, n := range info.Nodes {
		fmt.Fprintf(w, "tmirouter_node_streams{node=%q} %d\n", n.URL, n.ActiveStreams)
	}
	for _, n := range info.Nodes {
		if !n.Alive {
			continue
		}
		lines, err := scrapeNode(n.URL)
		if err != nil {
			continue // the gap itself shows up as tmirouter_node_up
		}
		w.Write(lines)
	}
}

// scrapeNode fetches one node's /metrics and rewrites the whitelisted
// series with a node label (tmid_queue_depth{shard="0"} becomes
// tmid_queue_depth{node="...",shard="0"}).
func scrapeNode(url string) ([]byte, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, url+"/metrics", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("metrics %s", resp.Status)
	}
	var out strings.Builder
	sc := bufio.NewScanner(io.LimitReader(resp.Body, 1<<20))
	sc.Buffer(make([]byte, 64<<10), 64<<10)
	for sc.Scan() {
		line := sc.Text()
		name, rest, matched := matchWhitelisted(line)
		if !matched {
			continue
		}
		out.WriteString(name)
		if strings.HasPrefix(rest, "{") {
			fmt.Fprintf(&out, "{node=%q,%s\n", url, rest[1:])
		} else {
			fmt.Fprintf(&out, "{node=%q}%s\n", url, rest)
		}
	}
	return []byte(out.String()), sc.Err()
}

// matchWhitelisted splits a sample line into (metric name, remainder) when
// the metric is whitelisted; comment lines and other metrics don't match.
func matchWhitelisted(line string) (string, string, bool) {
	if line == "" || line[0] == '#' {
		return "", "", false
	}
	for _, name := range nodeMetricWhitelist {
		if strings.HasPrefix(line, name) {
			rest := line[len(name):]
			if rest == "" {
				return "", "", false
			}
			if rest[0] == '{' || rest[0] == ' ' {
				return name, rest, true
			}
		}
	}
	return "", "", false
}
