package service

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/promtext"
	"repro/internal/toolio"
)

// Metrics is tmid's metric registry, rendered in the Prometheus text
// exposition format by WriteTo. Counters are atomics updated by handlers,
// inside and outside shard turns; the histogram and the scrape-to-scrape rate gauge
// take a small mutex (cold paths: one observation per tick, one snapshot
// per scrape).
type Metrics struct {
	now   func() time.Time
	start time.Time

	records        atomic.Uint64 // samples ingested into detectors
	droppedRecords atomic.Uint64 // samples discarded when the shard's turn was not had in time
	droppedBatches atomic.Uint64
	invalidBatches atomic.Uint64 // batches refused by the shard (bad session params)
	rejected       atomic.Uint64 // streams turned away with 429
	streamsTotal   atomic.Uint64
	streamsNDJSON  atomic.Uint64 // streams negotiated onto the NDJSON encoding
	streamsBinary  atomic.Uint64 // streams negotiated onto the binary frame encoding
	streamsOpen    atomic.Int64
	wireFrames     atomic.Uint64 // binary frames decoded (samples + ticks)
	// Records decoded at the wire boundary, by encoding. These count what
	// clients sent; the records counter above counts what sessions actually
	// ingested (the difference is batches dropped on backpressure).
	wireRecordsNDJSON atomic.Uint64
	wireRecordsBinary atomic.Uint64
	ticks             atomic.Uint64
	classTrue         atomic.Uint64 // advice lines classified true sharing
	classFalse        atomic.Uint64 // advice lines classified false sharing
	advicePages       atomic.Uint64 // pages recommended for isolation

	sessionsActive  atomic.Int64
	sessionsEvicted atomic.Uint64
	migratedIn      atomic.Uint64 // sessions installed by /v1/import
	migratedOut     atomic.Uint64 // sessions cut over after a /v1/migrate ack
	migrateFailed   atomic.Uint64 // imports/pushes that failed (session kept)

	mu      sync.Mutex
	latency promtext.Histogram // tick queue wait
	analyze promtext.Histogram // tick analysis (session.advise) under the shard's turn
	// adviceBackend counts advice messages that carried each repair-backend
	// recommendation (empty when no recommendation policy is configured).
	adviceBackend map[string]uint64
	// Scrape-to-scrape ingest rate: the records/sec gauge is the delta
	// since the previous /metrics scrape (first scrape: since start).
	lastRateTotal uint64
	lastRateAt    time.Time
}

func newMetrics(now func() time.Time) *Metrics {
	t := now()
	return &Metrics{now: now, start: t, lastRateAt: t, latency: newLatencyHistogram(), analyze: newAnalyzeHistogram()}
}

// observeAdvice folds one advice reply into the classification counters and
// the two tick histograms. The tick samples the clock when it takes its
// shard's turn, before advise runs, so latency is the tick's queue wait
// only (request to turn held); analyze is timed around advise alone.
func (m *Metrics) observeAdvice(adv toolio.WireAdvice, latency, analyze time.Duration) {
	m.advicePages.Add(uint64(len(adv.Pages)))
	for _, l := range adv.Lines {
		switch l.Class {
		case "true":
			m.classTrue.Add(1)
		case "false":
			m.classFalse.Add(1)
		}
	}
	m.mu.Lock()
	m.latency.Observe(latency.Seconds())
	m.analyze.Observe(analyze.Seconds())
	if adv.Backend != "" {
		if m.adviceBackend == nil {
			m.adviceBackend = map[string]uint64{}
		}
		m.adviceBackend[adv.Backend]++
	}
	m.mu.Unlock()
}

func newLatencyHistogram() promtext.Histogram {
	return promtext.NewHistogram(50e-6, 100e-6, 250e-6, 500e-6, 1e-3, 2.5e-3, 5e-3, 10e-3, 25e-3, 50e-3, 100e-3, 250e-3, 500e-3, 1)
}

// newAnalyzeHistogram buckets one window's analysis: a few hundred records
// analyze in microseconds, so the buckets start an order of magnitude below
// the queue-wait histogram's.
func newAnalyzeHistogram() promtext.Histogram {
	return promtext.NewHistogram(5e-6, 10e-6, 25e-6, 50e-6, 100e-6, 250e-6, 500e-6, 1e-3, 2.5e-3, 5e-3, 10e-3, 25e-3, 50e-3, 100e-3, 1)
}

// WriteTo renders the registry in Prometheus text format. queueDepths are
// the operations holding or waiting for each shard's turn at scrape time,
// and queueCap their admission bound (Config.QueueDepth).
func (m *Metrics) WriteTo(w io.Writer, queueDepths []int, queueCap int, draining bool) {
	counter := func(name, help string, v uint64) { promtext.Counter(w, name, help, v) }
	gauge := func(name, help string, v float64) { promtext.Gauge(w, name, help, v) }

	counter("tmid_ingest_records_total", "Resolved samples ingested into detector sessions.", m.records.Load())
	counter("tmid_ingest_dropped_records_total", "Samples dropped because a shard queue stayed saturated past the enqueue wait.", m.droppedRecords.Load())
	counter("tmid_ingest_dropped_batches_total", "Sample batches dropped on enqueue timeout.", m.droppedBatches.Load())
	counter("tmid_ingest_invalid_batches_total", "Batches refused by a shard (invalid session parameters).", m.invalidBatches.Load())
	counter("tmid_streams_total", "Client streams admitted.", m.streamsTotal.Load())
	counter("tmid_streams_rejected_total", "Client streams rejected with 429 because the tenant's shard was saturated.", m.rejected.Load())
	promtext.Header(w, "tmid_wire_streams_total", "counter", "Admitted streams by negotiated sample encoding.")
	fmt.Fprintf(w, "tmid_wire_streams_total{encoding=\"ndjson\"} %d\n", m.streamsNDJSON.Load())
	fmt.Fprintf(w, "tmid_wire_streams_total{encoding=\"binary\"} %d\n", m.streamsBinary.Load())
	counter("tmid_wire_frames_total", "Binary wire frames decoded (samples and ticks).", m.wireFrames.Load())
	promtext.Header(w, "tmid_wire_records_total", "counter", "Sample records decoded at the wire boundary, by encoding.")
	fmt.Fprintf(w, "tmid_wire_records_total{encoding=\"ndjson\"} %d\n", m.wireRecordsNDJSON.Load())
	fmt.Fprintf(w, "tmid_wire_records_total{encoding=\"binary\"} %d\n", m.wireRecordsBinary.Load())
	gauge("tmid_streams_open", "Client streams currently connected.", float64(m.streamsOpen.Load()))
	counter("tmid_ticks_total", "Analysis windows closed (advice messages produced).", m.ticks.Load())
	counter("tmid_classified_lines_true_total", "Advice lines classified as true sharing.", m.classTrue.Load())
	counter("tmid_classified_lines_false_total", "Advice lines classified as false sharing.", m.classFalse.Load())
	counter("tmid_advice_pages_total", "Pages recommended for isolation across all advice.", m.advicePages.Load())
	gauge("tmid_sessions_active", "Tenant sessions currently resident.", float64(m.sessionsActive.Load()))
	counter("tmid_sessions_evicted_total", "Tenant sessions evicted after the idle TTL.", m.sessionsEvicted.Load())
	counter("tmid_sessions_migrated_in_total", "Sessions rebuilt and installed by /v1/import.", m.migratedIn.Load())
	counter("tmid_sessions_migrated_out_total", "Sessions removed after a destination acked their migration.", m.migratedOut.Load())
	counter("tmid_migrate_failed_total", "Migration imports or pushes that failed (source session kept).", m.migrateFailed.Load())

	// Queue depth per shard plus the shared capacity bound.
	promtext.Header(w, "tmid_queue_depth", "gauge", "Operations holding or waiting for each shard's turn.")
	for i, d := range queueDepths {
		fmt.Fprintf(w, "tmid_queue_depth{shard=\"%d\"} %d\n", i, d)
	}
	gauge("tmid_queue_capacity", "Per-shard ingest queue capacity.", float64(queueCap))

	drainingV := 0.0
	if draining {
		drainingV = 1
	}
	gauge("tmid_draining", "1 while the server is draining for shutdown.", drainingV)

	now := m.now()
	total := m.records.Load()
	m.mu.Lock()
	elapsed := now.Sub(m.lastRateAt).Seconds()
	rate := 0.0
	if elapsed > 0 {
		rate = float64(total-m.lastRateTotal) / elapsed
	}
	m.lastRateTotal = total
	m.lastRateAt = now
	latency, analyze := m.latency.Snapshot(), m.analyze.Snapshot()
	backends := make([]string, 0, len(m.adviceBackend))
	for b := range m.adviceBackend {
		backends = append(backends, b)
	}
	sort.Strings(backends)
	backendCounts := make([]uint64, len(backends))
	for i, b := range backends {
		backendCounts[i] = m.adviceBackend[b]
	}
	m.mu.Unlock()
	gauge("tmid_ingest_records_per_sec", "Ingest rate over the interval since the previous scrape.", rate)

	latency.WriteTo(w, "tmid_advice_latency_seconds", "Tick queue wait: enqueue to shard pickup, sampled before analysis (excludes analyze and reply).")
	analyze.WriteTo(w, "tmid_analyze_seconds", "Tick analysis on the shard: closing the window and rendering its advice (session.advise).")

	if len(backends) > 0 {
		promtext.Header(w, "tmid_advice_backend_total", "counter", "Advice messages by recommended repair backend.")
		for i, b := range backends {
			fmt.Fprintf(w, "tmid_advice_backend_total{backend=%q} %d\n", b, backendCounts[i])
		}
	}

	gauge("tmid_uptime_seconds", "Seconds since the server started.", now.Sub(m.start).Seconds())
}
