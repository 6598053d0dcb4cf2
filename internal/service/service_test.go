package service

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/detect"
	"repro/internal/sim/trace"
	"repro/internal/toolio"
)

// syntheticLog builds a small replayable trace by hand: two threads
// hammering adjacent fields of one cache line (classic false sharing) plus
// a genuinely shared word on another line, across several analysis windows.
func syntheticLog() *trace.SampleLog {
	log := &trace.SampleLog{PageSize: 4096}
	for w := 0; w < 6; w++ {
		// >512 samples per window so the adaptive controller's high-water
		// mark trips and the advice stream exercises period feedback.
		for i := 0; i < 400; i++ {
			tid := i % 2
			// False sharing: disjoint 8-byte fields on line 0x10000.
			log.TapSample(detect.Sample{TID: tid, Addr: 0x10000 + uint64(tid)*8, Width: 8, Write: tid == 0})
			// True sharing: both threads on the same word of line 0x20000.
			if i%3 == 0 {
				log.TapSample(detect.Sample{TID: tid, Addr: 0x20000, Width: 8, Write: true})
			}
		}
		log.TapWindow(0.0001, 100)
	}
	return log
}

// fakeClock is the injectable clock for TTL tests.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	srv := New(cfg)
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		hs.Close()
		srv.Drain()
	})
	return srv, hs
}

func TestStreamParityWithOfflineReplay(t *testing.T) {
	log := syntheticLog()
	_, hs := newTestServer(t, Config{Shards: 2})

	want, err := Replay(log, log.PageSize, detect.Config{}, detect.DefaultPeriodController(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(bytes.Split(bytes.TrimSpace(want), []byte("\n"))) != 2*len(log.Windows) {
		t.Fatalf("offline replay produced wrong advice line count")
	}

	cl := &Client{BaseURL: hs.URL, Tenant: "parity-1", PageSize: log.PageSize}
	res, err := cl.Replay(log, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Advice, want) {
		t.Errorf("server advice diverged from offline replay:\nserver: %s\noffline: %s", res.Advice, want)
	}
	if res.Records != 2*log.Len() || res.Ticks != 2*len(log.Windows) {
		t.Errorf("sent %d records / %d ticks, want %d / %d", res.Records, res.Ticks, 2*log.Len(), 2*len(log.Windows))
	}
}

// TestRecommendationIsAdditive pins the backend-recommendation contract:
// the policy only ever adds the "backend" key to advice that carries pages
// — deleting that key from a recommending stream reproduces the plain
// stream byte-for-byte.
func TestRecommendationIsAdditive(t *testing.T) {
	log := syntheticLog()
	plain, err := Replay(log, log.PageSize, detect.Config{}, detect.DefaultPeriodController(), 1)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := ReplayWithPolicy(log, log.PageSize, detect.Config{}, detect.DefaultPeriodController(), 1, "auto")
	if err != nil {
		t.Fatal(err)
	}
	plainLines := bytes.Split(bytes.TrimSpace(plain), []byte("\n"))
	recLines := bytes.Split(bytes.TrimSpace(rec), []byte("\n"))
	if len(plainLines) != len(recLines) {
		t.Fatalf("line counts diverged: %d plain, %d recommending", len(plainLines), len(recLines))
	}
	sawRec := false
	for i, line := range recLines {
		m, err := toolio.DecodeWireMsg(line)
		if err != nil {
			t.Fatal(err)
		}
		if len(m.Pages) > 0 && m.Backend == "" {
			t.Errorf("advice %d carries pages but no recommendation", i)
		}
		if len(m.Pages) == 0 && m.Backend != "" {
			t.Errorf("advice %d recommends %q with nothing to repair", i, m.Backend)
		}
		stripped := line
		if m.Backend != "" {
			sawRec = true
			stripped = bytes.Replace(line, []byte(fmt.Sprintf(",%q:%q", "backend", m.Backend)), nil, 1)
		}
		if !bytes.Equal(stripped, plainLines[i]) {
			t.Errorf("advice %d differs beyond the backend field:\nrec:   %s\nplain: %s", i, line, plainLines[i])
		}
	}
	if !sawRec {
		t.Error("synthetic false sharing never drew a recommendation")
	}
}

// TestServerRecommendationParity runs a recommending tmid against the
// recommending offline replay (bytes must match) and checks the per-backend
// advice counter shows up in /metrics.
func TestServerRecommendationParity(t *testing.T) {
	log := syntheticLog()
	srv, hs := newTestServer(t, Config{Shards: 2, RecommendBackend: "tmebox"})

	want, err := ReplayWithPolicy(log, log.PageSize, detect.Config{}, detect.DefaultPeriodController(), 1, "tmebox")
	if err != nil {
		t.Fatal(err)
	}
	cl := &Client{BaseURL: hs.URL, Tenant: "rec-1", PageSize: log.PageSize}
	res, err := cl.Replay(log, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Advice, want) {
		t.Errorf("recommending server diverged from offline policy replay:\nserver: %s\noffline: %s", res.Advice, want)
	}
	sawFixed := false
	for _, line := range bytes.Split(bytes.TrimSpace(res.Advice), []byte("\n")) {
		m, err := toolio.DecodeWireMsg(line)
		if err != nil {
			t.Fatal(err)
		}
		if len(m.Pages) > 0 {
			if m.Backend != "tmebox" {
				t.Errorf("fixed policy produced backend %q", m.Backend)
			}
			sawFixed = true
		}
	}
	if !sawFixed {
		t.Fatal("no advice carried pages")
	}

	resp, err := http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), `tmid_advice_backend_total{backend="tmebox"}`) {
		t.Error("metrics missing per-backend advice counter")
	}
	_ = srv
}

func TestAdviceCarriesRepairAndPeriodFeedback(t *testing.T) {
	log := syntheticLog()
	out, err := Replay(log, log.PageSize, detect.Config{}, detect.DefaultPeriodController(), 1)
	if err != nil {
		t.Fatal(err)
	}
	sawFalse, sawPages, sawPeriodRaise := false, false, false
	for _, line := range bytes.Split(bytes.TrimSpace(out), []byte("\n")) {
		m, err := toolio.DecodeWireMsg(line)
		if err != nil {
			t.Fatal(err)
		}
		if m.K != toolio.WireAdviceKind {
			t.Fatalf("replay emitted non-advice line %q", line)
		}
		if len(m.Pages) > 0 {
			sawPages = true
		}
		for _, l := range m.Lines {
			if l.Class == "false" {
				sawFalse = true
			}
		}
		// ~300 records per window is above the controller's high-water mark,
		// so the feedback must ask for a longer period.
		if m.NextPeriod > 100 {
			sawPeriodRaise = true
		}
	}
	if !sawFalse || !sawPages {
		t.Errorf("advice stream missing false-sharing verdicts (false=%v pages=%v):\n%s", sawFalse, sawPages, out)
	}
	if !sawPeriodRaise {
		t.Errorf("overloaded windows never raised the sampling period:\n%s", out)
	}
}

func TestSaturatedShardRejectsWith429(t *testing.T) {
	log := syntheticLog()
	srv, hs := newTestServer(t, Config{Shards: 1, QueueDepth: 1, EnqueueWait: 10 * time.Millisecond})

	// Wedge the single shard: one stall job being processed, one more
	// filling the bounded queue to capacity.
	sh := srv.shards[0]
	stall := make(chan struct{})
	sh.jobs <- job{run: func(*shard, time.Time) { <-stall }}
	sh.jobs <- job{run: func(*shard, time.Time) { <-stall }}
	for len(sh.jobs) < 1 {
		time.Sleep(time.Millisecond)
	}

	cl := &Client{BaseURL: hs.URL, Tenant: "busy-1", PageSize: log.PageSize}
	_, err := cl.Replay(log, 1)
	busy, ok := err.(*ErrBusy)
	if !ok {
		t.Fatalf("streaming at a saturated shard: err = %v, want *ErrBusy", err)
	}
	if busy.RetryAfter <= 0 {
		t.Errorf("429 carried no Retry-After backoff: %+v", busy)
	}
	if got := srv.Metrics().rejected.Load(); got != 1 {
		t.Errorf("rejected counter = %d, want 1", got)
	}

	// Releasing the shard restores service.
	close(stall)
	if _, err := cl.Replay(log, 1); err != nil {
		t.Errorf("stream after release: %v", err)
	}
}

func TestMidStreamOverloadDropsBatchWithRetryableError(t *testing.T) {
	srv, hs := newTestServer(t, Config{Shards: 1, QueueDepth: 1, EnqueueWait: 5 * time.Millisecond})

	// Drive the raw protocol so the wedge lands between admission and the
	// first batch: connect and get admitted while the queue is empty, then
	// saturate the shard, then send a batch.
	pr, pw := io.Pipe()
	req, err := http.NewRequest(http.MethodPost, hs.URL+"/v1/stream", pr)
	if err != nil {
		t.Fatal(err)
	}
	respc := make(chan *http.Response, 1)
	errc := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			errc <- err
			return
		}
		respc <- resp
	}()
	hello := toolio.WireHello{K: toolio.WireHelloKind, Version: toolio.SchemaVersion, Tenant: "wedge-1", PageSize: 4096}
	if _, err := pw.Write(toolio.EncodeWire(hello)); err != nil {
		t.Fatal(err)
	}
	var resp *http.Response
	select {
	case resp = <-respc:
	case err := <-errc:
		t.Fatal(err)
	case <-time.After(5 * time.Second):
		t.Fatal("no response headers within 5s")
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("admission status %d, want 200", resp.StatusCode)
	}

	// Wedge: capacity is 1, so the second send can only complete once the
	// loop dequeued the first and is blocked on it — queue provably full.
	stall := make(chan struct{})
	defer close(stall)
	sh := srv.shards[0]
	sh.jobs <- job{run: func(*shard, time.Time) { <-stall }}
	sh.jobs <- job{run: func(*shard, time.Time) { <-stall }}

	batch := toolio.WireSamples{K: toolio.WireSamplesKind, S: [][4]uint64{{0, 0x10000, 8, 1}, {1, 0x10008, 8, 0}}}
	if _, err := pw.Write(toolio.EncodeWire(batch)); err != nil {
		t.Fatal(err)
	}

	sc := bufio.NewScanner(resp.Body)
	if !sc.Scan() {
		t.Fatalf("stream ended without an error line: %v", sc.Err())
	}
	m, err := toolio.DecodeWireMsg(sc.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if m.K != toolio.WireErrorKind || m.RetryMs <= 0 {
		t.Fatalf("overloaded batch reply %+v, want retryable wire error", m)
	}
	if got := srv.Metrics().droppedBatches.Load(); got != 1 {
		t.Errorf("droppedBatches = %d, want 1", got)
	}
	if got := srv.Metrics().droppedRecords.Load(); got != 2 {
		t.Errorf("droppedRecords = %d, want 2", got)
	}
	pw.Close()
}

// sessionInfo is a test's view of one tenant's session. Records and Ticks
// are cumulative over the session's life: a migration carries them as
// checkpoint counters, so they survive a move.
type sessionInfo struct {
	Exists  bool
	Ticks   int
	Records uint64
}

// inspect snapshots a tenant's session on its owning shard, so it never
// races ingest. A shard that does not run the job (saturated past
// EnqueueWait, or a drained server) reports the zero sessionInfo.
func inspect(srv *Server, tenant string) (info sessionInfo) {
	srv.onShard(tenant, func(sh *shard, _ time.Time) {
		if s := sh.sessions[tenant]; s != nil {
			info = sessionInfo{Exists: true, Ticks: s.ticks, Records: s.det.TotalRecords}
		}
	})
	return info
}

func TestSessionTTLEviction(t *testing.T) {
	log := syntheticLog()
	clk := &fakeClock{t: time.Unix(1_700_000_000, 0)}
	srv, hs := newTestServer(t, Config{Shards: 1, SessionTTL: time.Second, now: clk.now})

	cl := &Client{BaseURL: hs.URL, Tenant: "ttl-1", PageSize: log.PageSize}
	want, err := Replay(log, log.PageSize, detect.Config{}, detect.DefaultPeriodController(), 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := cl.Replay(log, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Advice, want) {
		t.Fatal("first replay lost parity")
	}

	info := inspect(srv, "ttl-1")
	if !info.Exists || info.Records != uint64(len(log.Samples)) {
		t.Fatalf("session missing after replay: %+v", info)
	}
	if got := srv.Metrics().sessionsActive.Load(); got != 1 {
		t.Fatalf("sessionsActive = %d, want 1", got)
	}

	// Idle past the TTL: the next shard pass evicts the session and its
	// detector.
	clk.advance(2 * time.Second)
	if info := inspect(srv, "ttl-1"); info.Exists {
		t.Fatalf("session survived the TTL: %+v", info)
	}
	if got := srv.Metrics().sessionsEvicted.Load(); got != 1 {
		t.Errorf("sessionsEvicted = %d, want 1", got)
	}
	if got := srv.Metrics().sessionsActive.Load(); got != 0 {
		t.Errorf("sessionsActive = %d, want 0", got)
	}

	// A late arrival starts a fresh session — same advice as a fresh
	// offline replay, with the evicted session's state fully released.
	res2, err := cl.Replay(log, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res2.Advice, want) {
		t.Errorf("post-eviction replay diverged from a fresh session:\ngot:  %s\nwant: %s", res2.Advice, want)
	}
	info = inspect(srv, "ttl-1")
	if !info.Exists || info.Ticks != len(log.Windows) {
		t.Errorf("fresh session state after eviction: %+v", info)
	}
}

func TestMetricsExposition(t *testing.T) {
	log := syntheticLog()
	srv, hs := newTestServer(t, Config{Shards: 2})
	cl := &Client{BaseURL: hs.URL, Tenant: "metrics-1", PageSize: log.PageSize}
	if _, err := cl.Replay(log, 1); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	body := buf.String()

	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("metrics content type %q", ct)
	}
	for _, want := range []string{
		fmt.Sprintf("tmid_ingest_records_total %d", log.Len()),
		fmt.Sprintf("tmid_ticks_total %d", len(log.Windows)),
		"tmid_streams_total 1",
		"tmid_sessions_active 1",
		"tmid_queue_depth{shard=\"0\"} ",
		"tmid_queue_depth{shard=\"1\"} ",
		"tmid_queue_capacity 256",
		"tmid_ingest_records_per_sec ",
		"# HELP tmid_advice_latency_seconds Tick queue wait: enqueue to shard pickup, sampled before analysis (excludes analyze and reply).",
		"tmid_advice_latency_seconds_bucket{le=\"+Inf\"} " + fmt.Sprint(len(log.Windows)),
		"tmid_advice_latency_seconds_count " + fmt.Sprint(len(log.Windows)),
		"# TYPE tmid_analyze_seconds histogram",
		"tmid_analyze_seconds_bucket{le=\"+Inf\"} " + fmt.Sprint(len(log.Windows)),
		"tmid_analyze_seconds_count " + fmt.Sprint(len(log.Windows)),
		"tmid_classified_lines_false_total",
		"tmid_draining 0",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics exposition missing %q", want)
		}
	}
	_ = srv
}

// TestHelloValidation pins the answer to every bad first line: 400 with a
// message naming the fault. Only a body that ends before any byte is an
// "empty stream"; an oversized hello says so.
func TestHelloValidation(t *testing.T) {
	_, hs := newTestServer(t, Config{Shards: 1})
	_, small := newTestServer(t, Config{Shards: 1, MaxFrameBytes: 1024})
	for _, tc := range []struct {
		name, url, body, want string
	}{
		{"empty", hs.URL, "", "empty stream"},
		{"bad-json", hs.URL, "{not json}\n", "first line must be a hello"},
		{"not-hello", hs.URL, `{"k":"t","seq":0}` + "\n", "first line must be a hello"},
		{"future-version", hs.URL, `{"k":"h","v":99,"tenant":"x"}` + "\n", "version"},
		{"no-tenant", hs.URL, fmt.Sprintf(`{"k":"h","v":%d}`, toolio.SchemaVersion) + "\n", "tenant"},
		{"bad-page-size", hs.URL, fmt.Sprintf(`{"k":"h","v":%d,"tenant":"x","page_size":1000}`, toolio.SchemaVersion) + "\n", "page size"},
		{"oversized", small.URL, fmt.Sprintf(`{"k":"h","v":%d,"tenant":"%s"}`, toolio.SchemaVersion, strings.Repeat("x", 4<<10)) + "\n", "exceeds"},
	} {
		resp, err := http.Post(tc.url+"/v1/stream", "application/x-ndjson", strings.NewReader(tc.body))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), tc.want) {
			t.Errorf("%s: status %d body %q, want 400 mentioning %q", tc.name, resp.StatusCode, body, tc.want)
		}
	}
}

func TestDrainLifecycle(t *testing.T) {
	log := syntheticLog()
	srv, hs := newTestServer(t, Config{Shards: 2})

	if resp, err := http.Get(hs.URL + "/healthz"); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz before drain: %v %v", resp.StatusCode, err)
	} else {
		resp.Body.Close()
	}

	srv.BeginDrain()
	resp, err := http.Get(hs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz while draining: status %d, want 503", resp.StatusCode)
	}

	cl := &Client{BaseURL: hs.URL, Tenant: "late-1", PageSize: log.PageSize}
	if _, err := cl.Replay(log, 1); err == nil {
		t.Error("draining server admitted a new stream")
	}

	srv.Drain()
	// After the queues close, enqueue refuses instead of panicking, and
	// inspect reports nothing.
	if ok := srv.enqueue(srv.shards[0], job{tenant: "x"}); ok {
		t.Error("enqueue succeeded on a drained server")
	}
	if info := inspect(srv, "late-1"); info.Exists {
		t.Errorf("drained server reported a session: %+v", info)
	}
	srv.Drain() // idempotent
}

func TestShardRoutingIsStable(t *testing.T) {
	srv, _ := newTestServer(t, Config{Shards: 8})
	spread := map[int]bool{}
	for i := 0; i < 64; i++ {
		tenant := fmt.Sprintf("tenant-%d", i)
		a, b := srv.shardFor(tenant), srv.shardFor(tenant)
		if a != b {
			t.Fatalf("tenant %q routed to two shards", tenant)
		}
		spread[a.id] = true
	}
	if len(spread) < 4 {
		t.Errorf("64 tenants landed on only %d of 8 shards", len(spread))
	}
}
