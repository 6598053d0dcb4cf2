// Package service implements tmid: a long-running, multi-tenant false
// sharing detection-and-repair-advice service over the reproduction's
// detector (PAPER §3.1).
//
// The offline pipeline — PEBS records in, sliding-window classification
// out, sampling period tuned online — is fundamentally a stream consumer,
// and this package runs it as one. Clients stream NDJSON-framed resolved
// HITM samples (internal/toolio wire schema) over HTTP; each tenant
// (process/run identity) is hash-routed to one of N detector shards — a
// worker goroutine that owns its sessions' detect.Detector state outright,
// so the hot ingest path takes no locks and shards never contend with each
// other. Per tick the service streams back repair advice (page →
// isolate/twin decisions, the offline detect.Request) plus the adaptive
// sampling-period feedback value of the paper's PEBS period controller.
//
// Production shape: per-shard ingest queues are bounded with explicit
// drop/backpressure accounting (saturated shards reject new streams with
// 429 + Retry-After), idle tenant sessions are TTL-evicted to release their
// window state, SIGTERM drains the shards before exit, and /healthz
// plus a Prometheus-text /metrics endpoint expose queue depths, ingest
// rates, classification counts, advice latency and drop totals.
//
// The load-bearing guarantee is offline/online parity: a tenant's advice
// stream is byte-identical to what the offline detector (tmidetect -advice,
// or Replay in this package) computes over the same sample trace. Sessions
// and the offline replay share one code path (session.advise), so the
// service adds transport, sharding and lifecycle — never a different
// verdict.
package service

import (
	"fmt"
	"hash/fnv"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/detect"
	"repro/internal/toolio"
)

// Config tunes a Server. The zero value is usable: every field has a
// production default.
type Config struct {
	// Shards is the number of detector worker goroutines (default 4).
	// Tenants are FNV-hashed onto shards; each shard owns its sessions
	// exclusively, so shards scale ingest without any cross-shard locking.
	Shards int
	// QueueDepth bounds each shard's pending-job queue (default 256). A
	// full queue rejects new streams (429 + Retry-After) and backpressures
	// established ones instead of growing memory without bound.
	QueueDepth int
	// EnqueueWait is how long an established stream blocks on a full shard
	// queue before the batch is dropped and the stream aborted with a
	// retryable wire error (default 5s).
	EnqueueWait time.Duration
	// MaxFrameBytes bounds one wire unit from a client — an NDJSON line or
	// a binary frame payload (default toolio.MaxWireLine). It caps the
	// per-connection decode buffer, so it is the operator's memory knob
	// for hostile or misconfigured producers.
	MaxFrameBytes int
	// SessionTTL evicts a tenant idle for this long, releasing its detector
	// (default 60s).
	SessionTTL time.Duration
	// Detect configures every session's detector. Zero fields take
	// detect.DefaultConfig values — the offline tools' operating point,
	// which offline/online parity depends on.
	Detect detect.Config
	// RecommendBackend is the repair-backend recommendation policy stamped
	// into advice that carries pages: "" or "none" (off — the wire field is
	// omitted and advice bytes are schema-v1 identical), "auto" (per-advice
	// heuristic over the flagged lines), or a fixed backend name. See
	// detect.RecommendBackend. The recommendation is additive: it never
	// changes any other advice field.
	RecommendBackend string
	// Migratable turns on per-session capture of the open window: every
	// session keeps the samples it accepted since its last tick, so it can
	// be exported through /v1/export and moved to another node by
	// /v1/migrate as a checkpoint (cumulative counters plus the open
	// window). The destination restores byte-identical window state through
	// the same feed/advise path (the cluster tier's live-rebalancing
	// substrate, DESIGN §17). Capture costs one window of samples per
	// session, whatever the session's age.
	Migratable bool
	// NodeID names this node in /healthz membership metadata (the cluster
	// router's health probe doubles as discovery). Empty means "tmid".
	NodeID string

	// now is the clock seam (tests inject a fake for TTL eviction).
	now func() time.Time
}

func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = 4
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.EnqueueWait <= 0 {
		c.EnqueueWait = 5 * time.Second
	}
	if c.MaxFrameBytes <= 0 {
		c.MaxFrameBytes = toolio.MaxWireLine
	}
	if c.SessionTTL <= 0 {
		c.SessionTTL = 60 * time.Second
	}
	if c.Detect.ThresholdPerSec <= 0 {
		c.Detect.ThresholdPerSec = detect.DefaultConfig().ThresholdPerSec
	}
	if c.Detect.MinRecords <= 0 {
		c.Detect.MinRecords = detect.DefaultConfig().MinRecords
	}
	if c.NodeID == "" {
		c.NodeID = "tmid"
	}
	if c.now == nil {
		c.now = time.Now
	}
	return c
}

// Server is the tmid service: shards, metrics, lifecycle.
type Server struct {
	cfg      Config
	shards   []*shard
	metrics  *Metrics
	draining atomic.Bool
	wg       sync.WaitGroup

	// gate serializes enqueues against shard-queue closure: Drain takes the
	// write side once, so no handler can ever send on a closed queue.
	gate   sync.RWMutex
	closed bool
}

// New builds a server and starts its shard workers.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{cfg: cfg, metrics: newMetrics(cfg.now)}
	for i := 0; i < cfg.Shards; i++ {
		sh := newShard(i, s)
		s.shards = append(s.shards, sh)
		s.wg.Add(1)
		go sh.loop()
	}
	return s
}

// shardFor routes a tenant to its shard (stable FNV-1a hash).
func (s *Server) shardFor(tenant string) *shard {
	h := fnv.New32a()
	h.Write([]byte(tenant))
	return s.shards[h.Sum32()%uint32(len(s.shards))]
}

// Draining reports whether the server has begun shutting down.
func (s *Server) Draining() bool { return s.draining.Load() }

// Metrics exposes the server's metric registry (the /metrics handler and
// tests read it).
func (s *Server) Metrics() *Metrics { return s.metrics }

// BeginDrain flips the server into draining mode: /healthz answers 503 and
// new streams are refused, while established streams and queued work keep
// flowing. Call it before shutting the HTTP layer down so load balancers
// and retry loops move on immediately.
func (s *Server) BeginDrain() { s.draining.Store(true) }

// Drain stops admitting new streams, closes the shard queues and waits for
// every queued job to finish. Streams still connected see their enqueues
// refused (a retryable wire error), never a send on a closed queue. Safe to
// call multiple times.
func (s *Server) Drain() {
	s.draining.Store(true)
	s.gate.Lock()
	if !s.closed {
		s.closed = true
		for _, sh := range s.shards {
			// A closed queue still hands its buffered jobs to the shard
			// loop, so ticks already admitted get their advice replies.
			close(sh.jobs)
		}
	}
	s.gate.Unlock()
	s.wg.Wait()
}

// Handler returns the service's HTTP surface: POST /v1/stream, GET
// /healthz, GET /metrics, plus the migration endpoints (GET /v1/export,
// POST /v1/import, POST /v1/migrate) when the server is Migratable.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/stream", s.handleStream)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /v1/export", s.handleExport)
	mux.HandleFunc("POST /v1/import", s.handleImport)
	mux.HandleFunc("POST /v1/migrate", s.handleMigrate)
	return mux
}

// session is one tenant's detection state: a detector with no History, so
// it holds one window's line table and nothing older, plus the bookkeeping
// the adaptive-period feedback and TTL eviction need. A session is owned by
// exactly one shard goroutine.
type session struct {
	tenant   string
	pageSize int
	det      *detect.Detector
	lastSeen time.Time
	seen     uint64 // detector records at the last tick
	ticks    int
	// open captures the samples accepted since the last tick when capture
	// is on (the server is Migratable). With the seen/ticks counters it is
	// the session's whole migratable state: a window's advice depends on
	// that window alone, so feeding open to a fresh session restores this
	// one's detector window exactly. advise truncates it, keeping capacity.
	capture bool
	open    []detect.Sample
}

// newSession builds the per-tenant detector exactly the way the offline
// replay does — same config, no page table, no History — so the two stay
// in lockstep.
// It enforces the wire layer's page-size floor (toolio.CheckHello rejects
// such hellos up front; this guards embedded users).
func newSession(tenant string, pageSize int, dcfg detect.Config) (*session, error) {
	if pageSize < toolio.MinWirePageSize || pageSize&(pageSize-1) != 0 {
		return nil, fmt.Errorf("service: tenant %q page size %d is not a power of two >= %d", tenant, pageSize, toolio.MinWirePageSize)
	}
	return &session{
		tenant:   tenant,
		pageSize: pageSize,
		det:      detect.New(dcfg, nil, nil, nil, nil, pageSize),
	}, nil
}

// feed ingests one batch of resolved samples into the open window.
func (s *session) feed(samples []detect.Sample) {
	for _, sm := range samples {
		s.det.Ingest(sm)
	}
	if s.capture {
		// Capture copies the batch: the caller's buffer is recycled.
		s.open = append(s.open, samples...)
	}
}

// advise closes the window a tick message describes and renders the advice
// reply: repair pages and lines from the detector's request, the window's
// record count, and the adaptive-period feedback. This is the single
// advice-producing code path — shards and the offline replay both end here,
// which is what makes offline/online parity a structural property instead
// of a test hope.
// The backend recommendation (policy != "") is rendered strictly on top of
// the finished advice, so a recommending service and a silent one agree on
// every other byte.
func (s *session) advise(tick toolio.WireTick, periods detect.PeriodController, policy string) toolio.WireAdvice {
	// The tick closes the open window: its samples stop being migratable
	// state.
	s.open = s.open[:0]
	req := s.det.Analyze(tick.IntervalSec, tick.Period)
	window := s.det.TotalRecords - s.seen
	s.seen = s.det.TotalRecords
	s.ticks++
	adv := toolio.WireAdvice{
		K:          toolio.WireAdviceKind,
		Seq:        tick.Seq,
		Records:    window,
		NextPeriod: periods.Next(tick.Period, window),
	}
	if req != nil {
		adv.Pages = req.Pages
		for _, l := range req.Lines {
			adv.Lines = append(adv.Lines, toolio.WireLine{
				Line:         l.Line,
				Class:        l.Class.String(),
				Records:      l.Records,
				EstPerSec:    l.EstEventsPerSec,
				DroppedSpans: l.DroppedSpans,
			})
		}
		if policy != "" {
			adv.Backend = detect.RecommendBackend(policy, s.pageSize, req.Lines)
		}
	}
	return adv
}
