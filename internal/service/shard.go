package service

import (
	"time"

	"repro/internal/detect"
	"repro/internal/toolio"
)

// job is one unit of shard work. Exactly one of samples / tick / inspect /
// stall is meaningful; the zero fields are ignored.
type job struct {
	tenant   string
	pageSize int
	// samples is a batch of resolved records to ingest. The buffer is
	// owned by the job: once the shard has fed it to the session it sends
	// the emptied buffer back on recycle (when set), which is what keeps
	// the binary ingest path allocation-free at steady state.
	samples []detect.Sample
	recycle chan []detect.Sample
	// tick closes the current window; the advice reply lands on reply
	// (buffered 1, never blocks the shard).
	tick  *toolio.WireTick
	reply chan toolio.WireAdvice
	// inspect asks for a session snapshot (diagnostics and white-box
	// tests); the reply lands on info.
	inspect bool
	info    chan SessionInfo
	// export asks for a migration snapshot of the tenant's session; the
	// reply lands on export.
	export chan exportState
	// install atomically inserts a fully rebuilt session (an import's
	// output) under the tenant key, replacing any resident one; the ack
	// lands on installed.
	install   *session
	installed chan struct{}
	// remove deletes the tenant's session (migration source cutover); the
	// ack reports whether a session was actually resident.
	remove  bool
	removed chan bool
	// stall blocks the shard loop until the channel closes (tests use it to
	// saturate a queue deterministically).
	stall chan struct{}
	// enqueued timestamps admission for the advice-latency histogram, which
	// therefore measures queue wait.
	enqueued time.Time
}

// exportState is one session's migratable snapshot, taken on the owning
// shard goroutine so it can never tear against concurrent ingest. The open
// window is a copy, safe to stream after the job returns.
type exportState struct {
	ok   bool
	snap snapshot
}

// release returns a consumed sample buffer to its stream's free list. The
// send never blocks: a full free list (or a reader that already hung up)
// just lets the buffer fall to the garbage collector.
func (j *job) release() {
	if j.recycle == nil {
		return
	}
	select {
	case j.recycle <- j.samples[:0]:
	default:
	}
}

// SessionInfo is a diagnostic snapshot of one tenant's session. Records
// and Ticks are cumulative over the session's life: a migration carries
// them as checkpoint counters, so they survive a move.
type SessionInfo struct {
	Exists  bool
	Ticks   int
	Records uint64
}

// shard is one detector worker: a bounded job queue consumed by a single
// goroutine that exclusively owns every session hashed onto it.
type shard struct {
	id  int
	srv *Server
	// jobs is the bounded ingest queue; len(jobs) is the queue depth the
	// admission check and /metrics report.
	jobs     chan job
	sessions map[string]*session
	lastScan time.Time
}

func newShard(id int, srv *Server) *shard {
	return &shard{
		id:       id,
		srv:      srv,
		jobs:     make(chan job, srv.cfg.QueueDepth),
		sessions: make(map[string]*session),
	}
}

// depth reports the pending-job count (queue gauge).
func (sh *shard) depth() int { return len(sh.jobs) }

// saturated reports whether the queue has no admission headroom left: new
// streams are rejected at this point so established ones keep their
// backpressure budget.
func (sh *shard) saturated() bool { return len(sh.jobs) >= cap(sh.jobs) }

// loop is the shard worker: it drains the job queue until the server
// closes it, then exits (graceful drain processes everything queued).
func (sh *shard) loop() {
	defer sh.srv.wg.Done()
	m := sh.srv.metrics
	for j := range sh.jobs {
		now := sh.srv.cfg.now()
		sh.maybeEvict(now)
		switch {
		case j.stall != nil:
			<-j.stall
		case j.inspect:
			j.info <- sh.inspectSession(j.tenant)
		case j.export != nil:
			j.export <- sh.exportSession(j.tenant)
		case j.install != nil:
			sh.installSession(j.install, now)
			close(j.installed)
		case j.remove:
			j.removed <- sh.removeSession(j.tenant)
		case j.samples != nil:
			s, err := sh.session(j.tenant, j.pageSize, now)
			if err != nil {
				m.invalidBatches.Add(1)
				j.release()
				continue
			}
			s.lastSeen = now
			s.feed(j.samples)
			m.records.Add(uint64(len(j.samples)))
			j.release()
		case j.tick != nil:
			s, err := sh.session(j.tenant, j.pageSize, now)
			if err != nil {
				m.invalidBatches.Add(1)
				continue
			}
			s.lastSeen = now
			start := sh.srv.cfg.now()
			adv := s.advise(*j.tick, sh.srv.cfg.Periods, sh.srv.cfg.RecommendBackend)
			analyzed := sh.srv.cfg.now().Sub(start)
			m.ticks.Add(1)
			m.observeAdvice(adv, now.Sub(j.enqueued), analyzed)
			j.reply <- adv
		}
	}
}

// session returns the tenant's session, creating it on first sight — which
// is also what a record arriving after TTL eviction gets: a fresh session
// with an empty window.
func (sh *shard) session(tenant string, pageSize int, now time.Time) (*session, error) {
	if s := sh.sessions[tenant]; s != nil {
		return s, nil
	}
	s, err := newSession(tenant, pageSize, sh.srv.cfg.Detect)
	if err != nil {
		return nil, err
	}
	s.capture = sh.srv.cfg.Migratable
	s.lastSeen = now
	sh.sessions[tenant] = s
	sh.srv.metrics.sessionsActive.Add(1)
	return s, nil
}

// exportSession snapshots the tenant's session: its checkpoint counters
// and a copy of its open window. Running on the shard goroutine, it
// observes every ingested batch applied and none half-applied; the copy
// means the HTTP handler can stream it out while the session keeps
// ingesting.
func (sh *shard) exportSession(tenant string) exportState {
	s := sh.sessions[tenant]
	if s == nil || !s.capture {
		return exportState{}
	}
	return exportState{ok: true, snap: snapshot{
		pageSize: s.pageSize,
		records:  s.det.TotalRecords,
		windows:  s.ticks,
		open:     append([]detect.Sample(nil), s.open...),
	}}
}

// installSession inserts a rebuilt session under its tenant key. Import
// rebuilds the session off-shard and installs it in this single step, so a
// concurrently evicting or ingesting shard can only ever observe no session
// or a fully restored one — never a half-rebuilt state.
func (sh *shard) installSession(s *session, now time.Time) {
	s.lastSeen = now
	if sh.sessions[s.tenant] == nil {
		sh.srv.metrics.sessionsActive.Add(1)
	}
	sh.sessions[s.tenant] = s
	sh.srv.metrics.migratedIn.Add(1)
}

// removeSession deletes the tenant's session (the migration source's
// cutover step: the destination has acked, this copy is now stale).
func (sh *shard) removeSession(tenant string) bool {
	if sh.sessions[tenant] == nil {
		return false
	}
	delete(sh.sessions, tenant)
	sh.srv.metrics.sessionsActive.Add(-1)
	sh.srv.metrics.migratedOut.Add(1)
	return true
}

// maybeEvict drops sessions idle past the TTL. The scan itself runs at most
// every TTL/4 so a busy shard is not walking its session map per batch.
func (sh *shard) maybeEvict(now time.Time) {
	ttl := sh.srv.cfg.SessionTTL
	if now.Sub(sh.lastScan) < ttl/4 {
		return
	}
	sh.lastScan = now
	for tenant, s := range sh.sessions {
		if now.Sub(s.lastSeen) >= ttl {
			// Deleting the session releases its detector's window table in
			// one step: nothing else holds a reference, and a returning
			// tenant starts a fresh session.
			delete(sh.sessions, tenant)
			sh.srv.metrics.sessionsActive.Add(-1)
			sh.srv.metrics.sessionsEvicted.Add(1)
		}
	}
}

func (sh *shard) inspectSession(tenant string) SessionInfo {
	s := sh.sessions[tenant]
	if s == nil {
		return SessionInfo{}
	}
	return SessionInfo{Exists: true, Ticks: s.ticks, Records: s.det.TotalRecords}
}

// Inspect returns a coherent snapshot of a tenant's session by routing the
// query through the owning shard's queue (so it can never race ingest). It
// takes the same bounded-wait enqueue path as ingest: against a saturated
// or stalled shard the query gives up after EnqueueWait and reports the
// zero SessionInfo instead of blocking forever on the full queue (which,
// performed under the gate's read lock as it once was, deadlocked against
// a concurrent drain's write lock). A drained server likewise reports the
// zero SessionInfo.
func (s *Server) Inspect(tenant string) SessionInfo {
	info := make(chan SessionInfo, 1)
	if !s.enqueue(s.shardFor(tenant), job{tenant: tenant, inspect: true, info: info}) {
		return SessionInfo{}
	}
	return <-info
}
