package service

import (
	"time"

	"repro/internal/detect"
	"repro/internal/toolio"
)

// job is one unit of shard work: a batch of samples for the tenant's open
// window, a tick that closes it, or a control closure (run) that needs the
// shard's exclusive ownership of its sessions. The zero fields are ignored.
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
	// run executes on the shard goroutine (see Server.onShard); done, when
	// set, is closed once it returns.
	run  func(sh *shard, now time.Time)
	done chan struct{}
	// enqueued timestamps admission for the advice-latency histogram, which
	// therefore measures queue wait.
	enqueued time.Time
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
		case j.run != nil:
			j.run(sh, now)
			if j.done != nil {
				close(j.done)
			}
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
			adv := s.advise(*j.tick, detect.DefaultPeriodController(), sh.srv.cfg.RecommendBackend)
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

// onShard runs fn on the tenant's shard goroutine and waits for it to
// return: fn sees every ingested batch applied and none half-applied, and
// may read or replace the shard's sessions. It takes the same bounded-wait
// enqueue as ingest, so against a saturated or stalled shard it gives up
// after EnqueueWait instead of blocking forever on the full queue (which,
// performed under the gate's read lock as it once was, deadlocked against
// a concurrent drain's write lock). false means fn did not run: the shard
// stayed saturated or the server is draining.
func (s *Server) onShard(tenant string, fn func(sh *shard, now time.Time)) bool {
	done := make(chan struct{})
	if !s.enqueue(s.shardFor(tenant), job{tenant: tenant, run: fn, done: done}) {
		return false
	}
	<-done
	return true
}
