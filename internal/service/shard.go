package service

import (
	"sync/atomic"
	"time"
)

// shard is one slice of the tenant space: the sessions hashed onto it and
// the turn that serializes every read and write of them. Whoever holds the
// turn (a stream handler feeding or advising, or a control operation such
// as an export) owns the sessions outright until it releases the turn, so
// a session is never touched by two goroutines at once and shards never
// contend with each other.
type shard struct {
	id  int
	srv *Server
	// turn holds one token while an operation runs on the sessions.
	turn chan struct{}
	// queued counts the operations holding or waiting for the turn: the
	// queue depth the admission check and /metrics report.
	queued   atomic.Int64
	sessions map[string]*session
	lastScan time.Time
}

func newShard(id int, srv *Server) *shard {
	return &shard{
		id:       id,
		srv:      srv,
		turn:     make(chan struct{}, 1),
		sessions: make(map[string]*session),
	}
}

// depth reports the operations holding or waiting for the turn (queue
// gauge).
func (sh *shard) depth() int { return int(sh.queued.Load()) }

// saturated reports whether the shard has no admission headroom left: new
// streams are rejected at this point so established ones keep their
// backpressure budget.
func (sh *shard) saturated() bool { return sh.depth() >= sh.srv.cfg.QueueDepth }

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

// onShard runs fn holding the tenant's shard turn: fn sees every ingested
// batch applied and none half-applied, and may read or replace the shard's
// sessions. A free turn is taken at once; a held one is waited for up to
// EnqueueWait, and a drain ends every wait at once. false means fn did not
// run: the turn stayed held past the wait or the server is draining. fn
// must not block on the network. The uncontended path allocates nothing: a
// timer is made only when the turn is held.
func (s *Server) onShard(tenant string, fn func(sh *shard, now time.Time)) bool {
	// The gate orders this call against Drain: either it is counted in
	// inflight before Drain closes the server, and Drain waits for it, or
	// it sees closed and runs nothing.
	s.gate.RLock()
	if s.closed {
		s.gate.RUnlock()
		return false
	}
	s.inflight.Add(1)
	s.gate.RUnlock()
	defer s.inflight.Done()

	sh := s.shardFor(tenant)
	sh.queued.Add(1)
	defer sh.queued.Add(-1)
	select {
	case sh.turn <- struct{}{}:
	default:
		wait := time.NewTimer(s.cfg.EnqueueWait)
		select {
		case sh.turn <- struct{}{}:
			wait.Stop()
		case <-wait.C:
			return false
		case <-s.quit:
			wait.Stop()
			return false
		}
	}
	now := s.cfg.now()
	sh.maybeEvict(now)
	fn(sh, now)
	<-sh.turn
	return true
}
