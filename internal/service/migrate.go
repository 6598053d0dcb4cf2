package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"time"

	"repro/internal/detect"
	"repro/internal/toolio"
)

// This file is the session-migration surface of a Migratable tmid node —
// the mechanism the cluster routing tier (internal/cluster) rebalances
// shards with. A window's advice depends only on that window's samples and
// tick (TestAdviceIndependentOfPrefix), so at a tick boundary a session's
// whole migratable state is two counters: the cumulative records it
// ingested and the windows it closed. A tick boundary is therefore the only
// point a session migrates at; a session with samples in its open window
// answers 409 Conflict and stays where it is. The destination restores the
// counters into a fresh session, so a migrated tenant's subsequent advice
// is byte-identical to an uninterrupted run, and a migration costs the same
// whatever the session's age. The wire format is two NDJSON lines, the
// hello (tenant, page size) and the checkpoint
// {"k":"checkpoint","records":R,"windows":W}, then the end of the stream;
// any byte after the checkpoint is an error.
//
// Endpoints:
//
//	GET  /v1/export?tenant=T   stream the tenant's checkpoint
//	POST /v1/import            rebuild and install a session from a stream
//	POST /v1/migrate           {"tenant","target"}: export here, push to
//	                           target's /v1/import, cut this copy over
//
// Migration safety is the caller's cutover discipline plus this file's
// atomicity: export snapshots under the owning shard's turn (never tears
// against ingest), import installs the fully rebuilt session in one turn
// (a racing eviction or ingest sees no session or a whole one, never a
// half-restored one), and the source deletes its copy only after the
// destination acks.

// migrateAck is the import/migrate response body. Records and Windows are
// the session's cumulative counts.
type migrateAck struct {
	Migrated bool   `json:"migrated"`
	Tenant   string `json:"tenant,omitempty"`
	Records  int    `json:"records"`
	Windows  int    `json:"windows"`
}

// migrateRequest is /v1/migrate's request body.
type migrateRequest struct {
	Tenant string `json:"tenant"`
	Target string `json:"target"`
}

// checkpointKind tags the migration stream's checkpoint line.
const checkpointKind = "checkpoint"

// migrateTimeout bounds one outbound /v1/migrate push.
const migrateTimeout = 30 * time.Second

// migrateCheckpoint is the checkpoint line as decoded: pointer fields so a
// missing counter is told apart from a zero one.
type migrateCheckpoint struct {
	K       string `json:"k"`
	Records *int64 `json:"records"`
	Windows *int64 `json:"windows"`
}

// snapshot is one session's migratable state at a tick boundary: records
// counts every sample the session ingested, windows the windows it closed.
type snapshot struct {
	pageSize int
	records  uint64
	windows  int
}

// writeMigrationStream serializes one snapshot: the NDJSON hello, then the
// checkpoint line.
func writeMigrationStream(w io.Writer, tenant string, snap snapshot) error {
	hello := toolio.WireHello{K: toolio.WireHelloKind, Version: toolio.SchemaVersion, Tenant: tenant, PageSize: snap.pageSize}
	if _, err := w.Write(toolio.EncodeWire(hello)); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "{\"k\":%q,\"records\":%d,\"windows\":%d}\n", checkpointKind, snap.records, snap.windows)
	return err
}

// readMigrationStream parses a migration stream back into a snapshot. The
// checkpoint must carry both counters, non-negative, and end the stream: a
// byte after it (say, the open-window sample frames an older node sent)
// is an error, so a session cut part-way into a window is never installed
// without that window.
func readMigrationStream(br *bufio.Reader, maxFrame int) (tenant string, snap snapshot, err error) {
	hello, line, err := toolio.ReadHello(br, maxFrame)
	if err != nil {
		return "", snapshot{}, err
	}
	line, err = toolio.ReadLine(br, line, maxFrame)
	if err != nil {
		return "", snapshot{}, fmt.Errorf("migration stream: missing checkpoint")
	}
	var cp migrateCheckpoint
	if err := json.Unmarshal(line, &cp); err != nil {
		return "", snapshot{}, fmt.Errorf("migration stream: bad checkpoint: %w", err)
	}
	switch {
	case cp.K != checkpointKind:
		return "", snapshot{}, fmt.Errorf("migration stream: second line must be a checkpoint")
	case cp.Records == nil || cp.Windows == nil:
		return "", snapshot{}, fmt.Errorf("migration stream: checkpoint needs records and windows")
	case *cp.Records < 0 || *cp.Windows < 0:
		return "", snapshot{}, fmt.Errorf("migration stream: checkpoint counters must be non-negative")
	}
	if _, err := br.ReadByte(); err != io.EOF {
		return "", snapshot{}, fmt.Errorf("migration stream: the checkpoint must end the stream")
	}
	return hello.Tenant, snapshot{pageSize: hello.PageSize, records: uint64(*cp.Records), windows: int(*cp.Windows)}, nil
}

// rebuildSession restores a snapshot into a fresh session: the counters
// land where the source's last tick left them, and the open window is
// empty, as the source's was.
func rebuildSession(tenant string, snap snapshot, dcfg detect.Config) (*session, error) {
	s, err := newSession(tenant, snap.pageSize, dcfg)
	if err != nil {
		return nil, err
	}
	s.det.TotalRecords, s.seen = snap.records, snap.records
	s.ticks = snap.windows
	return s, nil
}

// exportSnapshot snapshots the tenant's session under its shard's turn, in
// one of three states: no session resident (snap nil, pending 0), a
// session with pending samples in its open window (snap nil), or a session
// at a tick boundary (snap set). ok is false when the export did not run
// (draining, or the turn held past EnqueueWait).
func (s *Server) exportSnapshot(tenant string) (snap *snapshot, pending uint64, ok bool) {
	ok = s.onShard(tenant, func(sh *shard, _ time.Time) {
		sess := sh.sessions[tenant]
		if sess == nil {
			return
		}
		// seen is the detector's record count at the last tick, so the
		// session is at a tick boundary exactly when nothing came since.
		if pending = sess.det.TotalRecords - sess.seen; pending == 0 {
			snap = &snapshot{pageSize: sess.pageSize, records: sess.seen, windows: sess.ticks}
		}
	})
	return snap, pending, ok
}

// refuseOpenWindow answers an export or migrate of a session that is not
// at a tick boundary. The session is untouched: once its window's tick
// arrives, the same request succeeds.
func refuseOpenWindow(w http.ResponseWriter, tenant string, pending uint64) {
	http.Error(w, fmt.Sprintf("tmid: tenant %s has %d samples in its open window; a session migrates only at a tick boundary", tenant, pending), http.StatusConflict)
}

// handleExport streams one tenant's migratable snapshot.
func (s *Server) handleExport(w http.ResponseWriter, r *http.Request) {
	if !s.cfg.Migratable {
		http.Error(w, "tmid: node is not migratable", http.StatusConflict)
		return
	}
	tenant := r.URL.Query().Get("tenant")
	if tenant == "" {
		http.Error(w, "tmid: export needs ?tenant=", http.StatusBadRequest)
		return
	}
	snap, pending, ok := s.exportSnapshot(tenant)
	switch {
	case !ok:
		http.Error(w, "tmid: draining", http.StatusServiceUnavailable)
	case pending > 0:
		refuseOpenWindow(w, tenant, pending)
	case snap == nil:
		http.Error(w, "tmid: no session for tenant "+tenant, http.StatusNotFound)
	default:
		w.Header().Set("Content-Type", "application/x-ndjson")
		writeMigrationStream(w, tenant, *snap)
	}
}

// handleImport rebuilds a session from a migration stream and installs it,
// acking with the session's cumulative record/window counts.
func (s *Server) handleImport(w http.ResponseWriter, r *http.Request) {
	if !s.cfg.Migratable {
		http.Error(w, "tmid: node is not migratable", http.StatusConflict)
		return
	}
	if s.draining.Load() {
		http.Error(w, "tmid: draining", http.StatusServiceUnavailable)
		return
	}
	tenant, snap, err := readMigrationStream(bufio.NewReader(r.Body), s.cfg.MaxFrameBytes)
	if err != nil {
		s.metrics.migrateFailed.Add(1)
		http.Error(w, "tmid: "+err.Error(), http.StatusBadRequest)
		return
	}
	sess, err := rebuildSession(tenant, snap, s.cfg.Detect)
	if err != nil {
		s.metrics.migrateFailed.Add(1)
		http.Error(w, "tmid: "+err.Error(), http.StatusBadRequest)
		return
	}
	// The session was rebuilt off the turn and goes in in this one step, so
	// a concurrent eviction or ingest observes no session or a fully
	// restored one, never a half-rebuilt state.
	installed := s.onShard(tenant, func(sh *shard, now time.Time) {
		sess.lastSeen = now
		if sh.sessions[tenant] == nil {
			s.metrics.sessionsActive.Add(1)
		}
		sh.sessions[tenant] = sess
		s.metrics.migratedIn.Add(1)
	})
	if !installed {
		s.metrics.migrateFailed.Add(1)
		http.Error(w, "tmid: draining", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(migrateAck{Migrated: true, Tenant: tenant, Records: int(snap.records), Windows: snap.windows})
}

// CheckNodeURL reports whether u can name a tmid node: an absolute http(s)
// URL with a host. A migrate target and every router ring member must pass
// it.
func CheckNodeURL(u string) error {
	if p, err := url.Parse(u); err != nil || (p.Scheme != "http" && p.Scheme != "https") || p.Host == "" {
		return fmt.Errorf("%q is not an absolute http(s) URL", u)
	}
	return nil
}

// handleMigrate pushes one tenant's session to a peer node: export here,
// import there, and delete the local copy only once the destination acks.
// A push that fails leaves the local session untouched, so a migration can
// be retried without loss; the caller (the cluster router) owns the other
// half of the safety argument — it stops forwarding the tenant's ingest
// before calling this and resumes against the destination after.
func (s *Server) handleMigrate(w http.ResponseWriter, r *http.Request) {
	if !s.cfg.Migratable {
		http.Error(w, "tmid: node is not migratable", http.StatusConflict)
		return
	}
	if s.draining.Load() {
		// Draining is terminal here: shard turns are closing and a push
		// begun now may not finish. The router's DrainNode is the supported
		// way to move sessions off a node that is going away.
		http.Error(w, "tmid: draining", http.StatusServiceUnavailable)
		return
	}
	var req migrateRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&req); err != nil {
		http.Error(w, "tmid: bad migrate request: "+err.Error(), http.StatusBadRequest)
		return
	}
	if req.Tenant == "" || req.Target == "" {
		http.Error(w, "tmid: migrate needs tenant and target", http.StatusBadRequest)
		return
	}
	if err := CheckNodeURL(req.Target); err != nil {
		http.Error(w, "tmid: migrate target "+err.Error(), http.StatusBadRequest)
		return
	}
	snap, pending, ok := s.exportSnapshot(req.Tenant)
	switch {
	case !ok:
		http.Error(w, "tmid: draining", http.StatusServiceUnavailable)
		return
	case pending > 0:
		refuseOpenWindow(w, req.Tenant, pending)
		return
	case snap == nil:
		// Nothing to move is a clean no-op, not an error: the router calls
		// this for tenants that may never have sent a sample.
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(migrateAck{Migrated: false, Tenant: req.Tenant})
		return
	}

	ack, err := s.pushImport(req.Target, req.Tenant, *snap)
	if err != nil {
		s.metrics.migrateFailed.Add(1)
		http.Error(w, "tmid: migrate push: "+err.Error(), http.StatusBadGateway)
		return
	}
	// Destination acked: cut this copy over. The removal runs under the
	// shard's turn, serialized against any straggling ingest for the tenant.
	s.onShard(req.Tenant, func(sh *shard, _ time.Time) {
		if sh.sessions[req.Tenant] != nil {
			delete(sh.sessions, req.Tenant)
			s.metrics.sessionsActive.Add(-1)
			s.metrics.migratedOut.Add(1)
		}
	})
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(ack)
}

// pushImport posts a snapshot to target's /v1/import and returns its ack.
func (s *Server) pushImport(target, tenant string, snap snapshot) (migrateAck, error) {
	var body bytes.Buffer
	writeMigrationStream(&body, tenant, snap) // a bytes.Buffer write never fails
	hc := &http.Client{Timeout: migrateTimeout}
	resp, err := hc.Post(target+"/v1/import", "application/x-ndjson", &body)
	if err != nil {
		return migrateAck{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return migrateAck{}, fmt.Errorf("target answered %s: %s", resp.Status, body)
	}
	var ack migrateAck
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
		return migrateAck{}, fmt.Errorf("bad import ack: %w", err)
	}
	if ack.Records != int(snap.records) || ack.Windows != snap.windows {
		return migrateAck{}, fmt.Errorf("import ack counts diverged: target restored %d records / %d windows, source checkpointed %d / %d",
			ack.Records, ack.Windows, snap.records, snap.windows)
	}
	return ack, nil
}
