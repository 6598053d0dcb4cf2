package service

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"slices"

	"repro/internal/detect"
	"repro/internal/toolio"
)

// This file is the session-migration surface of a Migratable tmid node —
// the mechanism the cluster routing tier (internal/cluster) rebalances
// shards with. A window's advice depends only on that window's samples and
// tick (TestAdviceIndependentOfPrefix), so a session's migratable state is
// a checkpoint, not its history: the cumulative record and closed-window
// counters plus the open window's samples. The destination restores the
// counters and feeds the open window through the same session code path
// every shard and the offline Replay use, so a migrated tenant's
// subsequent advice is byte-identical to an uninterrupted run, and a
// migration costs one window whatever the session's age. The wire format
// reuses the binary columnar codec: an NDJSON hello line (tenant, page
// size), one NDJSON checkpoint line, then sample frames for the open
// window. A tick frame in a migration stream is an error.
//
// Endpoints:
//
//	GET  /v1/export?tenant=T   stream the tenant's checkpoint
//	POST /v1/import            rebuild and install a session from a stream
//	POST /v1/migrate           {"tenant","target"}: export here, push to
//	                           target's /v1/import, cut this copy over
//
// Migration safety is the caller's cutover discipline plus this file's
// atomicity: export snapshots on the owning shard goroutine (never tears
// against ingest), import installs the fully rebuilt session in one shard
// job (a racing eviction or ingest sees no session or a whole one, never a
// half-restored one), and the source deletes its copy only after the
// destination acks.

// migrateAck is the import/migrate response body. Records and Windows are
// the session's cumulative counts, not what the stream carried.
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

// migrateCheckpoint is the checkpoint line as decoded: pointer fields so a
// missing counter is told apart from a zero one.
type migrateCheckpoint struct {
	K       string `json:"k"`
	Records *int64 `json:"records"`
	Windows *int64 `json:"windows"`
}

// snapshot is one session's migratable state.
type snapshot struct {
	pageSize int
	// records counts every sample the session ingested, the open window's
	// included; windows counts the windows it closed.
	records uint64
	windows int
	open    []detect.Sample
}

// writeMigrationStream serializes one snapshot: the NDJSON hello, the
// checkpoint line, then the open window as binary columnar frames.
func writeMigrationStream(w io.Writer, tenant string, snap snapshot) error {
	hello := toolio.WireHello{
		K: toolio.WireHelloKind, Version: toolio.SchemaVersion,
		Tenant: tenant, PageSize: snap.pageSize, Wire: toolio.WireFormatBinary,
	}
	if _, err := w.Write(toolio.EncodeWire(hello)); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "{\"k\":%q,\"records\":%d,\"windows\":%d}\n", checkpointKind, snap.records, snap.windows); err != nil {
		return err
	}
	bw := toolio.NewBinWriter(w)
	var cols toolio.SampleColumns
	for lo := 0; lo < len(snap.open); lo += toolio.MaxWireBatch {
		packColumns(&cols, snap.open[lo:min(lo+toolio.MaxWireBatch, len(snap.open))])
		if err := bw.WriteSamples(&cols); err != nil {
			return err
		}
	}
	return nil
}

// readMigrationStream parses a migration stream back into a snapshot.
// maxRecords caps the open window (a runaway stream gets an error, not a
// node OOM); frame-level validation (column ranges, batch caps) is the
// binary codec's. The checkpoint must carry both counters, non-negative,
// and records must cover the open window: the restored session subtracts
// the one from the other.
func readMigrationStream(br *bufio.Reader, maxFrame, maxRecords int) (tenant string, snap snapshot, err error) {
	line, err := toolio.ReadLine(br, nil, maxFrame)
	if err != nil {
		return "", snapshot{}, fmt.Errorf("migration stream: missing hello")
	}
	hello, err := toolio.DecodeWireMsg(line)
	if err != nil {
		return "", snapshot{}, err
	}
	if err := toolio.CheckHello(hello); err != nil {
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
	snap = snapshot{pageSize: hello.PageSize, records: uint64(*cp.Records), windows: int(*cp.Windows)}
	if snap.pageSize == 0 {
		snap.pageSize = 4096
	}
	rd := toolio.NewBinReader(br)
	rd.MaxPayload = maxFrame
	for {
		fr, err := rd.ReadFrame()
		if err == io.EOF {
			break
		}
		if err != nil {
			return "", snapshot{}, err
		}
		if fr.Kind != toolio.WireSamplesKind[0] {
			return "", snapshot{}, fmt.Errorf("migration stream: only the open window's sample frames may follow the checkpoint")
		}
		n, k := len(snap.open), fr.Samples.Len()
		if n+k > maxRecords {
			return "", snapshot{}, fmt.Errorf("migration stream exceeds %d open-window records", maxRecords)
		}
		snap.open = slices.Grow(snap.open, k)[:n+k]
		unpackColumns(snap.open[n:], fr.Samples)
	}
	if snap.records < uint64(len(snap.open)) {
		return "", snapshot{}, fmt.Errorf("migration stream: checkpoint records %d do not cover the %d open-window samples", snap.records, len(snap.open))
	}
	return hello.Tenant, snap, nil
}

// rebuildSession restores a snapshot into a fresh session: the counters
// land where the source's last tick left them, then the open window is fed
// through the same path a shard runs, leaving the detector's window state
// exactly the source's. The open window is attached for capture only after
// the feed, so feeding does not double-append into it.
func rebuildSession(tenant string, snap snapshot, dcfg detect.Config) (*session, error) {
	s, err := newSession(tenant, snap.pageSize, dcfg)
	if err != nil {
		return nil, err
	}
	closed := snap.records - uint64(len(snap.open))
	s.det.TotalRecords = closed
	s.seen = closed
	s.ticks = snap.windows
	s.feed(snap.open)
	s.capture, s.open = true, snap.open
	return s, nil
}

// exportSnapshot fetches the tenant's snapshot through the owning shard.
func (s *Server) exportSnapshot(tenant string) (exportState, bool) {
	ch := make(chan exportState, 1)
	if !s.enqueue(s.shardFor(tenant), job{tenant: tenant, export: ch}) {
		return exportState{}, false
	}
	return <-ch, true
}

// handleExport streams one tenant's migratable snapshot.
func (s *Server) handleExport(w http.ResponseWriter, r *http.Request) {
	if !s.cfg.Migratable {
		http.Error(w, "tmid: node is not migratable (capture off)", http.StatusConflict)
		return
	}
	tenant := r.URL.Query().Get("tenant")
	if tenant == "" {
		http.Error(w, "tmid: export needs ?tenant=", http.StatusBadRequest)
		return
	}
	st, ok := s.exportSnapshot(tenant)
	if !ok {
		http.Error(w, "tmid: draining", http.StatusServiceUnavailable)
		return
	}
	if !st.ok {
		http.Error(w, "tmid: no session for tenant "+tenant, http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	writeMigrationStream(w, tenant, st.snap)
}

// handleImport rebuilds a session from a migration stream and installs it,
// acking with the session's cumulative record/window counts.
func (s *Server) handleImport(w http.ResponseWriter, r *http.Request) {
	if !s.cfg.Migratable {
		http.Error(w, "tmid: node is not migratable (capture off)", http.StatusConflict)
		return
	}
	if s.draining.Load() {
		http.Error(w, "tmid: draining", http.StatusServiceUnavailable)
		return
	}
	br := bufio.NewReaderSize(r.Body, 256<<10)
	tenant, snap, err := readMigrationStream(br, s.cfg.MaxFrameBytes, s.cfg.MaxMigrateRecords)
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
	installed := make(chan struct{})
	if !s.enqueue(s.shardFor(tenant), job{tenant: tenant, install: sess, installed: installed}) {
		s.metrics.migrateFailed.Add(1)
		http.Error(w, "tmid: draining", http.StatusServiceUnavailable)
		return
	}
	<-installed
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(migrateAck{Migrated: true, Tenant: tenant, Records: int(snap.records), Windows: snap.windows})
}

// handleMigrate pushes one tenant's session to a peer node: export here,
// import there, and delete the local copy only once the destination acks.
// A push that fails leaves the local session untouched, so a migration can
// be retried without loss; the caller (the cluster router) owns the other
// half of the safety argument — it stops forwarding the tenant's ingest
// before calling this and resumes against the destination after.
func (s *Server) handleMigrate(w http.ResponseWriter, r *http.Request) {
	if !s.cfg.Migratable {
		http.Error(w, "tmid: node is not migratable (capture off)", http.StatusConflict)
		return
	}
	if s.draining.Load() {
		// Draining is terminal here: shard queues are closing and a push
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
	if _, err := url.Parse(req.Target); err != nil {
		http.Error(w, "tmid: bad target: "+err.Error(), http.StatusBadRequest)
		return
	}
	st, ok := s.exportSnapshot(req.Tenant)
	if !ok {
		http.Error(w, "tmid: draining", http.StatusServiceUnavailable)
		return
	}
	if !st.ok {
		// Nothing to move is a clean no-op, not an error: the router calls
		// this for tenants that may never have sent a sample.
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(migrateAck{Migrated: false, Tenant: req.Tenant})
		return
	}

	ack, err := s.pushImport(req.Target, req.Tenant, st.snap)
	if err != nil {
		s.metrics.migrateFailed.Add(1)
		http.Error(w, "tmid: migrate push: "+err.Error(), http.StatusBadGateway)
		return
	}
	// Destination acked: cut this copy over. The removal runs on the owning
	// shard, serialized against any straggling ingest for the tenant.
	removed := make(chan bool, 1)
	if s.enqueue(s.shardFor(req.Tenant), job{tenant: req.Tenant, remove: true, removed: removed}) {
		<-removed
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(ack)
}

// pushImport streams a snapshot to target's /v1/import and returns its ack.
func (s *Server) pushImport(target, tenant string, snap snapshot) (migrateAck, error) {
	pr, pw := io.Pipe()
	go func() {
		bw := bufio.NewWriterSize(pw, 256<<10)
		err := writeMigrationStream(bw, tenant, snap)
		if err == nil {
			err = bw.Flush()
		}
		pw.CloseWithError(err)
	}()
	req, err := http.NewRequest(http.MethodPost, target+"/v1/import", pr)
	if err != nil {
		return migrateAck{}, err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	hc := &http.Client{Timeout: s.cfg.MigrateTimeout}
	resp, err := hc.Do(req)
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
