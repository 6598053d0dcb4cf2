package service

import (
	"bufio"
	"encoding/json"
	"errors"
	"io"
	"math/rand/v2"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/detect"
	"repro/internal/toolio"
)

// stream is one admitted /v1/stream exchange: the negotiated session
// parameters plus the sample buffer every samples frame is converted into.
type stream struct {
	tenant   string
	pageSize int
	// samples is reused for every frame: the session has ingested it by
	// the time the shard's turn is released.
	samples []detect.Sample
}

// convert copies one decoded columnar batch into the stream's sample
// buffer, growing it only for a batch larger than any before.
func (st *stream) convert(cols *toolio.SampleColumns) []detect.Sample {
	n := cols.Len()
	if cap(st.samples) < n {
		st.samples = make([]detect.Sample, n)
	}
	st.samples = st.samples[:n]
	unpackColumns(st.samples, cols)
	return st.samples
}

// unpackColumns copies cols into dst, which holds cols.Len() samples. The
// ranges were validated at decode, so this is four column reads and a
// store per record — no allocation, no per-record range branch.
func unpackColumns(dst []detect.Sample, cols *toolio.SampleColumns) {
	for i := range dst {
		dst[i] = detect.Sample{
			TID:   int(cols.TID[i]),
			Addr:  cols.Addr[i],
			Width: int(cols.Width[i]),
			Write: cols.Write[i] != 0,
		}
	}
}

// handleStream serves POST /v1/stream: an NDJSON hello negotiating the
// sample encoding, then sample/tick rounds in that encoding, with one
// NDJSON advice line flushed back per tick. Admission is checked against
// the tenant's shard before any work is done: a shard whose turn has
// QueueDepth operations holding or waiting for it answers 429 with
// Retry-After, so a pile-up of clients is turned away instead of queued.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	br := bufio.NewReaderSize(r.Body, 256<<10)
	if s.draining.Load() {
		Refuse(w, br, "tmid: draining", http.StatusServiceUnavailable)
		return
	}
	hello, _, err := toolio.ReadHello(br, s.cfg.MaxFrameBytes)
	if err != nil {
		Refuse(w, br, "tmid: "+err.Error(), http.StatusBadRequest)
		return
	}
	binary := hello.Wire == toolio.WireFormatBinary

	if s.shardFor(hello.Tenant).saturated() {
		s.metrics.rejected.Add(1)
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds()))
		Refuse(w, br, "tmid: shard saturated, retry later", http.StatusTooManyRequests)
		return
	}

	s.metrics.streamsTotal.Add(1)
	if binary {
		s.metrics.streamsBinary.Add(1)
	} else {
		s.metrics.streamsNDJSON.Add(1)
	}
	s.metrics.streamsOpen.Add(1)
	defer s.metrics.streamsOpen.Add(-1)

	flush := OpenStream(w)
	fail := func(werr toolio.WireError) {
		werr.K = toolio.WireErrorKind
		w.Write(toolio.EncodeWire(werr))
		flush()
	}

	st := &stream{tenant: hello.Tenant, pageSize: hello.PageSize}
	s.runStream(w, toolio.NewWireReader(br, hello.Wire, s.cfg.MaxFrameBytes), binary, st, fail, flush)
	// EOF ends the stream but not the session: the tenant may reconnect and
	// continue until the TTL evicts it. A mid-stream abort (fail already
	// flushed the wire error) still drains to EOF, for the reason Refuse
	// gives.
	io.Copy(io.Discard, br)
}

// Refuse answers a stream request with an HTTP error and then drains its
// body. Returning with unread request body arms net/http's post-handler
// discard, whose EOF can start a background read that races the server's
// next-request peek ("invalid concurrent Body.Read call" panic). A refusal
// therefore answers first, flushed so the client is not left waiting on
// buffered headers, and then consumes the body to EOF in-handler; the
// client closes once it reads the verdict.
func Refuse(w http.ResponseWriter, body io.Reader, msg string, code int) {
	http.Error(w, msg, code)
	if f, ok := w.(http.Flusher); ok {
		f.Flush()
	}
	io.Copy(io.Discard, body)
}

// OpenStream admits a stream request: it answers 200 with an NDJSON body
// and flushes the header, so the client learns it was admitted before its
// first tick round-trips, and returns the flush each advice line needs.
// Advice lines interleave with request-body reads on one HTTP/1.1
// exchange, and without full duplex the server would fail body reads
// after the first write. (Best effort: HTTP/2 and test recorders don't
// need it.)
func OpenStream(w http.ResponseWriter) (flush func()) {
	_ = http.NewResponseController(w).EnableFullDuplex()
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	flush = func() {
		if flusher != nil {
			flusher.Flush()
		}
	}
	flush()
	return flush
}

// runStream consumes the sample/tick messages after the hello, in either
// encoding. The binary path is allocation-free at steady state: frames
// land in the reader's reused buffer, columns are unpacked into its reused
// column slices, and the record copy lands in the stream's reused sample
// buffer, which the session ingests under the shard's turn.
func (s *Server) runStream(w http.ResponseWriter, rd *toolio.WireReader, binary bool, st *stream, fail func(toolio.WireError), flush func()) {
	wireRecords := &s.metrics.wireRecordsNDJSON
	if binary {
		wireRecords = &s.metrics.wireRecordsBinary
	}
	for {
		fr, err := rd.Next()
		if err != nil {
			if !errors.Is(err, io.EOF) {
				fail(toolio.WireError{Error: err.Error()})
			}
			return
		}
		if binary {
			s.metrics.wireFrames.Add(1)
		}
		switch fr.Kind {
		case toolio.WireSamplesKind[0]:
			if fr.Samples.Len() == 0 {
				continue
			}
			wireRecords.Add(uint64(fr.Samples.Len()))
			if werr, ok := s.ingest(st, fr.Samples); !ok {
				fail(werr)
				return
			}
		case toolio.WireTickKind[0]:
			adv, werr, ok := s.advise(st, fr.Tick)
			if !ok {
				fail(werr)
				return
			}
			w.Write(toolio.EncodeWire(adv))
			flush()
		}
	}
}

// ingest feeds one decoded batch into the tenant's open window under its
// shard's turn. A turn not had within EnqueueWait drops the batch, and the
// wire error says so.
func (s *Server) ingest(st *stream, cols *toolio.SampleColumns) (toolio.WireError, bool) {
	samples := st.convert(cols)
	var err error
	ran := s.onShard(st.tenant, func(sh *shard, now time.Time) {
		var sess *session
		if sess, err = sh.session(st.tenant, st.pageSize, now); err != nil {
			return
		}
		sess.lastSeen = now
		sess.feed(samples)
		s.metrics.records.Add(uint64(len(samples)))
	})
	switch {
	case !ran:
		s.metrics.droppedBatches.Add(1)
		s.metrics.droppedRecords.Add(uint64(len(samples)))
		return toolio.WireError{Error: "shard overloaded, batch dropped", RetryMs: 1000}, false
	case err != nil:
		s.metrics.invalidBatches.Add(1)
		return toolio.WireError{Error: err.Error()}, false
	}
	return toolio.WireError{}, true
}

// advise closes the tenant's window with a tick, validated at decode,
// under its shard's turn and returns the advice, timing the wait for the
// turn (the queue-wait histogram) and the analysis apart. A tick still
// waiting for its turn when the server drains gets the retryable wire
// error.
func (s *Server) advise(st *stream, tick toolio.WireTick) (adv toolio.WireAdvice, werr toolio.WireError, ok bool) {
	requested := s.cfg.now()
	var err error
	ran := s.onShard(st.tenant, func(sh *shard, now time.Time) {
		var sess *session
		if sess, err = sh.session(st.tenant, st.pageSize, now); err != nil {
			return
		}
		sess.lastSeen = now
		start := s.cfg.now()
		adv = sess.advise(tick, detect.DefaultPeriodController(), s.cfg.RecommendBackend)
		analyzed := s.cfg.now().Sub(start)
		s.metrics.ticks.Add(1)
		s.metrics.observeAdvice(adv, now.Sub(requested), analyzed)
	})
	switch {
	case !ran:
		s.metrics.droppedBatches.Add(1)
		return adv, toolio.WireError{Error: "shard overloaded, tick dropped", RetryMs: 1000}, false
	case err != nil:
		s.metrics.invalidBatches.Add(1)
		return adv, toolio.WireError{Error: err.Error()}, false
	}
	return adv, toolio.WireError{}, true
}

// retryAfter bounds the jittered 429 Retry-After value in whole seconds.
// Jitter is the thundering-herd fix: when a saturated shard turns a fleet
// of clients away in the same instant, a fixed backoff marches them all
// back in lockstep and the shard saturates again on the echo; spreading
// the retries over [retryAfterMin, retryAfterMax] breaks the resonance.
const (
	retryAfterMin = 1
	retryAfterMax = 3
)

// retryAfterSeconds draws a jittered admission backoff.
func retryAfterSeconds() int {
	return retryAfterMin + rand.IntN(retryAfterMax-retryAfterMin+1)
}

// NodeHealth is /healthz's JSON body: liveness plus the membership
// metadata a cluster router's probe wants (node identity, schema version,
// shard/session geometry), so one probe doubles as discovery.
type NodeHealth struct {
	Status     string `json:"status"`
	Node       string `json:"node"`
	Schema     int    `json:"schema"`
	Shards     int    `json:"shards"`
	Sessions   int64  `json:"sessions"`
	Migratable bool   `json:"migratable,omitempty"`
}

// handleHealthz reports liveness; a draining server answers 503 so load
// balancers stop routing to it while queued work finishes. Probes that
// Accept JSON get the NodeHealth metadata body; everything else keeps the
// historical bare-200 "ok" contract.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	wantJSON := strings.Contains(r.Header.Get("Accept"), "application/json")
	status := http.StatusOK
	statusText := "ok"
	if s.draining.Load() {
		status = http.StatusServiceUnavailable
		statusText = "draining"
	}
	if !wantJSON {
		if status != http.StatusOK {
			http.Error(w, statusText, status)
			return
		}
		w.Write([]byte("ok\n"))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(NodeHealth{
		Status:     statusText,
		Node:       s.cfg.NodeID,
		Schema:     toolio.SchemaVersion,
		Shards:     s.cfg.Shards,
		Sessions:   s.metrics.sessionsActive.Load(),
		Migratable: s.cfg.Migratable,
	})
}

// handleMetrics renders the Prometheus text exposition.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	depths := make([]int, len(s.shards))
	for i, sh := range s.shards {
		depths[i] = sh.depth()
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.metrics.WriteTo(w, depths, s.cfg.QueueDepth, s.draining.Load())
}
