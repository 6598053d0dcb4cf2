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

// recycleDepth is the capacity of a stream's sample-buffer free list. The
// reader owns one buffer while decoding and the shard queue holds at most
// a few of this stream's batches at once, so a small pool is enough to
// make the steady state allocation-free; overflow buffers just fall to the
// garbage collector.
const recycleDepth = 4

// stream is one admitted /v1/stream exchange: the negotiated session
// parameters plus the per-stream sample-buffer free list that the
// zero-copy ingest path recycles batches through.
type stream struct {
	tenant   string
	pageSize int
	sh       *shard
	free     chan []detect.Sample
	reply    chan toolio.WireAdvice
}

// buffer returns a recycled sample buffer of length n (allocating only
// when the free list is empty or too small — warmup, never steady state).
func (st *stream) buffer(n int) []detect.Sample {
	select {
	case b := <-st.free:
		if cap(b) >= n {
			return b[:n]
		}
	default:
	}
	if n < toolio.MaxWireBatch/16 {
		// Round up so one early small batch doesn't pin an undersized
		// buffer in the pool forever.
		return make([]detect.Sample, n, toolio.MaxWireBatch/16)
	}
	return make([]detect.Sample, n)
}

// convert copies one decoded columnar batch into a recycled sample buffer.
func (st *stream) convert(cols *toolio.SampleColumns) []detect.Sample {
	samples := st.buffer(cols.Len())
	unpackColumns(samples, cols)
	return samples
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
// the tenant's shard before any work is queued: a saturated shard answers
// 429 with Retry-After, which keeps the service's memory bounded by
// (shards × queue depth × batch size) no matter how many clients push.
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

	sh := s.shardFor(hello.Tenant)
	if sh.saturated() {
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

	st := &stream{
		tenant:   hello.Tenant,
		pageSize: hello.PageSize,
		sh:       sh,
		free:     make(chan []detect.Sample, recycleDepth),
		reply:    make(chan toolio.WireAdvice, 1),
	}
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
// column slices, and the record copy lands in a recycled per-stream sample
// buffer whose ownership passes to the shard (recycled back on consume).
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
			samples := st.convert(fr.Samples)
			wireRecords.Add(uint64(len(samples)))
			if !s.enqueueSamples(st, samples, fail) {
				return
			}
		case toolio.WireTickKind[0]:
			if !s.handleTick(w, st, fr.Tick, fail, flush) {
				return
			}
		}
	}
}

// enqueueSamples hands one owned sample buffer to the stream's shard,
// reporting backpressure drops on the wire. The shard recycles the buffer
// into st.free once the batch is ingested.
func (s *Server) enqueueSamples(st *stream, samples []detect.Sample, fail func(toolio.WireError)) bool {
	j := job{tenant: st.tenant, pageSize: st.pageSize, samples: samples, recycle: st.free}
	if !s.enqueue(st.sh, j) {
		s.metrics.droppedBatches.Add(1)
		s.metrics.droppedRecords.Add(uint64(len(samples)))
		fail(toolio.WireError{Error: "shard overloaded, batch dropped", RetryMs: 1000})
		return false
	}
	return true
}

// handleTick enqueues one window-closing tick, validated at decode, then
// writes the advice reply back.
func (s *Server) handleTick(w http.ResponseWriter, st *stream, tick toolio.WireTick, fail func(toolio.WireError), flush func()) bool {
	j := job{tenant: st.tenant, pageSize: st.pageSize, tick: &tick, reply: st.reply, enqueued: s.cfg.now()}
	if !s.enqueue(st.sh, j) {
		s.metrics.droppedBatches.Add(1)
		fail(toolio.WireError{Error: "shard overloaded, tick dropped", RetryMs: 1000})
		return false
	}
	adv := <-st.reply
	w.Write(toolio.EncodeWire(adv))
	flush()
	return true
}

// enqueuePoll is how often a backpressured enqueue re-checks the shard
// queue and the drain flag while waiting out EnqueueWait.
const enqueuePoll = time.Millisecond

// enqueue puts a job on the shard's bounded queue, waiting up to the
// configured backpressure wait. false means the queue stayed saturated (or
// the server began draining) and the job was not queued.
//
// The gate read lock is held only across each non-blocking send attempt —
// never across the wait — so a concurrent Drain acquires the write side
// in microseconds instead of queueing behind a full EnqueueWait timer
// (and, RWMutexes being writer-fair, wedging every other reader behind
// it). Saturated enqueues poll; they observe a closed server within one
// poll interval and give up, which is what bounds drain latency.
func (s *Server) enqueue(sh *shard, j job) bool {
	if sent, closed := s.tryEnqueue(sh, j); sent || closed {
		return sent
	}
	deadline := time.NewTimer(s.cfg.EnqueueWait)
	defer deadline.Stop()
	poll := time.NewTicker(enqueuePoll)
	defer poll.Stop()
	for {
		select {
		case <-poll.C:
			if sent, closed := s.tryEnqueue(sh, j); sent || closed {
				return sent
			}
		case <-deadline.C:
			sent, _ := s.tryEnqueue(sh, j)
			return sent
		}
	}
}

// tryEnqueue makes one non-blocking send attempt under a short-held read
// lock. The lock-ordering invariant ("no send on a closed queue") lives
// here: the send happens only after closed is re-checked under the gate.
func (s *Server) tryEnqueue(sh *shard, j job) (sent, closed bool) {
	s.gate.RLock()
	defer s.gate.RUnlock()
	if s.closed {
		return false, true
	}
	select {
	case sh.jobs <- j:
		return true, false
	default:
		return false, false
	}
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
