package service

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/detect"
	"repro/internal/raceflag"
	"repro/internal/toolio"
)

// TestBinaryStreamParity is the tentpole's correctness gate: the same
// captured trace replayed through the binary frame encoding must produce
// an advice stream byte-identical to both the NDJSON replay and the
// offline detector.
func TestBinaryStreamParity(t *testing.T) {
	log := syntheticLog()
	_, hs := newTestServer(t, Config{Shards: 2})

	want, err := Replay(log, log.PageSize, detect.Config{}, detect.DefaultPeriodController(), 2)
	if err != nil {
		t.Fatal(err)
	}

	nd := &Client{BaseURL: hs.URL, Tenant: "wire-nd", PageSize: log.PageSize}
	ndRes, err := nd.Replay(log, 2)
	if err != nil {
		t.Fatal(err)
	}
	bin := &Client{BaseURL: hs.URL, Tenant: "wire-bin", PageSize: log.PageSize, Wire: toolio.WireFormatBinary}
	binRes, err := bin.Replay(log, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(binRes.Advice, want) {
		t.Errorf("binary advice diverged from offline replay:\nbinary:  %s\noffline: %s", binRes.Advice, want)
	}
	if !bytes.Equal(binRes.Advice, ndRes.Advice) {
		t.Errorf("binary and NDJSON advice diverged")
	}
	if binRes.Records != ndRes.Records || binRes.Ticks != ndRes.Ticks {
		t.Errorf("binary sent %d records / %d ticks, ndjson %d / %d",
			binRes.Records, binRes.Ticks, ndRes.Records, ndRes.Ticks)
	}
}

// rawStream POSTs body to /v1/stream and returns every response line.
func rawStream(t *testing.T, url, body string) (int, []*toolio.WireMsg) {
	t.Helper()
	resp, err := http.Post(url+"/v1/stream", "application/x-ndjson", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var msgs []*toolio.WireMsg
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), toolio.MaxWireLine)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		m, err := toolio.DecodeWireMsg(sc.Bytes())
		if err != nil {
			t.Fatalf("response line %q: %v", sc.Bytes(), err)
		}
		msgs = append(msgs, m)
	}
	return resp.StatusCode, msgs
}

func helloLine(tenant, wire string) string {
	h := toolio.WireHello{K: toolio.WireHelloKind, Version: toolio.SchemaVersion, Tenant: tenant, PageSize: 4096, Wire: wire}
	return string(toolio.EncodeWire(h))
}

// TestHostileQuadsAnswerWireError pins the wire-boundary truncation fix:
// a quad like tid=2^63 used to be cast straight to a negative int and fed
// into the detector; it must now die at decode with a WireError.
func TestHostileQuadsAnswerWireError(t *testing.T) {
	srv, hs := newTestServer(t, Config{Shards: 1})
	for name, quad := range map[string]string{
		"tid-2^63":     `[9223372036854775808,65536,8,1]`,
		"width-2^63":   `[0,65536,9223372036854775808,1]`,
		"negative-tid": `[18446744073709551615,65536,8,1]`,
		"write-flag-2": `[0,65536,8,2]`,
	} {
		t.Run(name, func(t *testing.T) {
			status, msgs := rawStream(t, hs.URL, helloLine("hostile-"+name, "")+`{"k":"s","s":[`+quad+`]}`+"\n")
			if status != http.StatusOK {
				t.Fatalf("admission status %d, want 200", status)
			}
			if len(msgs) != 1 || msgs[0].K != toolio.WireErrorKind {
				t.Fatalf("hostile quad reply %+v, want one wire error", msgs)
			}
			if msgs[0].RetryMs != 0 {
				t.Errorf("malformed input marked retryable: %+v", msgs[0])
			}
		})
	}
	// Nothing hostile may have reached a detector session.
	if got := srv.Metrics().records.Load(); got != 0 {
		t.Errorf("detector ingested %d records from hostile batches, want 0", got)
	}
}

// TestBinaryStreamEdgeCasesOverHTTP round-trips the malformed-frame table
// through the real HTTP surface: every case must come back as a WireError
// line on a 200 stream (the hello was fine), never a hang or a panic.
func TestBinaryStreamEdgeCasesOverHTTP(t *testing.T) {
	_, hs := newTestServer(t, Config{Shards: 1})

	goodFrame := func() []byte {
		var buf bytes.Buffer
		bw := toolio.NewBinWriter(&buf)
		var cols toolio.SampleColumns
		cols.Append(0, 0x10000, 8, true)
		if err := bw.WriteSamples(&cols); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}()

	for _, tc := range []struct {
		name  string
		body  []byte
		want  string
		clean bool // true: expect a normal end, not an error line
	}{
		{"garbage-after-hello", []byte("not a frame"), "magic", false},
		{"truncated-frame", goodFrame[:len(goodFrame)-2], "truncated", false},
		{"future-frame-version", func() []byte {
			b := append([]byte(nil), goodFrame...)
			b[2] = toolio.WireBinVersion + 1
			return b
		}(), "version", false},
		{"hostile-tid-column", func() []byte {
			b := append([]byte(nil), goodFrame...)
			// Overwrite the single tid column entry with 2^31.
			binary.LittleEndian.PutUint32(b[8+4:], 1<<31)
			return b
		}(), "tid", false},
		{"clean-eof", goodFrame, "", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			body := helloLine("edge-"+tc.name, toolio.WireFormatBinary) + string(tc.body)
			status, msgs := rawStream(t, hs.URL, body)
			if status != http.StatusOK {
				t.Fatalf("admission status %d, want 200", status)
			}
			if tc.clean {
				if len(msgs) != 0 {
					t.Fatalf("clean stream answered %+v", msgs)
				}
				return
			}
			if len(msgs) != 1 || msgs[0].K != toolio.WireErrorKind || !strings.Contains(msgs[0].Error, tc.want) {
				t.Fatalf("reply %+v, want wire error mentioning %q", msgs, tc.want)
			}
		})
	}
}

// TestHostileTickIntervalAnswersWireError pins the tick-validation fix: a
// tick interval of 1e-320 after a false-sharing batch made the line's
// records·period/interval rate +Inf, and encoding that advice panicked the
// stream handler, so the client got no wire error at all. Both encodings
// must now reject the tick at decode with one non-retryable wire error.
func TestHostileTickIntervalAnswersWireError(t *testing.T) {
	srv, hs := newTestServer(t, Config{Shards: 1})
	samples := syntheticLog().WindowSamples(0)
	tick := toolio.WireTick{K: toolio.WireTickKind, Seq: 0, IntervalSec: 1e-320, Period: 100}

	quads := toolio.WireSamples{K: toolio.WireSamplesKind, S: make([][4]uint64, len(samples))}
	for i, sm := range samples {
		quads.S[i] = [4]uint64{uint64(sm.TID), sm.Addr, uint64(sm.Width), 0}
		if sm.Write {
			quads.S[i][3] = 1
		}
	}
	nd := helloLine("hostile-tick-ndjson", "") + string(toolio.EncodeWire(quads)) + string(toolio.EncodeWire(tick))

	var bin bytes.Buffer
	bin.WriteString(helloLine("hostile-tick-binary", toolio.WireFormatBinary))
	bw := toolio.NewBinWriter(&bin)
	var cols toolio.SampleColumns
	packColumns(&cols, samples)
	if err := bw.WriteSamples(&cols); err != nil {
		t.Fatal(err)
	}
	if err := bw.WriteTick(tick); err != nil {
		t.Fatal(err)
	}

	for name, body := range map[string]string{"ndjson": nd, "binary": bin.String()} {
		t.Run(name, func(t *testing.T) {
			status, msgs := rawStream(t, hs.URL, body)
			if status != http.StatusOK {
				t.Fatalf("admission status %d, want 200", status)
			}
			if len(msgs) != 1 || msgs[0].K != toolio.WireErrorKind || !strings.Contains(msgs[0].Error, "interval") {
				t.Fatalf("hostile tick reply %+v, want one wire error about the interval", msgs)
			}
			if msgs[0].RetryMs != 0 {
				t.Errorf("malformed tick marked retryable: %+v", msgs[0])
			}
		})
	}
	if got := srv.Metrics().ticks.Load(); got != 0 {
		t.Errorf("%d hostile ticks reached a detector session, want 0", got)
	}
}

// TestInspectSaturatedShardReturnsZero pins the onShard deadlock fix, the
// path export, install and remove take too: a full queue on a stalled
// shard plus a concurrent Drain used to deadlock (the shard job's send
// blocked on the queue while holding the gate's read lock, Drain blocked
// on the write lock). onShard must now give up after the bounded enqueue
// wait without running the job, so inspect reports the zero sessionInfo.
func TestInspectSaturatedShardReturnsZero(t *testing.T) {
	srv := New(Config{Shards: 1, QueueDepth: 1, EnqueueWait: 30 * time.Millisecond})

	stall := make(chan struct{})
	sh := srv.shards[0]
	sh.jobs <- job{run: func(*shard, time.Time) { <-stall }}
	sh.jobs <- job{run: func(*shard, time.Time) { <-stall }}
	for len(sh.jobs) < 1 {
		time.Sleep(time.Millisecond)
	}

	inspected := make(chan sessionInfo, 1)
	go func() { inspected <- inspect(srv, "wedged-tenant") }()

	drained := make(chan struct{})
	go func() {
		srv.Drain()
		close(drained)
	}()

	select {
	case info := <-inspected:
		if info.Exists {
			t.Errorf("saturated shard reported a session: %+v", info)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("inspect deadlocked against the saturated shard + concurrent drain")
	}

	close(stall)
	select {
	case <-drained:
	case <-time.After(5 * time.Second):
		t.Fatal("Drain never completed after the stall released")
	}
}

// TestDrainClosesPromptlyUnderSaturatedEnqueues pins the enqueue gate fix:
// backpressured enqueues must not hold the gate's read lock across the
// EnqueueWait timer, so a concurrent drain flips the server closed in
// milliseconds — not after the full wait — and the waiting enqueues fail
// fast instead of wedging every other reader behind the pending writer.
func TestDrainClosesPromptlyUnderSaturatedEnqueues(t *testing.T) {
	const wait = 2 * time.Second
	srv := New(Config{Shards: 1, QueueDepth: 1, EnqueueWait: wait})

	stall := make(chan struct{})
	sh := srv.shards[0]
	sh.jobs <- job{run: func(*shard, time.Time) { <-stall }}
	sh.jobs <- job{run: func(*shard, time.Time) { <-stall }}
	for len(sh.jobs) < 1 {
		time.Sleep(time.Millisecond)
	}

	// Saturated enqueues sitting in the backpressure wait.
	results := make(chan bool, 4)
	for i := 0; i < 4; i++ {
		go func() {
			results <- srv.enqueue(sh, job{tenant: "slow", pageSize: 4096, samples: []detect.Sample{{Addr: 0x10000, Width: 8}}})
		}()
	}
	time.Sleep(50 * time.Millisecond)

	drained := make(chan struct{})
	start := time.Now()
	go func() {
		srv.Drain()
		close(drained)
	}()

	// The observable bound: the closed flag must flip well inside the
	// enqueue wait (the old code held read locks across the whole timer,
	// so the drain's write lock — and with it every later reader — queued
	// for up to the full wait).
	for {
		if _, closed := srv.tryEnqueue(sh, job{tenant: "probe"}); closed {
			break
		}
		if time.Since(start) > wait/2 {
			t.Fatalf("server not closed %v after Drain began (EnqueueWait %v)", time.Since(start), wait)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Every waiting enqueue must give up promptly once closed.
	for i := 0; i < 4; i++ {
		select {
		case ok := <-results:
			if ok {
				t.Error("enqueue succeeded on a draining server")
			}
		case <-time.After(wait / 2):
			t.Fatal("saturated enqueue still blocked after the server closed")
		}
	}

	close(stall)
	select {
	case <-drained:
	case <-time.After(5 * time.Second):
		t.Fatal("Drain never completed after the stall released")
	}
}

// TestSmallPageSizeHelloRejected pins the latent shard panic: a hello
// advertising a power-of-two page size below 4096 used to pass validation
// and crash the owning shard in the detector's chunk table on the first
// sample. It must be a 400 now.
func TestSmallPageSizeHelloRejected(t *testing.T) {
	_, hs := newTestServer(t, Config{Shards: 1})
	for _, ps := range []int{1, 64, 2048} {
		h := toolio.WireHello{K: toolio.WireHelloKind, Version: toolio.SchemaVersion, Tenant: "tiny", PageSize: ps}
		body := string(toolio.EncodeWire(h)) + `{"k":"s","s":[[0,65536,8,1]]}` + "\n"
		resp, err := http.Post(hs.URL+"/v1/stream", "application/x-ndjson", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("page_size %d: status %d, want 400", ps, resp.StatusCode)
		}
	}
}

// TestMetricsWireCounters checks the new encoding-labelled wire counters.
func TestMetricsWireCounters(t *testing.T) {
	log := syntheticLog()
	srv, hs := newTestServer(t, Config{Shards: 1})
	if _, err := (&Client{BaseURL: hs.URL, Tenant: "m-nd", PageSize: log.PageSize}).Replay(log, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := (&Client{BaseURL: hs.URL, Tenant: "m-bin", PageSize: log.PageSize, Wire: toolio.WireFormatBinary}).Replay(log, 1); err != nil {
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
	n := uint64(log.Len())
	for _, want := range []string{
		"tmid_wire_streams_total{encoding=\"ndjson\"} 1",
		"tmid_wire_streams_total{encoding=\"binary\"} 1",
		"tmid_wire_records_total{encoding=\"ndjson\"} " + itoa(n),
		"tmid_wire_records_total{encoding=\"binary\"} " + itoa(n),
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics exposition missing %q", want)
		}
	}
	if got := srv.Metrics().wireFrames.Load(); got == 0 {
		t.Error("binary replay decoded 0 frames")
	}
}

func itoa(v uint64) string {
	var b [20]byte
	i := len(b)
	for {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
		if v == 0 {
			return string(b[i:])
		}
	}
}

// TestBinaryIngestSteadyStateDoesNotAllocate is the service-side
// AllocsPerRun gate on the zero-copy ingest path runStream takes for a
// binary stream: frame decode through the stream's WireReader (reader
// buffers), column conversion (recycled per-stream buffers) and the
// shard's recycle-on-consume handoff must all stay off the heap at steady
// state.
func TestBinaryIngestSteadyStateDoesNotAllocate(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("AllocsPerRun is meaningless under -race")
	}
	var enc bytes.Buffer
	bw := toolio.NewBinWriter(&enc)
	var cols toolio.SampleColumns
	for i := 0; i < 1024; i++ {
		cols.Append(uint32(i%4), 0x10000+uint64(i%128)*8, 8, i%2 == 0)
	}
	for i := 0; i < 8; i++ {
		if err := bw.WriteSamples(&cols); err != nil {
			t.Fatal(err)
		}
	}
	frames := enc.Bytes()

	st := &stream{tenant: "alloc", pageSize: 4096, free: make(chan []detect.Sample, recycleDepth)}
	r := bytes.NewReader(frames)
	br := bufio.NewReaderSize(r, 256<<10)
	rd := toolio.NewWireReader(br, toolio.WireFormatBinary, 0)
	ingest := func() {
		r.Reset(frames)
		br.Reset(r)
		for {
			fr, err := rd.Next()
			if err == io.EOF {
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			samples := st.convert(fr.Samples)
			// The shard's half of the handoff: consume and recycle.
			j := job{samples: samples, recycle: st.free}
			j.release()
		}
	}
	ingest() // warm the reader buffers and the free list
	if allocs := testing.AllocsPerRun(100, ingest); allocs > 0 {
		t.Errorf("steady-state binary ingest allocates %.1f times per stream, want 0", allocs)
	}
}
