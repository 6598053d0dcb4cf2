package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"repro/internal/detect"
	"repro/internal/service"
	"repro/internal/sim/trace"
	"repro/internal/toolio"
	"repro/tmi"
	"repro/tmi/workloads"
)

const (
	wireBinary = toolio.WireFormatBinary
	wireNDJSON = toolio.WireFormatNDJSON

	// clients is the number of closed-loop client connections: one per
	// core of the two-core host the benchmark was sized on, so load never
	// outnumbers the cores the server needs.
	clients = 2
	// batchRecords is the samples per wire message, the service client's
	// default.
	batchRecords = service.DefaultBatchRecords
)

// captureTrace records the histogramfs HITM sample stream at sampling
// period 1: the densest trace the simulator produces (~528 records per
// window), so the service workloads are bound by per-record work rather
// than by tick round trips.
func captureTrace(seed int64) (*trace.SampleLog, error) {
	rep, err := tmi.Run(workloads.HistogramFS(workloads.VariantFS), tmi.Config{
		System: tmi.TMIDetect, Period: 1, HugePages: true, Seed: seed, CaptureSamples: true,
	})
	if err != nil {
		return nil, err
	}
	if rep.SampleLog == nil || rep.SampleLog.Len() == 0 || len(rep.SampleLog.Windows) == 0 {
		return nil, fmt.Errorf("histogramfs seed %d captured no samples", seed)
	}
	return rep.SampleLog, nil
}

// streamInput is one tenant's stream, encoded once during set-up so that
// clients only replay bytes and leave the cores to the server.
type streamInput struct {
	wire     string
	pageSize int
	windows  [][]byte // each window's sample messages and closing tick
	records  []int    // sample records per window
	// want is service.Replay's advice for the whole stream: the bytes every
	// tenant's concatenated advice must equal.
	want []byte
}

// newStreamInput encodes the log repeated repeat times, ticks numbered
// across repeats as service.Replay numbers them.
func newStreamInput(log *trace.SampleLog, repeat int, wire string) (*streamInput, error) {
	in := &streamInput{wire: wire, pageSize: log.PageSize}
	var buf bytes.Buffer
	bw := toolio.NewBinWriter(&buf)
	var cols toolio.SampleColumns
	seq := 0
	for r := 0; r < repeat; r++ {
		for i, w := range log.Windows {
			buf.Reset()
			samples := log.WindowSamples(i)
			for lo := 0; lo < len(samples); lo += batchRecords {
				batch := samples[lo:min(lo+batchRecords, len(samples))]
				if wire == wireBinary {
					cols.Reset()
					for _, s := range batch {
						cols.Append(uint32(s.TID), s.Addr, uint16(s.Width), s.Write)
					}
					if err := bw.WriteSamples(&cols); err != nil {
						return nil, err
					}
					continue
				}
				msg := toolio.WireSamples{K: toolio.WireSamplesKind, S: make([][4]uint64, len(batch))}
				for j, s := range batch {
					wr := uint64(0)
					if s.Write {
						wr = 1
					}
					msg.S[j] = [4]uint64{uint64(s.TID), s.Addr, uint64(s.Width), wr}
				}
				buf.Write(toolio.EncodeWire(msg))
			}
			tick := toolio.WireTick{K: toolio.WireTickKind, Seq: seq, IntervalSec: w.IntervalSec, Period: w.Period}
			if wire == wireBinary {
				if err := bw.WriteTick(tick); err != nil {
					return nil, err
				}
			} else {
				buf.Write(toolio.EncodeWire(tick))
			}
			in.windows = append(in.windows, bytes.Clone(buf.Bytes()))
			in.records = append(in.records, len(samples))
			seq++
		}
	}
	want, err := service.Replay(log, log.PageSize, defaultDetect(), detect.DefaultPeriodController(), repeat)
	if err != nil {
		return nil, err
	}
	in.want = want
	return in, nil
}

// defaultDetect is the detector configuration a tmid node runs with when
// its service.Config leaves Detect zero: the parity reference must match it.
func defaultDetect() detect.Config {
	return detect.Config{
		ThresholdPerSec: detect.DefaultConfig().ThresholdPerSec,
		MinRecords:      detect.DefaultConfig().MinRecords,
	}
}

// totalRecords is the sample records in windows [lo, hi).
func (in *streamInput) totalRecords(lo, hi int) int {
	n := 0
	for _, r := range in.records[lo:hi] {
		n += r
	}
	return n
}

// conn is one open /v1/stream exchange.
type conn struct {
	pw   *io.PipeWriter
	resp *http.Response
	br   *bufio.Reader
}

// dial opens a stream for tenant at base and waits for admission.
func dial(hc *http.Client, base, tenant string, in *streamInput) (*conn, error) {
	pr, pw := io.Pipe()
	req, err := http.NewRequest(http.MethodPost, base+"/v1/stream", pr)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	hello := toolio.EncodeWire(toolio.WireHello{
		K: toolio.WireHelloKind, Version: toolio.SchemaVersion,
		Tenant: tenant, PageSize: in.pageSize, Wire: in.wire,
	})
	// The server reads the hello before it answers, and the transport
	// reads the pipe only inside Do, so the hello is written concurrently.
	// The write ends when the transport consumes it or the pipe closes.
	go pw.Write(hello)
	resp, err := hc.Do(req)
	if err != nil {
		pw.CloseWithError(err)
		return nil, fmt.Errorf("stream %s: %w", tenant, err)
	}
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		resp.Body.Close()
		pw.Close()
		return nil, fmt.Errorf("stream %s: %s: %s", tenant, resp.Status, bytes.TrimSpace(body))
	}
	return &conn{pw: pw, resp: resp, br: bufio.NewReaderSize(resp.Body, 256<<10)}, nil
}

// roundTrip sends one window and waits for its advice line: the closed
// loop. The returned line is valid until the next call.
func (c *conn) roundTrip(window []byte) ([]byte, time.Duration, error) {
	t := time.Now()
	if _, err := c.pw.Write(window); err != nil {
		return nil, 0, err
	}
	line, err := c.br.ReadSlice('\n')
	return line, time.Since(t), err
}

// close ends the stream; the session stays resident on the node.
func (c *conn) close() error {
	c.pw.Close()
	defer c.resp.Body.Close()
	n, err := io.Copy(io.Discard, c.resp.Body)
	if err == nil && n > 0 {
		err = fmt.Errorf("%d unexpected bytes after the last advice line", n)
	}
	return err
}

var adviceKind = []byte(`{"k":"` + toolio.WireAdviceKind + `"`)

// client is one closed-loop connection's state across the streams it runs.
type client struct {
	hc         *http.Client
	in         *streamInput
	advice     []byte    // the current tenant's advice so far
	rtt        []float64 // µs per tick
	records    int
	wireErrors int
}

// stream sends windows [lo, hi) of the input as tenant to base over one
// connection, each window only after the previous advice arrived. Each
// round trip is a span named spanName under parent.
func (c *client) stream(base, tenant string, lo, hi int, tr *tracer, parent int, spanName string) error {
	cn, err := dial(c.hc, base, tenant, c.in)
	if err != nil {
		return err
	}
	for i := lo; i < hi; i++ {
		id := tr.begin(spanName, parent, tenant)
		line, d, err := cn.roundTrip(c.in.windows[i])
		tr.end(id)
		if err != nil {
			cn.close()
			return fmt.Errorf("stream %s window %d: %w", tenant, i, err)
		}
		if !bytes.HasPrefix(line, adviceKind) {
			c.wireErrors++
			cn.close()
			return fmt.Errorf("stream %s window %d: %s", tenant, i, bytes.TrimSpace(line))
		}
		c.advice = append(c.advice, line...)
		c.rtt = append(c.rtt, float64(d.Nanoseconds())/1e3)
		c.records += c.in.records[i]
	}
	return cn.close()
}

// httpServer is an in-process HTTP listener on a loopback port.
type httpServer struct {
	URL  string
	hs   *http.Server
	done chan struct{}
}

func serve(h http.Handler) (*httpServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &httpServer{URL: "http://" + ln.Addr().String(), hs: &http.Server{Handler: h}, done: make(chan struct{})}
	go func() {
		defer close(s.done)
		_ = s.hs.Serve(ln) // ErrServerClosed once close runs
	}()
	return s, nil
}

// close severs every connection and waits for the accept loop to end.
func (s *httpServer) close() {
	s.hs.Close()
	<-s.done
}

// scrape fetches a node's /metrics text.
func scrape(hc *http.Client, base string) ([]byte, error) {
	resp, err := hc.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape %s: %s", base, resp.Status)
	}
	return io.ReadAll(resp.Body)
}

// tmidBench streams the trace into one in-process, non-migratable tmid
// node with two shards. Its operation is one tick round trip.
type tmidBench struct {
	seed    int64
	in      *streamInput
	streams int // per client per pass
	hc      *http.Client
}

// Stream shapes. A stream is the trace repeated tmidRepeat times under a
// fresh tenant, so every stream's advice equals one Replay. A pass is
// `streams` streams per client, sized so a pass takes a fraction of a
// second in both encodings and a run holds many passes.
const (
	tmidRepeat        = 4
	tmidStreamsBinary = 16
	tmidStreamsNDJSON = 3
	// warmupStreams per client run during set-up, against a node that is
	// then shut down.
	warmupStreams = 1
)

func newTmidBench(seed int64, wire string) (*tmidBench, error) {
	log, err := captureTrace(seed)
	if err != nil {
		return nil, err
	}
	in, err := newStreamInput(log, tmidRepeat, wire)
	if err != nil {
		return nil, err
	}
	b := &tmidBench{seed: seed, in: in, streams: tmidStreamsBinary, hc: newHTTPClient()}
	if wire == wireNDJSON {
		b.streams = tmidStreamsNDJSON
	}
	// Warm-up: a fixed number of streams against a throwaway node.
	r, err := b.run(nil, -1, warmupStreams)
	if err != nil {
		return nil, err
	}
	if r.failed > 0 {
		return nil, fmt.Errorf("tmid %s warm-up: %d of %d streams failed their advice check", wire, r.failed, r.attempted)
	}
	return b, nil
}

func newHTTPClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients}}
}

func (b *tmidBench) close() { b.hc.CloseIdleConnections() }

func (b *tmidBench) pass(tr *tracer, n int) (*passResult, error) {
	return b.run(tr, n, b.streams)
}

// run starts a fresh node, runs `streams` streams per client and measures
// the node's live heap with every session of the pass still resident.
func (b *tmidBench) run(tr *tracer, n, streams int) (*passResult, error) {
	srv := service.New(service.Config{Shards: 2})
	node, err := serve(srv.Handler())
	if err != nil {
		srv.Drain()
		return nil, err
	}
	defer func() {
		node.close()
		srv.Drain()
		b.hc.CloseIdleConnections()
	}()

	r := &passResult{}
	root := tr.begin("bench.pass", 0, "tmid-"+b.in.wire)
	cls := make([]*client, clients)
	fails := make([]int, clients)
	var wg sync.WaitGroup
	c0, start := cpuNow(), time.Now()
	for ci := range cls {
		cl := &client{hc: b.hc, in: b.in, advice: make([]byte, 0, len(b.in.want))}
		cls[ci] = cl
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			for s := 0; s < streams; s++ {
				tenant := fmt.Sprintf("seed%d-pass%d-client%d-stream%d", b.seed, n, ci, s)
				sid := tr.begin("bench.stream", root, tenant)
				cl.advice = cl.advice[:0]
				err := cl.stream(node.URL, tenant, 0, len(b.in.windows), tr, sid, "service.tick")
				tr.end(sid)
				if err != nil || !bytes.Equal(cl.advice, b.in.want) {
					fails[ci]++
				}
			}
		}(ci)
	}
	wg.Wait()
	r.elapsed, r.cpu = time.Since(start), cpuNow()-c0
	tr.end(root)

	for ci, cl := range cls {
		r.attempted += streams
		r.failed += fails[ci]
		r.work += float64(cl.records)
		r.lat = append(r.lat, cl.rtt...)
		r.wireErrors += cl.wireErrors
	}
	if tr != nil {
		if r.scrape, err = scrape(b.hc, node.URL); err != nil {
			return nil, err
		}
	}
	r.heapMB = heapMB()
	return r, nil
}
