package service

import (
	"bufio"
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/sim/trace"
	"repro/internal/toolio"
	"repro/tmi"
	"repro/tmi/workloads"
)

// histogramfsTrace captures the period-1 histogramfs trace, ~528 records a
// window: the input the tmid benchmark workloads stream.
func histogramfsTrace(tb testing.TB, hugePages bool) *trace.SampleLog {
	tb.Helper()
	rep, err := tmi.Run(workloads.HistogramFS(workloads.VariantFS), tmi.Config{
		System: tmi.TMIDetect, Period: 1, HugePages: hugePages, Seed: 1, CaptureSamples: true,
	})
	if err != nil {
		tb.Fatal(err)
	}
	log := rep.SampleLog
	if log == nil || len(log.Windows) == 0 || len(log.WindowSamples(0)) == 0 {
		tb.Fatal("histogramfs captured no sample window")
	}
	return log
}

// discardResponse is an http.ResponseWriter (and Flusher) that drops the
// advice it is sent.
type discardResponse struct{ header http.Header }

func (d *discardResponse) Header() http.Header         { return d.header }
func (d *discardResponse) Write(p []byte) (int, error) { return len(p), nil }
func (d *discardResponse) WriteHeader(int)             {}
func (d *discardResponse) Flush()                      {}

// BenchmarkStreamIngest drives handleStream with the whole histogramfs
// trace as one in-memory request body, in each encoding, into a response
// writer that discards the advice: decode, convert, the shard's turn,
// feed, analyze and advice encoding, with no network. One op is one
// stream; ns/record divides the time by the records streamed.
func BenchmarkStreamIngest(b *testing.B) {
	log := histogramfsTrace(b, false)
	for _, wire := range []string{toolio.WireFormatNDJSON, toolio.WireFormatBinary} {
		b.Run(wire, func(b *testing.B) {
			srv := New(Config{Shards: 2})
			defer srv.Drain()
			var buf bytes.Buffer
			cl := &Client{Tenant: "bench-" + wire, PageSize: log.PageSize, Wire: wire}
			if err := cl.encodeStream(bufio.NewWriter(&buf), log, 1, &ReplayResult{}); err != nil {
				b.Fatal(err)
			}
			body := buf.Bytes()
			rd := bytes.NewReader(body)
			req := httptest.NewRequest(http.MethodPost, "/v1/stream", nil)
			req.Body = io.NopCloser(rd)
			w := &discardResponse{header: http.Header{}}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rd.Reset(body)
				srv.handleStream(w, req)
			}
			b.StopTimer()
			if got, want := srv.Metrics().ticks.Load(), uint64(b.N*len(log.Windows)); got != want {
				b.Fatalf("%d ticks advised, want %d", got, want)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*log.Len()), "ns/record")
		})
	}
}
