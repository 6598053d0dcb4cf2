package service

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"repro/internal/detect"
	"repro/internal/sim/trace"
	"repro/internal/toolio"
)

// This file is the offline half of the parity story plus the replay client.
// forEachWindow fixes one canonical traversal of a captured sample trace;
// Replay drives a local session through it and the Client drives a remote
// tmid through the very same traversal, so the two advice streams can only
// differ if the service's transport, sharding or session plumbing changed a
// verdict — which is exactly the regression the parity check exists to
// catch.

// forEachWindow walks a captured sample log repeat times, yielding each
// window's samples with a stream-global tick sequence number. Repeats
// continue the sequence (the detector's cumulative state carries across,
// as it would for a long-lived tenant).
func forEachWindow(log *trace.SampleLog, repeat int, fn func(seq int, samples []detect.Sample, w trace.SampleWindow)) {
	seq := 0
	if repeat < 1 {
		repeat = 1
	}
	for r := 0; r < repeat; r++ {
		for i := range log.Windows {
			fn(seq, log.WindowSamples(i), log.Windows[i])
			seq++
		}
	}
}

// Replay runs a captured sample trace through a fresh local session — the
// same code path a tmid shard runs — and returns the canonical advice
// stream bytes. This is what `tmidetect -advice` prints and what tmiload
// compares every client's server-side advice against.
func Replay(log *trace.SampleLog, pageSize int, dcfg detect.Config, periods detect.PeriodController, repeat int) ([]byte, error) {
	return ReplayWithPolicy(log, pageSize, dcfg, periods, repeat, "")
}

// ReplayWithPolicy is Replay under a repair-backend recommendation policy
// (Config.RecommendBackend): the offline truth a recommending tmid must
// match byte-for-byte. An empty policy is plain Replay.
func ReplayWithPolicy(log *trace.SampleLog, pageSize int, dcfg detect.Config, periods detect.PeriodController, repeat int, policy string) ([]byte, error) {
	s, err := newSession("offline", pageSize, dcfg)
	if err != nil {
		return nil, err
	}
	var out bytes.Buffer
	forEachWindow(log, repeat, func(seq int, samples []detect.Sample, w trace.SampleWindow) {
		s.feed(samples)
		adv := s.advise(toolio.WireTick{K: toolio.WireTickKind, Seq: seq, IntervalSec: w.IntervalSec, Period: w.Period}, periods, policy)
		out.Write(toolio.EncodeWire(adv))
	})
	return out.Bytes(), nil
}

// packColumns copies samples into cols for a binary samples frame, reusing
// the columns' capacity.
func packColumns(cols *toolio.SampleColumns, samples []detect.Sample) {
	cols.Grow(len(samples))
	for i, sm := range samples {
		cols.TID[i] = uint32(sm.TID)
		cols.Addr[i] = sm.Addr
		cols.Width[i] = uint16(sm.Width)
		w := uint8(0)
		if sm.Write {
			w = 1
		}
		cols.Write[i] = w
	}
}

// DefaultBatchRecords is the sample-batch size the client packs per wire
// line.
const DefaultBatchRecords = 512

// Client replays captured sample traces against a tmid server.
type Client struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:7412".
	BaseURL string
	// Tenant is the session identity (the sharding key).
	Tenant string
	// PageSize is the trace's page size (hello field; advice pages are
	// aligned to it). 0 means 4096.
	PageSize int
	// BatchRecords caps samples per wire line (0 = DefaultBatchRecords).
	BatchRecords int
	// Wire selects the sample encoding: "" or toolio.WireFormatNDJSON for
	// NDJSON quads, toolio.WireFormatBinary for columnar batch frames.
	// The advice stream back is NDJSON either way, so parity comparisons
	// are encoding-independent. Requests go through http.DefaultClient.
	Wire string
}

// ErrBusy reports a 429 admission rejection with the server's backoff.
type ErrBusy struct{ RetryAfter time.Duration }

func (e *ErrBusy) Error() string {
	return fmt.Sprintf("service: server busy, retry after %s", e.RetryAfter)
}

// ReplayResult summarizes one replayed stream.
type ReplayResult struct {
	// Advice is the concatenated NDJSON advice stream, byte-comparable to
	// Replay's output for the same log and repeat. The response reader
	// appends to it while the writer goroutine is still bumping
	// Records/Ticks below; the pad keeps the two writers off one cache
	// line (found by tmivet's self-scan).
	Advice []byte
	_      [40]byte
	// Records and Ticks count what was sent.
	Records int
	Ticks   int
}

// Replay streams the log (repeated repeat times) to the server as one
// /v1/stream request and collects the advice stream. A 429 rejection
// returns *ErrBusy; a mid-stream wire error returns an error wrapping the
// server's message.
func (c *Client) Replay(log *trace.SampleLog, repeat int) (*ReplayResult, error) {
	pageSize := c.PageSize
	if pageSize == 0 {
		pageSize = 4096
	}
	batch := c.BatchRecords
	if batch <= 0 {
		batch = DefaultBatchRecords
	}
	pr, pw := io.Pipe()
	res := &ReplayResult{}
	// The writer side runs concurrently with response reading: the server
	// replies once per tick, and the client's tick cadence keeps at most a
	// few batches in flight — the HTTP analog of the bounded shard queue.
	writeErr := make(chan error, 1)
	binMode := c.Wire == toolio.WireFormatBinary
	go func() {
		bw := bufio.NewWriterSize(pw, 256<<10)
		werr := func() error {
			hello := toolio.WireHello{K: toolio.WireHelloKind, Version: toolio.SchemaVersion, Tenant: c.Tenant, PageSize: pageSize, Wire: c.Wire}
			if _, err := bw.Write(toolio.EncodeWire(hello)); err != nil {
				return err
			}
			var enc *toolio.BinWriter
			var cols toolio.SampleColumns
			if binMode {
				enc = toolio.NewBinWriter(bw)
			}
			var ferr error
			forEachWindow(log, repeat, func(seq int, samples []detect.Sample, w trace.SampleWindow) {
				if ferr != nil {
					return
				}
				for lo := 0; lo < len(samples); lo += batch {
					hi := lo + batch
					if hi > len(samples) {
						hi = len(samples)
					}
					if binMode {
						packColumns(&cols, samples[lo:hi])
						if err := enc.WriteSamples(&cols); err != nil {
							ferr = err
							return
						}
					} else {
						msg := toolio.WireSamples{K: toolio.WireSamplesKind, S: make([][4]uint64, hi-lo)}
						for i, sm := range samples[lo:hi] {
							wr := uint64(0)
							if sm.Write {
								wr = 1
							}
							msg.S[i] = [4]uint64{uint64(sm.TID), sm.Addr, uint64(sm.Width), wr}
						}
						if _, err := bw.Write(toolio.EncodeWire(msg)); err != nil {
							ferr = err
							return
						}
					}
					res.Records += hi - lo
				}
				tick := toolio.WireTick{K: toolio.WireTickKind, Seq: seq, IntervalSec: w.IntervalSec, Period: w.Period}
				if binMode {
					if err := enc.WriteTick(tick); err != nil {
						ferr = err
						return
					}
				} else if _, err := bw.Write(toolio.EncodeWire(tick)); err != nil {
					ferr = err
					return
				}
				// Flush the tick so the server sees the whole window now: the
				// response side is waiting for this tick's advice line.
				if err := bw.Flush(); err != nil {
					ferr = err
				}
				res.Ticks++
			})
			if ferr != nil {
				return ferr
			}
			return bw.Flush()
		}()
		pw.CloseWithError(werr)
		writeErr <- werr
	}()

	req, err := http.NewRequest(http.MethodPost, c.BaseURL+"/v1/stream", pr)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, fmt.Errorf("service: stream request: %w", err)
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusTooManyRequests:
		retry := time.Second
		if v := resp.Header.Get("Retry-After"); v != "" {
			if secs, err := strconv.Atoi(v); err == nil && secs >= 0 {
				retry = time.Duration(secs) * time.Second
			}
		}
		io.Copy(io.Discard, resp.Body)
		return nil, &ErrBusy{RetryAfter: retry}
	default:
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return nil, fmt.Errorf("service: stream rejected: %s: %s", resp.Status, bytes.TrimSpace(body))
	}

	br := bufio.NewReaderSize(resp.Body, 64<<10)
	var line []byte
	for {
		line, err = toolio.ReadLine(br, line, toolio.MaxWireLine)
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		msg, err := toolio.DecodeWireMsg(line)
		if err != nil {
			return nil, err
		}
		switch msg.K {
		case toolio.WireAdviceKind:
			res.Advice = append(res.Advice, line...)
		case toolio.WireErrorKind:
			if msg.RetryMs > 0 {
				return nil, &ErrBusy{RetryAfter: time.Duration(msg.RetryMs) * time.Millisecond}
			}
			return nil, fmt.Errorf("service: server error: %s", msg.Error)
		default:
			return nil, fmt.Errorf("service: unexpected reply kind %q", msg.K)
		}
	}
	if err := <-writeErr; err != nil && err != io.EOF {
		return nil, fmt.Errorf("service: stream write: %w", err)
	}
	return res, nil
}
