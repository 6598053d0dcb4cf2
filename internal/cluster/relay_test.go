package cluster

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"

	"repro/internal/detect"
	"repro/internal/sim/trace"
	"repro/internal/toolio"
)

// encodedWindow is one window as a client sends it: its samples in
// batch-record frames, then its tick. starts holds the offset of every
// frame, the tick's included.
type encodedWindow struct {
	bytes  []byte
	starts []int
}

// encodeWindows encodes every window of log in the given wire encoding.
func encodeWindows(t testing.TB, log *trace.SampleLog, wire string, batch int) []encodedWindow {
	t.Helper()
	binMode := wire == toolio.WireFormatBinary
	var out []encodedWindow
	for i, w := range log.Windows {
		var buf bytes.Buffer
		var starts []int
		enc := toolio.NewBinWriter(&buf)
		var cols toolio.SampleColumns
		samples := log.WindowSamples(i)
		for lo := 0; lo < len(samples); lo += batch {
			hi := min(lo+batch, len(samples))
			starts = append(starts, buf.Len())
			if binMode {
				cols.Reset()
				for _, sm := range samples[lo:hi] {
					cols.Append(uint32(sm.TID), sm.Addr, uint16(sm.Width), sm.Write)
				}
				if err := enc.WriteSamples(&cols); err != nil {
					t.Fatal(err)
				}
				continue
			}
			msg := toolio.WireSamples{K: toolio.WireSamplesKind, S: make([][4]uint64, hi-lo)}
			for j, sm := range samples[lo:hi] {
				msg.S[j] = [4]uint64{uint64(sm.TID), sm.Addr, uint64(sm.Width), 0}
				if sm.Write {
					msg.S[j][3] = 1
				}
			}
			buf.Write(toolio.EncodeWire(msg))
		}
		starts = append(starts, buf.Len())
		tick := toolio.WireTick{K: toolio.WireTickKind, Seq: i, IntervalSec: w.IntervalSec, Period: w.Period}
		if binMode {
			if err := enc.WriteTick(tick); err != nil {
				t.Fatal(err)
			}
		} else {
			buf.Write(toolio.EncodeWire(tick))
		}
		out = append(out, encodedWindow{bytes: buf.Bytes(), starts: starts})
	}
	return out
}

// splitLog has syntheticLog's shape, with one window spliced in that is
// larger than the relay's 256 KiB read buffer in either encoding.
func splitLog() *trace.SampleLog {
	log := &trace.SampleLog{PageSize: 4096}
	for _, n := range []int{400, 400, 20000, 400, 150} {
		for i := 0; i < n; i++ {
			tid := i % 2
			log.TapSample(detect.Sample{TID: tid, Addr: 0x10000 + uint64(tid)*8, Width: 8, Write: tid == 0})
			if i%3 == 0 {
				log.TapSample(detect.Sample{TID: tid, Addr: 0x20000, Width: 8, Write: true})
			}
		}
		log.TapWindow(0.0001, 100)
	}
	return log
}

// splitCoverage counts the kinds of split cutWindow produced.
type splitCoverage struct {
	whole, oneByte, inHeader int
}

// cutWindow cuts a window into the pieces a client writes it in, drawn
// from rng: the whole window, a few random pieces, or a run of 1-byte
// pieces. In the binary encoding half the windows also get one cut inside
// a frame header.
func cutWindow(rng *rand.Rand, w encodedWindow, binMode bool, cov *splitCoverage) [][]byte {
	n := len(w.bytes)
	cuts := map[int]bool{}
	switch rng.Intn(3) {
	case 1:
		for k := 1 + rng.Intn(12); k > 0; k-- {
			cuts[1+rng.Intn(n-1)] = true
		}
	case 2:
		at := 1 + rng.Intn(n-17)
		for i := 0; i <= 16; i++ {
			cuts[at+i] = true
		}
		cov.oneByte++
	}
	if binMode && rng.Intn(2) == 0 {
		cuts[w.starts[rng.Intn(len(w.starts))]+1+rng.Intn(7)] = true
		cov.inHeader++
	}
	if len(cuts) == 0 {
		cov.whole++
		return [][]byte{w.bytes}
	}
	at := make([]int, 0, len(cuts)+1)
	for c := range cuts {
		at = append(at, c)
	}
	sort.Ints(at)
	at = append(at, n)
	pieces := make([][]byte, 0, len(at))
	prev := 0
	for _, c := range at {
		pieces = append(pieces, w.bytes[prev:c])
		prev = c
	}
	return pieces
}

// TestRelaySplitWritesParity: however a client splits its writes — whole
// windows, arbitrary pieces, single bytes, cuts inside a binary frame
// header — the advice through the router is byte-identical to the offline
// replay, in both encodings, for windows of several frames and for a
// window larger than the relay's read buffer.
func TestRelaySplitWritesParity(t *testing.T) {
	log := splitLog()
	want := offlineTruth(t, log, 1)
	lc := newLocal(t, 1, Config{ProbeInterval: -1})

	for _, wire := range []string{"", toolio.WireFormatBinary} {
		t.Run("wire="+wire, func(t *testing.T) {
			binMode := wire == toolio.WireFormatBinary
			windows := encodeWindows(t, log, wire, 100)
			if big := len(windows[2].bytes); big <= 256<<10 {
				t.Fatalf("window 2 is %d bytes, want more than 256 KiB", big)
			}
			rng := rand.New(rand.NewSource(25))
			var cov splitCoverage
			for round := 0; round < 4; round++ {
				sc := openStream(t, lc.RouterURL, fmt.Sprintf("split-%s-%d", wire, round), log.PageSize, wire)
				var advice bytes.Buffer
				for i, w := range windows {
					for _, p := range cutWindow(rng, w, binMode, &cov) {
						if _, err := sc.pw.Write(p); err != nil {
							t.Fatalf("round %d window %d write: %v", round, i, err)
						}
					}
					line, err := sc.br.ReadBytes('\n')
					if err != nil {
						t.Fatalf("round %d window %d reply: %v", round, i, err)
					}
					advice.Write(line)
				}
				sc.close()
				if !bytes.Equal(advice.Bytes(), want) {
					t.Fatalf("round %d: advice diverged from offline replay:\ngot  %s\nwant %s", round, advice.Bytes(), want)
				}
			}
			if cov.whole == 0 || cov.oneByte == 0 || (binMode && cov.inHeader == 0) {
				t.Errorf("seeded splits missed a case: %+v", cov)
			}
		})
	}
}

// chunkReader is a request body that arrives the way a client wrote it:
// each Read returns at most the rest of one chunk, so the relay's read
// buffer drains exactly at chunk ends.
type chunkReader struct{ chunks [][]byte }

func (r *chunkReader) Read(p []byte) (int, error) {
	for len(r.chunks) > 0 && len(r.chunks[0]) == 0 {
		r.chunks = r.chunks[1:]
	}
	if len(r.chunks) == 0 {
		return 0, io.EOF
	}
	n := copy(p, r.chunks[0])
	r.chunks[0] = r.chunks[0][n:]
	return n, nil
}

// relayCost is what one stream cost the relay: upstream writes and bytes,
// and the frames and ticks its metrics counted.
type relayCost struct{ writes, bytes, frames, ticks uint64 }

func (rt *Router) relayCost() relayCost {
	return relayCost{rt.upstream.writes.Load(), rt.upstream.bytes.Load(),
		rt.metrics.messagesRelayed.Load(), rt.metrics.ticksRelayed.Load()}
}

// relayChunks runs one stream through rt's handler in-process, its body
// delivered in the given chunks, and returns the reply body and the
// stream's cost. The handler writes upstream synchronously, so the
// counters are final when it returns.
func relayChunks(rt *Router, chunks [][]byte) ([]byte, relayCost) {
	before := rt.relayCost()
	rec := httptest.NewRecorder()
	rt.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/stream", &chunkReader{chunks}))
	after := rt.relayCost()
	return rec.Body.Bytes(), relayCost{after.writes - before.writes, after.bytes - before.bytes,
		after.frames - before.frames, after.ticks - before.ticks}
}

func helloBytes(tenant, wire string, pageSize int) []byte {
	return toolio.EncodeWire(toolio.WireHello{K: toolio.WireHelloKind, Version: toolio.SchemaVersion, Tenant: tenant, PageSize: pageSize, Wire: wire})
}

// TestRelayWriteCount pins the relay's upstream writes. A client that
// sends each window in one write costs exactly one write per tick, where
// a relay that forwards frame by frame makes k+1 for k sample frames. A
// client that sends frame by frame gets each frame forwarded as it
// arrives. A client that sends the whole stream in one write has a window
// larger than the gathering cap cut once. Every byte reaches the node, and
// the frame and tick counters keep their meaning.
func TestRelayWriteCount(t *testing.T) {
	lc := newLocal(t, 1, Config{ProbeInterval: -1})
	for _, wire := range []string{"", toolio.WireFormatBinary} {
		for _, tc := range []struct {
			name   string
			log    *trace.SampleLog
			chunks func(windows []encodedWindow) [][]byte
			writes func(windows []encodedWindow) int
		}{
			{"window-per-write", syntheticLog(),
				func(windows []encodedWindow) (c [][]byte) {
					for _, w := range windows {
						c = append(c, w.bytes)
					}
					return c
				},
				func(windows []encodedWindow) int { return len(windows) }},
			{"frame-per-write", syntheticLog(),
				func(windows []encodedWindow) (c [][]byte) {
					for _, w := range windows {
						for f, at := range w.starts {
							end := len(w.bytes)
							if f+1 < len(w.starts) {
								end = w.starts[f+1]
							}
							c = append(c, w.bytes[at:end])
						}
					}
					return c
				},
				func(windows []encodedWindow) (n int) {
					for _, w := range windows {
						n += len(w.starts)
					}
					return n
				}},
			{"stream-in-one-write", splitLog(),
				func(windows []encodedWindow) [][]byte {
					var all []byte
					for _, w := range windows {
						all = append(all, w.bytes...)
					}
					return [][]byte{all}
				},
				func(windows []encodedWindow) int { return len(windows) + 1 }},
		} {
			t.Run(tc.name+"/wire="+wire, func(t *testing.T) {
				windows := encodeWindows(t, tc.log, wire, 100)
				chunks := append([][]byte{helloBytes("count-"+tc.name+"-"+wire, wire, tc.log.PageSize)}, tc.chunks(windows)...)
				var want relayCost
				for _, w := range windows {
					want.bytes += uint64(len(w.bytes))
					want.frames += uint64(len(w.starts))
				}
				want.writes, want.ticks = uint64(tc.writes(windows)), uint64(len(windows))
				reply, got := relayChunks(lc.Router, chunks)
				if !bytes.Equal(reply, offlineTruth(t, tc.log, 1)) {
					t.Fatalf("advice diverged from offline replay:\n%s", reply)
				}
				if got != want {
					t.Errorf("relay cost %+v, want %+v", got, want)
				}
			})
		}
	}
}

// TestRelayForwardsFramesBeforeFramingError: frames gathered ahead of a
// malformed one still reach the node, in one write, before the router
// answers the framing error.
func TestRelayForwardsFramesBeforeFramingError(t *testing.T) {
	log := syntheticLog()
	lc := newLocal(t, 1, Config{ProbeInterval: -1})
	w := encodeWindows(t, log, toolio.WireFormatBinary, 100)[0]
	valid := w.bytes[:w.starts[len(w.starts)-1]] // the sample frames, not the tick
	bad := append(append([]byte(nil), valid...), 'X', 'X', toolio.WireBinVersion, toolio.WireSamplesKind[0], 0, 0, 0, 0)
	reply, got := relayChunks(lc.Router, [][]byte{helloBytes("framing-flush", toolio.WireFormatBinary, log.PageSize), bad})
	m, err := toolio.DecodeWireMsg(bytes.TrimRight(reply, "\n"))
	if err != nil || m.K != toolio.WireErrorKind || m.RetryMs != 0 || !strings.Contains(m.Error, "bad frame magic") {
		t.Fatalf("reply %q, want one non-retryable bad-magic wire error", reply)
	}
	if want := (relayCost{writes: 1, bytes: uint64(len(valid)), frames: uint64(len(w.starts) - 1)}); got != want {
		t.Errorf("relay cost %+v, want %+v", got, want)
	}
}

// BenchmarkRelayWindow measures one window's round trip through the router
// to one in-process node: the client writes a binary window (six
// 100-record sample frames and a tick) in one write and reads its advice.
// writes/op is the relay's upstream writes per window.
func BenchmarkRelayWindow(b *testing.B) {
	log := syntheticLog()
	lc := newLocal(b, 1, Config{ProbeInterval: -1})
	windows := encodeWindows(b, log, toolio.WireFormatBinary, 100)
	sc := openStream(b, lc.RouterURL, "bench-relay", log.PageSize, toolio.WireFormatBinary)
	defer sc.close()
	writes := lc.Router.upstream.writes.Load()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sc.pw.Write(windows[i%len(windows)].bytes); err != nil {
			b.Fatal(err)
		}
		if line, err := sc.br.ReadBytes('\n'); err != nil || toolio.PeekWireKind(line) != toolio.WireAdviceKind[0] {
			b.Fatalf("window %d reply %q: %v", i, line, err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(lc.Router.upstream.writes.Load()-writes)/float64(b.N), "writes/op")
}
