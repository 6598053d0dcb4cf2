package toolio

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"strings"
	"testing"

	"repro/internal/raceflag"
)

func sampleBatch(n int) *SampleColumns {
	c := &SampleColumns{}
	for i := 0; i < n; i++ {
		c.Append(uint32(i%7), 0x7f0010_0000+uint64(i)*8, uint16(1<<(i%4)), i%3 == 0)
	}
	return c
}

func TestBinRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	bw := NewBinWriter(&buf)
	want := sampleBatch(1000)
	if err := bw.WriteSamples(want); err != nil {
		t.Fatal(err)
	}
	tick := WireTick{K: WireTickKind, Seq: 41, IntervalSec: 0.0001, Period: 400}
	if err := bw.WriteTick(tick); err != nil {
		t.Fatal(err)
	}

	br := NewBinReader(&buf)
	fr, err := br.ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	if fr.Kind != WireSamplesKind[0] || fr.Samples.Len() != want.Len() {
		t.Fatalf("first frame kind %q len %d, want samples len %d", fr.Kind, fr.Samples.Len(), want.Len())
	}
	for i := 0; i < want.Len(); i++ {
		if fr.Samples.TID[i] != want.TID[i] || fr.Samples.Addr[i] != want.Addr[i] ||
			fr.Samples.Width[i] != want.Width[i] || fr.Samples.Write[i] != want.Write[i] {
			t.Fatalf("sample %d did not round-trip: got (%d,%#x,%d,%d) want (%d,%#x,%d,%d)",
				i, fr.Samples.TID[i], fr.Samples.Addr[i], fr.Samples.Width[i], fr.Samples.Write[i],
				want.TID[i], want.Addr[i], want.Width[i], want.Write[i])
		}
	}
	fr, err = br.ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	if fr.Kind != WireTickKind[0] || fr.Tick.Seq != tick.Seq || fr.Tick.IntervalSec != tick.IntervalSec || fr.Tick.Period != tick.Period {
		t.Fatalf("tick did not round-trip: %+v", fr.Tick)
	}
	if _, err := br.ReadFrame(); err != io.EOF {
		t.Fatalf("clean stream end: err = %v, want io.EOF", err)
	}
}

// encodeFrames renders a sequence of frames to raw bytes for corruption
// tests.
func encodeFrames(t testing.TB, build func(bw *BinWriter) error) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := build(NewBinWriter(&buf)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// binEdgeCase is one row of hostile or malformed binary input and the
// error text it must produce.
type binEdgeCase struct {
	name string
	in   []byte
	want string
}

// binEdgeCases builds the binary edge table, shared by
// TestBinDecodeEdgeCases and the FuzzBinReaderReadFrame seed corpus.
func binEdgeCases(t testing.TB) []binEdgeCase {
	good := encodeFrames(t, func(bw *BinWriter) error { return bw.WriteSamples(sampleBatch(4)) })
	goodTick := encodeFrames(t, func(bw *BinWriter) error {
		return bw.WriteTick(WireTick{Seq: 1, IntervalSec: 0.1, Period: 100})
	})
	corrupt := func(mut func(b []byte)) []byte {
		b := append([]byte(nil), good...)
		mut(b)
		return b
	}
	hostileColumn := func(col string, v uint64) []byte {
		c := sampleBatch(4)
		switch col {
		case "tid":
			c.TID[2] = uint32(v)
		case "width":
			c.Width[2] = uint16(v)
		case "write":
			c.Write[2] = uint8(v)
		}
		return encodeFrames(t, func(bw *BinWriter) error { return bw.WriteSamples(c) })
	}
	negSeqTick := append([]byte(nil), goodTick...)
	binary.LittleEndian.PutUint64(negSeqTick[binHeaderSize:], ^uint64(0)) // seq = -1
	hostileTick := func(interval float64, period int) []byte {
		return encodeFrames(t, func(bw *BinWriter) error {
			return bw.WriteTick(WireTick{Seq: 1, IntervalSec: interval, Period: period})
		})
	}

	return []binEdgeCase{
		{"truncated-header", good[:5], "truncated frame header"},
		{"truncated-payload", good[:len(good)-3], fmt.Sprintf("truncated frame payload (%d of %d bytes)", len(good)-3-binHeaderSize, len(good)-binHeaderSize)},
		{"bad-magic", corrupt(func(b []byte) { b[0] = 'X' }), "bad frame magic"},
		{"future-version", corrupt(func(b []byte) { b[2] = WireBinVersion + 1 }), "frame version"},
		{"unknown-kind", corrupt(func(b []byte) { b[3] = 'z' }), "unknown frame kind"},
		{"oversized-payload", corrupt(func(b []byte) {
			binary.LittleEndian.PutUint32(b[4:], uint32(MaxWireLine+1))
		}), "exceeds cap"},
		{"count-overruns-payload", corrupt(func(b []byte) {
			binary.LittleEndian.PutUint32(b[binHeaderSize:], 5)
		}), "want"},
		{"oversized-batch", func() []byte {
			// A structurally complete frame of MaxWireBatch+1 zero records:
			// the batch cap must reject it before any column is decoded.
			n := MaxWireBatch + 1
			b := make([]byte, binHeaderSize+4+n*bytesPerSample)
			b[0], b[1], b[2], b[3] = wireBinMagic0, wireBinMagic1, WireBinVersion, WireSamplesKind[0]
			binary.LittleEndian.PutUint32(b[4:], uint32(4+n*bytesPerSample))
			binary.LittleEndian.PutUint32(b[binHeaderSize:], uint32(n))
			return b
		}(), "batch cap"},
		{"hostile-tid", hostileColumn("tid", 1<<31), "tid out of range"},
		{"zero-width", hostileColumn("width", 0), "width out of range"},
		{"huge-width", hostileColumn("width", 4096), "width out of range"},
		{"bad-write-flag", hostileColumn("write", 7), "not 0 or 1"},
		{"tick-negative-seq", negSeqTick, "negative"},
		{"tick-short-payload", goodTick[:binHeaderSize+8], "truncated frame payload (8 of 24 bytes)"},
		{"tick-denormal-interval", hostileTick(1e-320, 100), "interval"},
		{"tick-nan-interval", hostileTick(math.NaN(), 100), "interval"},
		{"tick-inf-interval", hostileTick(math.Inf(1), 100), "interval"},
		{"tick-zero-interval", hostileTick(0, 100), "interval"},
		{"tick-negative-interval", hostileTick(-0.1, 100), "interval"},
		{"tick-zero-period", hostileTick(0.1, 0), "period"},
	}
}

// TestBinDecodeEdgeCases is the table of hostile and malformed binary
// input shared with the NDJSON edge cases below: every row must produce a
// decode error (never a panic, never a misread batch).
func TestBinDecodeEdgeCases(t *testing.T) {
	for _, tc := range binEdgeCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			br := NewBinReader(bytes.NewReader(tc.in))
			var err error
			for err == nil {
				_, err = br.ReadFrame()
			}
			if err == io.EOF || err == nil {
				t.Fatalf("decode accepted malformed input")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestBinReaderRespectsConfiguredCaps pins the per-reader overrides the
// service wires from Config.MaxFrameBytes.
func TestBinReaderRespectsConfiguredCaps(t *testing.T) {
	frames := encodeFrames(t, func(bw *BinWriter) error { return bw.WriteSamples(sampleBatch(100)) })

	br := NewBinReader(bytes.NewReader(frames))
	br.MaxPayload = 64
	if _, err := br.ReadFrame(); err == nil || !strings.Contains(err.Error(), "exceeds cap 64") {
		t.Errorf("payload cap not enforced: %v", err)
	}
	br = NewBinReader(bytes.NewReader(frames))
	br.MaxBatch = 10
	if _, err := br.ReadFrame(); err == nil || !strings.Contains(err.Error(), "batch cap 10") {
		t.Errorf("batch cap not enforced: %v", err)
	}
}

// ndjsonEdgeCases is the quad codec's hostile-input table, shared by
// TestNDJSONDecodeEdgeCases and the FuzzDecodeWireMsg seed corpus: each
// line must fail to decode with an error mentioning want.
var ndjsonEdgeCases = []struct {
	name, line, want string
}{
	{"hostile-tid", `{"k":"s","s":[[9223372036854775808,4096,8,1]]}`, "tid"},
	{"tid-just-past-cap", fmt.Sprintf(`{"k":"s","s":[[%d,4096,8,1]]}`, MaxWireTID+1), "tid"},
	{"zero-width", `{"k":"s","s":[[0,4096,0,1]]}`, "width"},
	{"huge-width", `{"k":"s","s":[[0,4096,65,1]]}`, "width"},
	{"hostile-write", `{"k":"s","s":[[0,4096,8,2]]}`, "write"},
	{"oversized-batch", `{"k":"s","s":[` + strings.Repeat(`[0,0,8,1],`, MaxWireBatch) + `[0,0,8,1]]}`, "batch cap"},
	{"tick-negative-seq", `{"k":"t","seq":-1,"interval":0.1,"period":100}`, "negative"},
	{"tick-denormal-interval", `{"k":"t","seq":0,"interval":1e-320,"period":100}`, "interval"},
	{"tick-zero-interval", `{"k":"t","seq":0,"interval":0,"period":100}`, "interval"},
	{"tick-missing-interval", `{"k":"t","seq":0,"period":100}`, "interval"},
	{"tick-negative-interval", `{"k":"t","seq":0,"interval":-0.1,"period":100}`, "interval"},
	{"tick-overflowing-interval", `{"k":"t","seq":0,"interval":1e400,"period":100}`, "interval"},
	{"tick-zero-period", `{"k":"t","seq":0,"interval":0.1,"period":0}`, "period"},
	{"tick-negative-period", `{"k":"t","seq":0,"interval":0.1,"period":-5}`, "period"},
}

// ndjsonBoundaryLine holds the in-range extremes every codec must accept.
var ndjsonBoundaryLine = fmt.Sprintf(`{"k":"s","s":[[%d,4096,64,1],[0,4096,1,0]]}`, MaxWireTID)

// TestNDJSONDecodeEdgeCases mirrors the binary table on the quad codec:
// the same tid/width/write/seq/batch limits, enforced at DecodeWireMsg.
func TestNDJSONDecodeEdgeCases(t *testing.T) {
	for _, tc := range ndjsonEdgeCases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := DecodeWireMsg([]byte(tc.line))
			if err == nil {
				t.Fatal("decode accepted hostile input")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
	// The boundary values stay valid.
	if _, err := DecodeWireMsg([]byte(ndjsonBoundaryLine)); err != nil {
		t.Errorf("decode rejected in-range samples: %v", err)
	}
}

func TestCheckHello(t *testing.T) {
	hello := func(mut func(m *WireMsg)) *WireMsg {
		m := &WireMsg{K: WireHelloKind, Version: SchemaVersion, Tenant: "t1", PageSize: 4096}
		mut(m)
		return m
	}
	for _, tc := range []struct {
		name string
		m    *WireMsg
		want string // "" means valid
	}{
		{"ok", hello(func(m *WireMsg) {}), ""},
		{"ok-default-page", hello(func(m *WireMsg) { m.PageSize = 0 }), ""},
		{"ok-binary", hello(func(m *WireMsg) { m.Wire = WireFormatBinary }), ""},
		{"ok-ndjson", hello(func(m *WireMsg) { m.Wire = WireFormatNDJSON }), ""},
		{"not-hello", hello(func(m *WireMsg) { m.K = WireTickKind }), "hello"},
		{"future-version", hello(func(m *WireMsg) { m.Version = 99 }), "version"},
		{"no-tenant", hello(func(m *WireMsg) { m.Tenant = "" }), "tenant"},
		{"page-size-one", hello(func(m *WireMsg) { m.PageSize = 1 }), "page size"},
		{"page-size-64", hello(func(m *WireMsg) { m.PageSize = 64 }), "page size"},
		{"page-size-not-pow2", hello(func(m *WireMsg) { m.PageSize = 1000 }), "page size"},
		{"page-size-huge", hello(func(m *WireMsg) { m.PageSize = MaxWirePageSize * 2 }), "page size"},
		{"unknown-wire", hello(func(m *WireMsg) { m.Wire = "protobuf" }), "wire format"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := CheckHello(tc.m)
			if tc.want == "" {
				if err != nil {
					t.Errorf("valid hello rejected: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %v does not mention %q", err, tc.want)
			}
		})
	}
}

// TestBinReaderSteadyStateDoesNotAllocate is the decode-path AllocsPerRun
// gate: replaying the same frame stream through one reader must stay off
// the heap entirely once its buffers are warm.
func TestBinReaderSteadyStateDoesNotAllocate(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("AllocsPerRun is meaningless under -race")
	}
	frames := encodeFrames(t, func(bw *BinWriter) error {
		for i := 0; i < 4; i++ {
			if err := bw.WriteSamples(sampleBatch(1024)); err != nil {
				return err
			}
		}
		return bw.WriteTick(WireTick{Seq: 0, IntervalSec: 0.1, Period: 100})
	})
	r := bytes.NewReader(frames)
	br := NewBinReader(r)
	decodeAll := func() {
		r.Reset(frames)
		br.Reset(r)
		for {
			if _, err := br.ReadFrame(); err != nil {
				if err != io.EOF {
					t.Fatal(err)
				}
				return
			}
		}
	}
	decodeAll() // warm the payload and column buffers
	if allocs := testing.AllocsPerRun(100, decodeAll); allocs > 0 {
		t.Errorf("steady-state frame decode allocates %.1f times per stream, want 0", allocs)
	}
}

// TestBinWriterSteadyStateDoesNotAllocate pins the encode side the same
// way: one writer re-encoding warm batches must not touch the heap.
func TestBinWriterSteadyStateDoesNotAllocate(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("AllocsPerRun is meaningless under -race")
	}
	c := sampleBatch(1024)
	var buf bytes.Buffer
	bw := NewBinWriter(&buf)
	encode := func() {
		buf.Reset()
		if err := bw.WriteSamples(c); err != nil {
			t.Fatal(err)
		}
		if err := bw.WriteTick(WireTick{Seq: 1, IntervalSec: 0.1, Period: 100}); err != nil {
			t.Fatal(err)
		}
	}
	encode()
	if allocs := testing.AllocsPerRun(100, encode); allocs > 0 {
		t.Errorf("steady-state frame encode allocates %.1f times per batch, want 0", allocs)
	}
}
