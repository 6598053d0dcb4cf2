package toolio

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"io"
	"math"
	"testing"
)

// checkTick fails t unless tick is within the wire's tick bounds, spelled
// out here rather than through ValidateTick so a loosened validator fails.
func checkTick(t *testing.T, tick WireTick) {
	t.Helper()
	if tick.Seq < 0 || tick.Period < 1 || math.IsNaN(tick.IntervalSec) || math.IsInf(tick.IntervalSec, 0) || tick.IntervalSec < MinWireInterval {
		t.Fatalf("accepted out-of-range tick %+v", tick)
	}
}

// checkColumns fails t unless c is a well-formed batch within the wire's
// sample limits.
func checkColumns(t *testing.T, c *SampleColumns) {
	t.Helper()
	n := c.Len()
	if n > MaxWireBatch || len(c.Addr) != n || len(c.Width) != n || len(c.Write) != n {
		t.Fatalf("accepted a batch with columns %d/%d/%d/%d, cap %d",
			n, len(c.Addr), len(c.Width), len(c.Write), MaxWireBatch)
	}
	for i := 0; i < n; i++ {
		if c.TID[i] > MaxWireTID || c.Width[i] < 1 || c.Width[i] > MaxWireWidth || c.Write[i] > 1 {
			t.Fatalf("accepted out-of-range sample %d: tid %d width %d write %d",
				i, c.TID[i], c.Width[i], c.Write[i])
		}
	}
}

// FuzzDecodeWireMsg mutates NDJSON wire lines into the quad decoder. Any
// input may be rejected, but only with an error: a panic fails, and so does
// an accepted samples batch or tick that breaks the limits the binary
// decoder enforces (batch size, tid, width, write flag, tick seq, period
// and interval).
func FuzzDecodeWireMsg(f *testing.F) {
	for _, msg := range wireRoundTripMsgs {
		f.Add(bytes.TrimSuffix(EncodeWire(msg), []byte("\n")))
	}
	for _, tc := range ndjsonEdgeCases {
		f.Add([]byte(tc.line))
	}
	f.Add([]byte(ndjsonBoundaryLine))
	f.Add([]byte(`{"k":"h","v":99,"tenant":"time-traveler"}`))
	f.Add([]byte(`{"seq":1}`))
	f.Add([]byte(`{`))

	f.Fuzz(func(t *testing.T, line []byte) {
		m, err := DecodeWireMsg(line)
		if err != nil {
			return
		}
		switch m.K {
		case WireSamplesKind:
			if len(m.S) > MaxWireBatch {
				t.Fatalf("accepted a batch of %d samples, cap %d", len(m.S), MaxWireBatch)
			}
			for i, q := range m.S {
				if q[0] > MaxWireTID || q[2] < 1 || q[2] > MaxWireWidth || q[3] > 1 {
					t.Fatalf("accepted out-of-range sample %d: %v", i, q)
				}
			}
		case WireTickKind:
			checkTick(t, WireTick{Seq: m.Seq, IntervalSec: m.IntervalSec, Period: m.Period})
		}
	})
}

// FuzzBinReaderReadFrame mutates binary frame streams into BinReader. Every
// frame it hands back must be a well-formed samples batch or a tick within
// the wire limits; anything else must be an error, never a panic.
func FuzzBinReaderReadFrame(f *testing.F) {
	var tick bytes.Buffer
	if err := NewBinWriter(&tick).WriteTick(WireTick{Seq: 3, IntervalSec: 0.0001, Period: 100}); err != nil {
		f.Fatal(err)
	}
	for _, n := range []int{0, 1, MaxWireBatch} {
		f.Add(encodeFrames(f, func(bw *BinWriter) error { return bw.WriteSamples(sampleBatch(n)) }))
	}
	f.Add(tick.Bytes())
	f.Add(encodeFrames(f, func(bw *BinWriter) error {
		if err := bw.WriteSamples(sampleBatch(1)); err != nil {
			return err
		}
		return bw.WriteTick(WireTick{Seq: 4, IntervalSec: 0.1, Period: 400})
	}))
	for _, tc := range binEdgeCases(f) {
		f.Add(tc.in)
	}

	f.Fuzz(func(t *testing.T, in []byte) {
		br := NewBinReader(bytes.NewReader(in))
		for {
			fr, err := br.ReadFrame()
			if err != nil {
				if err != io.EOF && fr != nil {
					t.Fatalf("error %v came with a frame", err)
				}
				return
			}
			checkFrame(t, fr)
		}
	})
}

// checkFrame fails t unless fr is a samples batch or a tick within the
// wire limits.
func checkFrame(t *testing.T, fr *BinFrame) {
	t.Helper()
	switch fr.Kind {
	case WireSamplesKind[0]:
		checkColumns(t, fr.Samples)
	case WireTickKind[0]:
		checkTick(t, fr.Tick)
	default:
		t.Fatalf("accepted unknown frame kind 0x%02x", fr.Kind)
	}
}

// FuzzWireReader mutates whole request bodies (the part after the hello)
// into the shared stream framer, in either encoding. Any input may be
// rejected, but only with an error, and:
//   - NextRaw is lossless: the raw messages it returns concatenate to the
//     input it consumed, apart from the '\n' it appends to an unterminated
//     final NDJSON line;
//   - every raw binary frame carries a valid header and a payload within
//     the cap;
//   - every frame Next returns is within the wire limits.
func FuzzWireReader(f *testing.F) {
	var ndjson bytes.Buffer
	for _, msg := range wireRoundTripMsgs {
		f.Add(false, EncodeWire(msg))
		ndjson.Write(EncodeWire(msg))
	}
	f.Add(false, ndjson.Bytes())
	f.Add(false, bytes.TrimSuffix(ndjson.Bytes(), []byte("\n")))
	for _, tc := range ndjsonEdgeCases {
		f.Add(false, []byte(tc.line+"\n"))
	}
	f.Add(false, []byte(ndjsonBoundaryLine))
	f.Add(false, []byte("\n\n{\"seq\":1,\"k\":\"t\"}"))
	for _, n := range []int{0, 1, MaxWireBatch} {
		f.Add(true, encodeFrames(f, func(bw *BinWriter) error { return bw.WriteSamples(sampleBatch(n)) }))
	}
	f.Add(true, encodeFrames(f, func(bw *BinWriter) error {
		if err := bw.WriteSamples(sampleBatch(3)); err != nil {
			return err
		}
		return bw.WriteTick(WireTick{Seq: 4, IntervalSec: 0.1, Period: 400})
	}))
	for _, tc := range binEdgeCases(f) {
		f.Add(true, tc.in)
	}

	f.Fuzz(func(t *testing.T, bin bool, in []byte) {
		wire := WireFormatNDJSON
		if bin {
			wire = WireFormatBinary
		}
		rd := NewWireReader(bufio.NewReader(bytes.NewReader(in)), wire, 0)
		var got []byte
		var err error
		for {
			var kind byte
			var raw []byte
			kind, raw, err = rd.NextRaw()
			if err != nil {
				break
			}
			if bin {
				if len(raw) < binHeaderSize || raw[0] != wireBinMagic0 || raw[1] != wireBinMagic1 || raw[2] != WireBinVersion ||
					raw[3] != kind || (kind != WireSamplesKind[0] && kind != WireTickKind[0]) ||
					int(binary.LittleEndian.Uint32(raw[4:])) != len(raw)-binHeaderSize || len(raw)-binHeaderSize > MaxWireLine {
					t.Fatalf("raw frame with a bad header: % x", raw[:min(len(raw), binHeaderSize)])
				}
			} else if i := bytes.IndexByte(raw, '\n'); i != len(raw)-1 {
				t.Fatalf("raw line %q is not one newline-terminated line", raw)
			}
			got = append(got, raw...)
		}
		want := in
		if err == io.EOF && !bin && len(in) > 0 && in[len(in)-1] != '\n' {
			want = append(append([]byte(nil), in...), '\n')
		}
		if err == io.EOF && !bytes.Equal(got, want) || err != io.EOF && !bytes.HasPrefix(in, got) {
			t.Fatalf("raw messages %q do not reassemble the input %q (err %v)", got, in, err)
		}

		rd = NewWireReader(bufio.NewReader(bytes.NewReader(in)), wire, 0)
		for {
			fr, err := rd.Next()
			if err != nil {
				return
			}
			checkFrame(t, fr)
		}
	})
}

// FuzzReadHello mutates a stream's first bytes into the hello reader that
// tmid, its migration importer and the router relay all open with. Any
// input may be rejected, but only with an error, and an accepted hello
// passes CheckHello with a power-of-two page size in range, while its raw
// bytes are one '\n'-terminated line the input starts with.
func FuzzReadHello(f *testing.F) {
	for _, tc := range checkHelloCases {
		line, err := json.Marshal(tc.m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(append(line, '\n'))
	}
	for _, wire := range []string{"", WireFormatNDJSON, WireFormatBinary} {
		hello := EncodeWire(WireHello{K: WireHelloKind, Version: SchemaVersion, Tenant: "fuzz", PageSize: 1 << 21, Wire: wire})
		f.Add(hello)
		f.Add(bytes.TrimSuffix(hello, []byte("\n")))
		f.Add(append(hello, EncodeWire(WireTick{K: WireTickKind, Seq: 1, IntervalSec: 0.1, Period: 100})...))
	}
	f.Add([]byte(`{"k":"h","v":1,"tenant":"t","page_size":-4096}` + "\n"))
	f.Add([]byte("\n"))
	f.Add([]byte(`{`))

	f.Fuzz(func(t *testing.T, in []byte) {
		hello, raw, err := ReadHello(bufio.NewReader(bytes.NewReader(in)), 1<<12)
		if err != nil {
			if hello != nil || raw != nil {
				t.Fatalf("error %v came with a hello", err)
			}
			return
		}
		if err := CheckHello(hello); err != nil {
			t.Fatalf("accepted hello fails CheckHello: %v", err)
		}
		if ps := hello.PageSize; ps < MinWirePageSize || ps > MaxWirePageSize || ps&(ps-1) != 0 {
			t.Fatalf("accepted page size %d", ps)
		}
		if len(raw) == 0 || raw[len(raw)-1] != '\n' || bytes.IndexByte(raw, '\n') != len(raw)-1 {
			t.Fatalf("raw hello %q is not one newline-terminated line", raw)
		}
		if !bytes.HasPrefix(append(in[:len(in):len(in)], '\n'), raw) {
			t.Fatalf("raw hello %q is not where the input %q starts", raw, in)
		}
	})
}
