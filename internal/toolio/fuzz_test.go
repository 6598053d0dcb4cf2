package toolio

import (
	"bytes"
	"io"
	"testing"
)

// FuzzDecodeWireMsg mutates NDJSON wire lines into the quad decoder. Any
// input may be rejected, but only with an error: a panic fails, and so does
// an accepted samples batch or tick that breaks the limits the binary
// decoder enforces (batch size, tid, width, write flag, tick seq).
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
			if m.Seq < 0 {
				t.Fatalf("accepted tick seq %d", m.Seq)
			}
		}
	})
}

// FuzzBinReaderReadFrame mutates binary frame streams into BinReader. Every
// frame it hands back must be a well-formed samples batch within the wire
// limits or a tick with a non-negative seq; anything else must be an error,
// never a panic.
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
			switch fr.Kind {
			case WireSamplesKind[0]:
				c := fr.Samples
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
			case WireTickKind[0]:
				if fr.Tick.Seq < 0 {
					t.Fatalf("accepted tick seq %d", fr.Tick.Seq)
				}
			default:
				t.Fatalf("accepted unknown frame kind 0x%02x", fr.Kind)
			}
		}
	})
}
