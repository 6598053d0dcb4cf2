package toolio

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
)

// This file frames a request body for every reader of a wire stream: the
// tmid stream handler, its migration importer and the router's relay.
// ReadLine frames NDJSON lines (the hello, the checkpoint, advice lines),
// and WireReader frames the sample/tick messages after the hello in the
// encoding the hello negotiated, decoded (Next) or raw (NextRaw).

// ReadLine reads one NDJSON line into buf (reused across calls) and
// returns it with its '\n', appending one to a final unterminated line. It
// returns io.EOF at a clean end of input and an error once the line
// exceeds maxLen bytes (0 means MaxWireLine).
func ReadLine(br *bufio.Reader, buf []byte, maxLen int) ([]byte, error) {
	if maxLen <= 0 {
		maxLen = MaxWireLine
	}
	buf = buf[:0]
	for {
		frag, err := br.ReadSlice('\n')
		buf = append(buf, frag...)
		if len(buf) > maxLen {
			return nil, fmt.Errorf("toolio: wire line exceeds %d bytes", maxLen)
		}
		switch {
		case err == nil:
			return buf, nil
		case errors.Is(err, bufio.ErrBufferFull):
		case errors.Is(err, io.EOF):
			if len(buf) == 0 {
				return nil, io.EOF
			}
			return append(buf, '\n'), nil
		default:
			return nil, err
		}
	}
}

// PeekWireKind returns the "k" discriminator byte of an NDJSON wire line,
// or 0 when the line has none. Every encoder in this codebase emits K
// first ({"k":"x",...}), so the fast path is a prefix check; foreign
// producers fall back to decoding the one field.
func PeekWireKind(line []byte) byte {
	if len(line) >= 8 && bytes.HasPrefix(line, []byte(`{"k":"`)) {
		return line[6]
	}
	var m struct {
		K string `json:"k"`
	}
	if json.Unmarshal(line, &m) == nil && m.K != "" {
		return m.K[0]
	}
	return 0
}

// WireReader frames the sample and tick messages that follow a stream's
// hello, in the encoding the hello negotiated. Its buffers are reused
// across messages: what Next or NextRaw returns is valid until the next
// call.
type WireReader struct {
	br     *bufio.Reader
	binary bool
	bin    BinReader // its MaxPayload caps NDJSON lines too
	line   []byte
}

// NewWireReader returns a reader for the messages after a hello whose
// Wire field is wire. maxLen caps one NDJSON line and one binary frame
// payload (0 means MaxWireLine).
func NewWireReader(br *bufio.Reader, wire string, maxLen int) *WireReader {
	return &WireReader{
		br:     br,
		binary: wire == WireFormatBinary,
		bin:    BinReader{r: br, MaxPayload: maxLen},
	}
}

// Next decodes the next message into a samples or tick frame, whichever
// the encoding. NDJSON lines go through DecodeWireMsg, and their quads
// are packed into the reader's reused columns. It returns io.EOF at a
// clean end of input; any other kind of message is an error.
func (wr *WireReader) Next() (*BinFrame, error) {
	if wr.binary {
		return wr.bin.ReadFrame()
	}
	line, err := ReadLine(wr.br, wr.line, wr.bin.MaxPayload)
	if err != nil {
		return nil, err
	}
	wr.line = line
	m, err := DecodeWireMsg(line)
	if err != nil {
		return nil, err
	}
	fr := &wr.bin.frame
	switch m.K {
	case WireSamplesKind:
		c := &wr.bin.cols
		c.Grow(len(m.S))
		for i, q := range m.S {
			c.TID[i], c.Addr[i], c.Width[i], c.Write[i] = uint32(q[0]), q[1], uint16(q[2]), uint8(q[3])
		}
		*fr = BinFrame{Kind: WireSamplesKind[0], Samples: c}
	case WireTickKind:
		*fr = BinFrame{Kind: WireTickKind[0], Tick: WireTick{K: m.K, Seq: m.Seq, IntervalSec: m.IntervalSec, Period: m.Period}}
	default:
		return nil, fmt.Errorf("unexpected message kind %q", m.K)
	}
	return fr, nil
}

// NextRaw returns the next message undecoded, for a relay that forwards
// bytes: a whole NDJSON line with its '\n', or a whole binary frame whose
// header ReadRaw validated. kind is the message's kind byte (0 for an
// NDJSON line without one). It returns io.EOF at a clean end of input.
func (wr *WireReader) NextRaw() (kind byte, raw []byte, err error) {
	if wr.binary {
		return wr.bin.ReadRaw()
	}
	line, err := ReadLine(wr.br, wr.line, wr.bin.MaxPayload)
	if err != nil {
		return 0, nil, err
	}
	wr.line = line
	return PeekWireKind(line), line, nil
}
