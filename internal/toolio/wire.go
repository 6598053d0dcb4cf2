package toolio

import (
	"encoding/json"
	"fmt"
)

// This file defines tmid's NDJSON wire schema: the streaming ingest format
// a client (cmd/tmiload, or an embedded runtime's exporter) speaks to the
// detection service, and the per-tick advice format the service streams
// back. One JSON object per line, discriminated by the one-byte "k" field.
// The schema is versioned by SchemaVersion, carried in the hello, so the
// wire format and the tool-output documents share a single version axis.
//
// A stream is:
//
//	→ {"k":"h","v":1,"tenant":"run-42","page_size":4096}
//	→ {"k":"s","s":[[tid,addr,width,write01],...]}   (any number)
//	→ {"k":"t","seq":0,"interval":0.0001,"period":100}
//	← {"k":"a","seq":0,"records":37,"next_period":100,...}
//	→ ... more sample/tick rounds ...
//
// Samples are packed as [tid, addr, width, write] integer quads rather than
// keyed objects: a load replay pushes 10^5..10^7 of them per client, and the
// quad form keeps the encode/decode cost per record small without leaving
// JSON (the paper's detector consumes resolved address/width/kind tuples —
// exactly this payload — once disassembly has run client-side).
const (
	WireHelloKind   = "h"
	WireSamplesKind = "s"
	WireTickKind    = "t"
	WireAdviceKind  = "a"
	WireErrorKind   = "e"
)

// WireHello opens a stream: schema version, tenant identity (the sharding
// key — one detector session exists per tenant), and the tenant's page size
// (advice pages are page-aligned in it). Wire negotiates the encoding of
// the rest of the request body: "" or "ndjson" keeps NDJSON lines, "binary"
// switches to the columnar batch frames defined in wirebin.go (the hello
// itself and the advice stream back are always NDJSON).
type WireHello struct {
	K        string `json:"k"`
	Version  int    `json:"v"`
	Tenant   string `json:"tenant"`
	PageSize int    `json:"page_size"`
	Wire     string `json:"wire,omitempty"`
}

// WireSamples carries a batch of resolved samples, each packed as
// [tid, addr, width, write(0/1)].
type WireSamples struct {
	K string      `json:"k"`
	S [][4]uint64 `json:"s"`
}

// WireTick closes the current analysis window: all samples since the
// previous tick were collected over IntervalSec simulated seconds at the
// given sampling period. Seq numbers ticks from 0 within the stream.
type WireTick struct {
	K           string  `json:"k"`
	Seq         int     `json:"seq"`
	IntervalSec float64 `json:"interval"`
	Period      int     `json:"period"`
}

// WireLine is one classified cache line in an advice message.
type WireLine struct {
	Line         uint64  `json:"line"`
	Class        string  `json:"class"`
	Records      int     `json:"records"`
	EstPerSec    float64 `json:"est_per_sec"`
	DroppedSpans int     `json:"dropped_spans,omitempty"`
}

// WireAdvice is the service's per-tick reply: the pages to isolate (the
// offline detector's repair request, page-aligned) with the lines that
// crossed the threshold, plus NextPeriod — the adaptive sampling-period
// feedback the client should program before the next window. Backend is
// the service's repair-strategy recommendation for the flagged pages
// (schema v2; present only when a recommendation policy is configured and
// the advice carries pages — it is additive and never perturbs the other
// fields).
type WireAdvice struct {
	K          string     `json:"k"`
	Seq        int        `json:"seq"`
	Records    uint64     `json:"records"`
	NextPeriod int        `json:"next_period"`
	Backend    string     `json:"backend,omitempty"`
	Pages      []uint64   `json:"pages,omitempty"`
	Lines      []WireLine `json:"lines,omitempty"`
}

// WireError aborts a stream (overload mid-stream, malformed input). RetryMs
// > 0 invites the client to retry after that backoff.
type WireError struct {
	K       string `json:"k"`
	Error   string `json:"error"`
	RetryMs int    `json:"retry_ms,omitempty"`
}

// WireMsg is the decode-side union of every message kind: NDJSON lines are
// decoded into it and dispatched on K.
type WireMsg struct {
	K           string      `json:"k"`
	Version     int         `json:"v,omitempty"`
	Tenant      string      `json:"tenant,omitempty"`
	PageSize    int         `json:"page_size,omitempty"`
	Wire        string      `json:"wire,omitempty"`
	S           [][4]uint64 `json:"s,omitempty"`
	Seq         int         `json:"seq,omitempty"`
	IntervalSec float64     `json:"interval,omitempty"`
	Period      int         `json:"period,omitempty"`
	Records     uint64      `json:"records,omitempty"`
	NextPeriod  int         `json:"next_period,omitempty"`
	Backend     string      `json:"backend,omitempty"`
	Pages       []uint64    `json:"pages,omitempty"`
	Lines       []WireLine  `json:"lines,omitempty"`
	Error       string      `json:"error,omitempty"`
	RetryMs     int         `json:"retry_ms,omitempty"`
}

// DecodeWireMsg parses one NDJSON line. Sample quads and ticks are
// range-checked here — samples cross the trust boundary as raw
// integers, and the same limits the binary decoder enforces per column
// (MaxWireTID, MaxWireWidth, MaxWireBatch) apply to the quad form, so a
// hostile quad like tid=2^63 is a decode error in both codecs rather than
// a negative thread ID inside the detector.
func DecodeWireMsg(line []byte) (*WireMsg, error) {
	var m WireMsg
	if err := json.Unmarshal(line, &m); err != nil {
		return nil, fmt.Errorf("toolio: bad wire line: %w", err)
	}
	switch m.K {
	case "":
		return nil, fmt.Errorf("toolio: wire line without kind")
	case WireSamplesKind:
		if len(m.S) > MaxWireBatch {
			return nil, fmt.Errorf("toolio: samples batch of %d records exceeds batch cap %d", len(m.S), MaxWireBatch)
		}
		for i, q := range m.S {
			if err := ValidateQuad(q); err != nil {
				return nil, fmt.Errorf("sample %d: %w", i, err)
			}
		}
	case WireTickKind:
		if err := ValidateTick(WireTick{Seq: m.Seq, IntervalSec: m.IntervalSec, Period: m.Period}); err != nil {
			return nil, err
		}
	}
	return &m, nil
}

// EncodeWire marshals any wire message struct as one NDJSON line,
// newline-terminated. Marshaling is deterministic (struct field order), so
// two producers rendering the same advice produce identical bytes — the
// property the tmid/offline parity check rests on.
func EncodeWire(msg any) []byte {
	b, err := json.Marshal(msg)
	if err != nil {
		// All wire structs are plain data; a marshal failure is a programming
		// error, not an input error.
		panic(fmt.Sprintf("toolio: wire marshal: %v", err))
	}
	return append(b, '\n')
}
