package toolio

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// This file defines the binary half of tmid's wire protocol: a versioned,
// length-prefixed, little-endian columnar batch frame that replaces the
// NDJSON sample quads on the ingest hot path. The hello line stays NDJSON —
// it is the negotiation point (WireHello.Wire chooses the encoding for the
// rest of the request body) — and the advice stream coming back stays
// NDJSON too, so the offline/online parity check keeps comparing the exact
// same bytes regardless of how samples travelled.
//
// Frame layout (all integers little-endian):
//
//	offset 0: 'T'                      magic
//	offset 1: 'M'                      magic
//	offset 2: version (WireBinVersion)
//	offset 3: kind ('s' samples | 't' tick)
//	offset 4: payload length, uint32
//	offset 8: payload
//
// Samples payload — four contiguous columns, so the decoder runs one tight
// loop per column instead of one branchy object decode per record:
//
//	count  uint32
//	tid    count x uint32
//	addr   count x uint64
//	width  count x uint16
//	write  count x uint8   (0 or 1)
//
// Tick payload — fixed 24 bytes:
//
//	seq      int64   (>= 0)
//	interval float64 (IEEE-754 bits, finite, >= MinWireInterval)
//	period   int64   (>= 1)
//
// Unknown magic, frame versions newer than WireBinVersion, unknown kinds,
// truncated frames and payloads exceeding the frame cap are all rejected at
// decode, exactly like SchemaVersion mismatches on the NDJSON side: a
// malformed producer gets an error, never a misread batch.
const (
	// WireBinVersion is the binary frame format version. It rides the same
	// compatibility policy as SchemaVersion: frames newer than this reader
	// are rejected, never misread.
	WireBinVersion = 1

	wireBinMagic0 = 'T'
	wireBinMagic1 = 'M'

	binHeaderSize  = 8
	binTickPayload = 24

	// bytesPerSample is one record's footprint across the four columns.
	bytesPerSample = 4 + 8 + 2 + 1
)

// Wire format names carried in WireHello.Wire. Empty means NDJSON (the
// pre-negotiation default, so old clients keep working unchanged).
const (
	WireFormatNDJSON = "ndjson"
	WireFormatBinary = "binary"
)

// Wire-boundary validation limits, shared by both codecs. Samples cross the
// trust boundary as raw integers; without these caps a hostile quad like
// tid=2^63 would truncate to a negative int inside the detector.
const (
	// MaxWireTID bounds a sample's thread ID (a power-of-two mask so the
	// columnar decoder can validate a whole column branch-free with one OR
	// accumulator).
	MaxWireTID = 1<<20 - 1
	// MaxWireWidth bounds a sample's access width: nothing wider than one
	// cache line is a meaningful HITM footprint.
	MaxWireWidth = 64
	// MaxWireBatch bounds the records in one samples message/frame.
	MaxWireBatch = 1 << 16
	// MaxWireLine bounds one NDJSON wire line and one binary frame payload.
	// A batch of MaxWireBatch samples fits comfortably; anything larger is
	// a protocol violation, not load.
	MaxWireLine = 8 << 20
	// MinWirePageSize is the smallest hello page size accepted: the
	// smallest page x86 maps, and exactly one of the detector's 64-line
	// stat chunks.
	MinWirePageSize = 4096
	// MaxWirePageSize is the largest hello page size accepted (1 GiB huge
	// pages).
	MaxWirePageSize = 1 << 30
	// MinWireInterval is the shortest tick interval accepted, in seconds.
	// No PEBS window is shorter than 1 ns, and with this floor the
	// detector's records·period/interval rate estimate stays finite for
	// every record count and period the wire admits.
	MinWireInterval = 1e-9
)

// ValidateQuad range-checks one NDJSON sample quad [tid, addr, width,
// write]. Both codecs enforce the same ranges; this is the quad-side
// entry point (the columnar decoder validates per column).
func ValidateQuad(q [4]uint64) error {
	if q[0] > MaxWireTID {
		return fmt.Errorf("toolio: sample tid %d out of range [0,%d]", q[0], uint64(MaxWireTID))
	}
	if q[2]-1 >= MaxWireWidth { // rejects 0 (wraps) and > MaxWireWidth
		return fmt.Errorf("toolio: sample width %d out of range [1,%d]", q[2], MaxWireWidth)
	}
	if q[3] > 1 {
		return fmt.Errorf("toolio: sample write flag %d is not 0 or 1", q[3])
	}
	return nil
}

// ValidateTick range-checks one window-closing tick, whichever codec
// carried it: seq >= 0, period >= 1, and a finite interval of at least
// MinWireInterval.
func ValidateTick(t WireTick) error {
	switch {
	case t.Seq < 0:
		return fmt.Errorf("toolio: tick seq %d is negative", t.Seq)
	case t.Period < 1:
		return fmt.Errorf("toolio: tick seq %d: period %d is not positive", t.Seq, t.Period)
	case !(t.IntervalSec >= MinWireInterval) || math.IsInf(t.IntervalSec, 1):
		return fmt.Errorf("toolio: tick seq %d: interval %g is not a finite number of seconds >= %g", t.Seq, t.IntervalSec, MinWireInterval)
	}
	return nil
}

// CheckHello validates a decoded hello message: schema version, tenant,
// page size and the negotiated wire format. PageSize 0 is allowed (the
// service substitutes its default); otherwise it must be a power of two in
// [MinWirePageSize, MaxWirePageSize].
func CheckHello(m *WireMsg) error {
	if m.K != WireHelloKind {
		return fmt.Errorf("toolio: first line must be a hello")
	}
	if _, err := checkVersion("wire hello", m.Version); err != nil {
		return err
	}
	if m.Tenant == "" {
		return fmt.Errorf("toolio: hello without tenant")
	}
	if ps := m.PageSize; ps != 0 {
		if ps < MinWirePageSize || ps > MaxWirePageSize || ps&(ps-1) != 0 {
			return fmt.Errorf("toolio: hello page size %d is not a power of two in [%d,%d]", ps, MinWirePageSize, MaxWirePageSize)
		}
	}
	switch m.Wire {
	case "", WireFormatNDJSON, WireFormatBinary:
	default:
		return fmt.Errorf("toolio: unknown wire format %q (want %q or %q)", m.Wire, WireFormatNDJSON, WireFormatBinary)
	}
	return nil
}

// SampleColumns is a columnar sample batch: the decoded form of one binary
// samples frame, and the encoder's input. All four slices share one length.
type SampleColumns struct {
	TID   []uint32
	Addr  []uint64
	Width []uint16
	Write []uint8
}

// Len reports the number of samples in the batch.
func (c *SampleColumns) Len() int { return len(c.TID) }

// Reset empties the batch, keeping capacity.
func (c *SampleColumns) Reset() {
	c.TID, c.Addr, c.Width, c.Write = c.TID[:0], c.Addr[:0], c.Width[:0], c.Write[:0]
}

// Append adds one sample to the batch. Values are the caller's
// responsibility to keep in range (the encoder re-checks nothing; the
// decoder on the far side does).
func (c *SampleColumns) Append(tid uint32, addr uint64, width uint16, write bool) {
	var w uint8
	if write {
		w = 1
	}
	c.TID = append(c.TID, tid)
	c.Addr = append(c.Addr, addr)
	c.Width = append(c.Width, width)
	c.Write = append(c.Write, w)
}

// Grow resizes the batch to n samples, reusing capacity; the column
// contents are unspecified. Bulk producers (the replay client's
// batch-conversion loop, the decoders) size once and write the columns by
// index, which is measurably cheaper than per-record Append on the ingest
// hot path.
func (c *SampleColumns) Grow(n int) {
	if cap(c.TID) < n {
		c.TID = make([]uint32, n)
		c.Addr = make([]uint64, n)
		c.Width = make([]uint16, n)
		c.Write = make([]uint8, n)
		return
	}
	c.TID, c.Addr, c.Width, c.Write = c.TID[:n], c.Addr[:n], c.Width[:n], c.Write[:n]
}

// BinWriter encodes binary wire frames onto w, reusing one scratch buffer
// across frames so a long-lived stream writer allocates nothing per batch.
type BinWriter struct {
	w   io.Writer
	buf []byte
}

// NewBinWriter returns a frame encoder writing to w.
func NewBinWriter(w io.Writer) *BinWriter { return &BinWriter{w: w} }

func (bw *BinWriter) frame(kind byte, payloadLen int) []byte {
	need := binHeaderSize + payloadLen
	if cap(bw.buf) < need {
		bw.buf = make([]byte, need)
	}
	b := bw.buf[:need]
	b[0], b[1], b[2], b[3] = wireBinMagic0, wireBinMagic1, WireBinVersion, kind
	binary.LittleEndian.PutUint32(b[4:], uint32(payloadLen))
	return b
}

// WriteSamples encodes one columnar samples frame.
func (bw *BinWriter) WriteSamples(c *SampleColumns) error {
	n := c.Len()
	if n > MaxWireBatch {
		return fmt.Errorf("toolio: samples frame of %d records exceeds batch cap %d", n, MaxWireBatch)
	}
	b := bw.frame(WireSamplesKind[0], 4+n*bytesPerSample)
	p := b[binHeaderSize:]
	binary.LittleEndian.PutUint32(p, uint32(n))
	off := 4
	for _, v := range c.TID {
		binary.LittleEndian.PutUint32(p[off:], v)
		off += 4
	}
	for _, v := range c.Addr {
		binary.LittleEndian.PutUint64(p[off:], v)
		off += 8
	}
	for _, v := range c.Width {
		binary.LittleEndian.PutUint16(p[off:], v)
		off += 2
	}
	copy(p[off:], c.Write)
	_, err := bw.w.Write(b)
	return err
}

// WriteTick encodes one tick frame.
func (bw *BinWriter) WriteTick(t WireTick) error {
	b := bw.frame(WireTickKind[0], binTickPayload)
	p := b[binHeaderSize:]
	binary.LittleEndian.PutUint64(p[0:], uint64(t.Seq))
	binary.LittleEndian.PutUint64(p[8:], math.Float64bits(t.IntervalSec))
	binary.LittleEndian.PutUint64(p[16:], uint64(t.Period))
	_, err := bw.w.Write(b)
	return err
}

// BinFrame is one decoded binary frame. Samples points at the reader's
// reused columns and is valid only until the next ReadFrame call; callers
// that hand the batch elsewhere must copy it out first (the tmid ingest
// path copies straight into its reused per-stream sample buffer).
type BinFrame struct {
	// Kind is WireSamplesKind[0] or WireTickKind[0].
	Kind byte
	// Samples is the decoded batch for a samples frame.
	Samples *SampleColumns
	// Tick is the decoded tick for a tick frame.
	Tick WireTick
}

// BinReader decodes binary wire frames from r. The frame buffer and the
// sample columns are owned by the reader and reused across frames, so
// steady-state decode allocates nothing (guarded by testing.AllocsPerRun).
type BinReader struct {
	r io.Reader
	// MaxPayload caps one frame's payload (0 means MaxWireLine).
	MaxPayload int
	// MaxBatch caps one samples frame's record count (0 means
	// MaxWireBatch).
	MaxBatch int

	raw   []byte // the last frame read, header included
	cols  SampleColumns
	frame BinFrame
}

// NewBinReader returns a frame decoder reading from r.
func NewBinReader(r io.Reader) *BinReader { return &BinReader{r: r} }

// Reset repoints the reader at a new stream, keeping its buffers.
func (br *BinReader) Reset(r io.Reader) { br.r = r }

// ReadRaw reads the next whole frame, header included, without decoding
// its payload. The header is validated here and only here: magic, version,
// kind and the payload cap. It returns io.EOF at a clean stream end
// (between frames). The returned bytes are reused by the next call.
func (br *BinReader) ReadRaw() (kind byte, raw []byte, err error) {
	if cap(br.raw) < binHeaderSize {
		br.raw = make([]byte, binHeaderSize)
	}
	hdr := br.raw[:binHeaderSize]
	if _, err := io.ReadFull(br.r, hdr); err != nil {
		if err == io.EOF {
			return 0, nil, io.EOF
		}
		return 0, nil, fmt.Errorf("toolio: truncated frame header: %w", err)
	}
	if hdr[0] != wireBinMagic0 || hdr[1] != wireBinMagic1 {
		return 0, nil, fmt.Errorf("toolio: bad frame magic 0x%02x%02x", hdr[0], hdr[1])
	}
	if v := int(hdr[2]); v != WireBinVersion {
		return 0, nil, fmt.Errorf("toolio: frame version %d, this reader speaks %d", v, WireBinVersion)
	}
	kind = hdr[3]
	if kind != WireSamplesKind[0] && kind != WireTickKind[0] {
		return 0, nil, fmt.Errorf("toolio: unknown frame kind 0x%02x", kind)
	}
	n := int(binary.LittleEndian.Uint32(hdr[4:]))
	maxPayload := br.MaxPayload
	if maxPayload <= 0 {
		maxPayload = MaxWireLine
	}
	if n > maxPayload {
		return 0, nil, fmt.Errorf("toolio: frame payload %d exceeds cap %d", n, maxPayload)
	}
	if cap(br.raw) < binHeaderSize+n {
		br.raw = append(hdr, make([]byte, n)...)
	}
	raw = br.raw[:binHeaderSize+n]
	if got, err := io.ReadFull(br.r, raw[binHeaderSize:]); err != nil {
		return 0, nil, fmt.Errorf("toolio: truncated frame payload (%d of %d bytes): %w", got, n, err)
	}
	return kind, raw, nil
}

// ReadFrame reads the next frame with ReadRaw and decodes its payload. It
// returns io.EOF at a clean stream end and a descriptive error for
// truncated, oversized, unversioned or out-of-range input. The returned
// frame's sample columns are reused by the next call.
func (br *BinReader) ReadFrame() (*BinFrame, error) {
	kind, raw, err := br.ReadRaw()
	if err != nil {
		return nil, err
	}
	p := raw[binHeaderSize:]
	if kind == WireSamplesKind[0] {
		if err := br.decodeSamples(p); err != nil {
			return nil, err
		}
		br.frame = BinFrame{Kind: kind, Samples: &br.cols}
		return &br.frame, nil
	}
	tick, err := decodeTick(p)
	if err != nil {
		return nil, err
	}
	br.frame = BinFrame{Kind: kind, Tick: tick}
	return &br.frame, nil
}

// decodeSamples unpacks the four columns, validating each column with an
// OR accumulator instead of a per-record branch: MaxWireTID is a bit mask,
// width-1 must fit in 6 bits and the write byte in 1, so a single OR of
// the out-of-range bits over the whole column catches any violation.
func (br *BinReader) decodeSamples(p []byte) error {
	if len(p) < 4 {
		return fmt.Errorf("toolio: samples frame payload %d bytes, want at least 4", len(p))
	}
	n := int(binary.LittleEndian.Uint32(p))
	maxBatch := br.MaxBatch
	if maxBatch <= 0 {
		maxBatch = MaxWireBatch
	}
	if n > maxBatch {
		return fmt.Errorf("toolio: samples frame of %d records exceeds batch cap %d", n, maxBatch)
	}
	if want := 4 + n*bytesPerSample; len(p) != want {
		return fmt.Errorf("toolio: samples frame of %d records has %d payload bytes, want %d", n, len(p), want)
	}
	br.cols.Grow(n)
	c := &br.cols

	var badTID uint32
	tids := p[4 : 4+4*n]
	for i := range c.TID {
		v := binary.LittleEndian.Uint32(tids[4*i:])
		c.TID[i] = v
		badTID |= v &^ MaxWireTID
	}
	addrs := p[4+4*n : 4+12*n]
	for i := range c.Addr {
		c.Addr[i] = binary.LittleEndian.Uint64(addrs[8*i:])
	}
	var badWidth uint16
	widths := p[4+12*n : 4+14*n]
	for i := range c.Width {
		v := binary.LittleEndian.Uint16(widths[2*i:])
		c.Width[i] = v
		badWidth |= (v - 1) &^ (MaxWireWidth - 1)
	}
	var badWrite uint8
	writes := p[4+14*n : 4+15*n]
	for i := range c.Write {
		v := writes[i]
		c.Write[i] = v
		badWrite |= v &^ 1
	}
	if badTID != 0 {
		return fmt.Errorf("toolio: samples frame carries a tid out of range [0,%d]", uint64(MaxWireTID))
	}
	if badWidth != 0 {
		return fmt.Errorf("toolio: samples frame carries a width out of range [1,%d]", MaxWireWidth)
	}
	if badWrite != 0 {
		return fmt.Errorf("toolio: samples frame carries a write flag that is not 0 or 1")
	}
	return nil
}

func decodeTick(p []byte) (WireTick, error) {
	if len(p) != binTickPayload {
		return WireTick{}, fmt.Errorf("toolio: tick frame payload %d bytes, want %d", len(p), binTickPayload)
	}
	t := WireTick{
		K:           WireTickKind,
		Seq:         int(int64(binary.LittleEndian.Uint64(p[0:]))),
		IntervalSec: math.Float64frombits(binary.LittleEndian.Uint64(p[8:])),
		Period:      int(int64(binary.LittleEndian.Uint64(p[16:]))),
	}
	if err := ValidateTick(t); err != nil {
		return WireTick{}, err
	}
	return t, nil
}
