package toolio

import (
	"bufio"
	"bytes"
	"strings"
	"testing"
)

// wireRoundTripMsgs is one message of every kind, shared by
// TestWireRoundTrip and the FuzzDecodeWireMsg seed corpus.
var wireRoundTripMsgs = []any{
	WireHello{K: WireHelloKind, Version: SchemaVersion, Tenant: "run-42", PageSize: 4096},
	WireSamples{K: WireSamplesKind, S: [][4]uint64{{3, 0x7f001040, 8, 1}, {0, 0x7f001048, 4, 0}}},
	WireTick{K: WireTickKind, Seq: 7, IntervalSec: 0.0001, Period: 100},
	WireAdvice{
		K: WireAdviceKind, Seq: 7, Records: 37, NextPeriod: 400,
		Backend: "tmebox",
		Pages:   []uint64{0x7f000000},
		Lines:   []WireLine{{Line: 0x7f001040, Class: "false", Records: 37, EstPerSec: 3.7e5, DroppedSpans: 1}},
	},
	WireError{K: WireErrorKind, Error: "shard overloaded, batch dropped", RetryMs: 1000},
}

func TestWireRoundTrip(t *testing.T) {
	for _, msg := range wireRoundTripMsgs {
		line := EncodeWire(msg)
		if !bytes.HasSuffix(line, []byte("\n")) {
			t.Fatalf("%T: encoded line not newline-terminated: %q", msg, line)
		}
		m, err := DecodeWireMsg(bytes.TrimSuffix(line, []byte("\n")))
		if err != nil {
			t.Fatalf("%T: decode: %v", msg, err)
		}
		switch want := msg.(type) {
		case WireHello:
			if m.K != want.K || m.Version != want.Version || m.Tenant != want.Tenant || m.PageSize != want.PageSize {
				t.Errorf("hello did not round-trip: %+v", m)
			}
		case WireSamples:
			if m.K != want.K || len(m.S) != len(want.S) || m.S[0] != want.S[0] || m.S[1] != want.S[1] {
				t.Errorf("samples did not round-trip: %+v", m)
			}
		case WireTick:
			if m.K != want.K || m.Seq != want.Seq || m.IntervalSec != want.IntervalSec || m.Period != want.Period {
				t.Errorf("tick did not round-trip: %+v", m)
			}
		case WireAdvice:
			if m.K != want.K || m.Seq != want.Seq || m.Records != want.Records || m.NextPeriod != want.NextPeriod ||
				m.Backend != want.Backend ||
				len(m.Pages) != 1 || m.Pages[0] != want.Pages[0] || len(m.Lines) != 1 || m.Lines[0] != want.Lines[0] {
				t.Errorf("advice did not round-trip: %+v", m)
			}
		case WireError:
			if m.K != want.K || m.Error != want.Error || m.RetryMs != want.RetryMs {
				t.Errorf("error did not round-trip: %+v", m)
			}
		}
	}
}

// TestAdviceBackendFieldIsAdditive pins the v2 compatibility contract: an
// advice without a backend recommendation encodes with no "backend" key at
// all (byte-identical to schema v1 advice), a v1 decoder's union reads a
// v2 advice-with-backend line without error, and hellos follow the same
// version policy as documents — legacy 0 reads as 1, anything up to
// SchemaVersion is accepted, newer is rejected.
func TestAdviceBackendFieldIsAdditive(t *testing.T) {
	plain := WireAdvice{K: WireAdviceKind, Seq: 3, Records: 12, NextPeriod: 100, Pages: []uint64{4096}}
	if line := EncodeWire(plain); bytes.Contains(line, []byte("backend")) {
		t.Errorf("advice without recommendation must omit the backend key: %q", line)
	}
	rec := plain
	rec.Backend = "pad"
	line := EncodeWire(rec)
	m, err := DecodeWireMsg(bytes.TrimSuffix(line, []byte("\n")))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if m.Backend != "pad" || m.Seq != 3 || len(m.Pages) != 1 {
		t.Errorf("backend advice did not round-trip: %+v", m)
	}
	// A v1 reader ignores unknown keys: the same line minus our knowledge
	// of the field still decodes (encoding/json drops unknown fields).
	if _, err := DecodeWireMsg([]byte(`{"k":"a","seq":3,"backend":"pad","future_field":true}`)); err != nil {
		t.Errorf("decoder must tolerate unknown advice fields: %v", err)
	}
}

func TestHelloVersionHandling(t *testing.T) {
	check := func(line string) error {
		m, err := DecodeWireMsg([]byte(line))
		if err != nil {
			return err
		}
		return CheckHello(m)
	}
	// Legacy version-0 (pre-versioning) and every version up to the
	// current schema are accepted.
	if err := check(`{"k":"h","tenant":"legacy","page_size":4096}`); err != nil {
		t.Errorf("legacy version-0 hello rejected: %v", err)
	}
	if err := check(`{"k":"h","v":1,"tenant":"v1-client","page_size":4096}`); err != nil {
		t.Errorf("version-1 hello rejected: %v", err)
	}
	if err := check(`{"k":"h","v":2,"tenant":"v2-client","page_size":4096}`); err != nil {
		t.Errorf("current-version hello rejected: %v", err)
	}
	// Futures are rejected, not misread.
	if err := check(`{"k":"h","v":99,"tenant":"time-traveler"}`); err == nil {
		t.Error("accepted a hello with a future schema version")
	}
}

// TestReadHello pins the hello reader's answers: the "empty stream" error
// is for an input that ends before any byte, an oversized or malformed
// first line reports itself, a valid hello comes back with its raw line
// and a defaulted page size, and the reader stops at the hello's '\n'.
func TestReadHello(t *testing.T) {
	for _, tc := range []struct {
		name, in, want string
	}{
		{"empty", "", "empty stream"},
		{"oversized", `{"k":"h","tenant":"` + strings.Repeat("x", 64) + `"}` + "\n", "exceeds"},
		{"bad-json", "{not json}\n", "first line must be a hello"},
		{"not-hello", `{"k":"t","seq":0}` + "\n", "first line must be a hello"},
		{"no-tenant", `{"k":"h","v":1}` + "\n", "tenant"},
	} {
		hello, raw, err := ReadHello(bufio.NewReader(strings.NewReader(tc.in)), 64)
		if err == nil || !strings.Contains(err.Error(), tc.want) || hello != nil || raw != nil {
			t.Errorf("%s: hello %v raw %q error %v, want an error mentioning %q", tc.name, hello, raw, err, tc.want)
		}
	}
	line := `{"k":"h","v":1,"tenant":"t1"}` + "\n"
	br := bufio.NewReader(strings.NewReader(line + "rest"))
	hello, raw, err := ReadHello(br, 0)
	if err != nil || hello.Tenant != "t1" || hello.PageSize != 4096 || string(raw) != line {
		t.Fatalf("ReadHello = %+v, %q, %v; want tenant t1, page size 4096, raw %q", hello, raw, err, line)
	}
	if rest, _ := br.ReadString(0); rest != "rest" {
		t.Errorf("ReadHello consumed past the hello: %q left", rest)
	}
}

func TestWireEncodingIsDeterministic(t *testing.T) {
	adv := WireAdvice{K: WireAdviceKind, Seq: 1, Records: 5, NextPeriod: 100, Pages: []uint64{4096}}
	a, b := EncodeWire(adv), EncodeWire(adv)
	if !bytes.Equal(a, b) {
		t.Errorf("two encodings of the same advice differ: %q vs %q", a, b)
	}
}

func TestDecodeWireMsgRejectsKindless(t *testing.T) {
	if _, err := DecodeWireMsg([]byte(`{"seq":1}`)); err == nil {
		t.Error("accepted a wire line without a kind")
	}
	if _, err := DecodeWireMsg([]byte(`{`)); err == nil {
		t.Error("accepted malformed JSON")
	}
}

func TestReportVersionRoundTrip(t *testing.T) {
	r := NewReport("tmilint")
	if r.Version != SchemaVersion {
		t.Fatalf("NewReport version = %d, want %d", r.Version, SchemaVersion)
	}
	r.Add(Finding{Workload: "histogramfs", Rule: "region-balance", Detail: "unbalanced"})
	r.AddStat("runs", 3)

	var buf bytes.Buffer
	if err := r.Write(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadReport(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Version != SchemaVersion || back.Tool != "tmilint" || back.OK || len(back.Findings) != 1 {
		t.Errorf("report did not round-trip: %+v", back)
	}
	if back.Findings[0].Rule != "region-balance" || back.Stats["runs"] != 3 {
		t.Errorf("payload did not round-trip: %+v", back)
	}
}

func TestReadReportVersionHandling(t *testing.T) {
	// Pre-versioning documents (no version field) read as version 1.
	back, err := ReadReport(strings.NewReader(`{"tool":"tmimc","ok":true,"findings":[]}`))
	if err != nil {
		t.Fatal(err)
	}
	if back.Version != 1 {
		t.Errorf("legacy document version = %d, want 1", back.Version)
	}
	// Documents newer than this tool are rejected, not misread.
	if _, err := ReadReport(strings.NewReader(`{"version":99,"tool":"tmimc","ok":true}`)); err == nil {
		t.Error("accepted a document with a future schema version")
	}
}

func TestBenchReportVersionRoundTrip(t *testing.T) {
	r := NewBenchReport("2026-08-05", 8, 3, 1)
	if r.Version != SchemaVersion {
		t.Fatalf("NewBenchReport version = %d, want %d", r.Version, SchemaVersion)
	}
	var buf bytes.Buffer
	if err := r.Write(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadBenchReport(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Version != SchemaVersion {
		t.Errorf("bench report version = %d, want %d", back.Version, SchemaVersion)
	}
	if _, err := ReadBenchReport(strings.NewReader(`{"version":99,"tool":"tmibench"}`)); err == nil {
		t.Error("accepted a bench report with a future schema version")
	}
}
