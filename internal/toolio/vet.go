package toolio

// The tmivet report schema: source-level false-sharing findings over real
// Go packages, graded by the simulator confirmation bridge. tmivet shares
// this package with tmilint and tmimc so CI consumes one version axis —
// VetReport carries the same SchemaVersion stamp, legacy-0 normalization
// and future-version rejection as the checker Report.

import (
	"fmt"
	"io"
)

// Confirmation grades for a VetFinding, mirroring tmilint's recall
// comparison vocabulary: a finding is "confirmed" when the synthesized
// workload reproduced false sharing under the dynamic PEBS/HITM detector,
// "static-only" when only the layout model flags it, and "skipped" when
// the bridge was disabled or the finding was waived.
const (
	ConfirmConfirmed  = "confirmed"
	ConfirmStaticOnly = "static-only"
	ConfirmSkipped    = "skipped"
)

// VetRepair is one proposed source edit: a padding insertion ("pad",
// `_ [Bytes]byte` after field After; "pad-elem", the same pad inside an
// element struct) or, where no edit can be planned, an advisory ("advice",
// Detail says what to change by hand, such as a field order or a padded
// element type). Struct names the type or variable the edit applies to.
type VetRepair struct {
	Kind   string `json:"kind"`
	Struct string `json:"struct"`
	After  string `json:"after,omitempty"`
	Bytes  int64  `json:"bytes,omitempty"`
	Detail string `json:"detail,omitempty"`
}

// VetFinding is one flagged cache line of one region (a struct type or a
// package-level/escaping variable) in real Go source.
type VetFinding struct {
	// ID is the stable waiver key: "<pkg>:<region>:line<N>".
	ID string `json:"id"`
	// Pkg is the package directory relative to the scan root.
	Pkg string `json:"pkg"`
	// Region names the flagged struct type or variable.
	Region string `json:"region"`
	// File/Line locate the region's declaration.
	File string `json:"file"`
	Line int    `json:"line"`
	// CacheLine is the 64-byte line index within the region's layout.
	CacheLine int `json:"cache_line"`
	// Writers describes the inferred per-goroutine writers on the line.
	Writers []string `json:"writers"`
	// Spans renders the disjoint byte ranges, e.g. "0-7 vs 8-15".
	Spans string `json:"spans,omitempty"`
	// Confirmation is one of the Confirm* grades.
	Confirmation string `json:"confirmation"`
	// Waived marks a finding suppressed by the waiver file; waived
	// findings do not fail the run.
	Waived bool `json:"waived,omitempty"`
	// Repairs are the computed source edits that would isolate the
	// writers onto private lines.
	Repairs []VetRepair `json:"repairs,omitempty"`
}

// VetReport is the top-level document `tmivet -json` emits.
type VetReport struct {
	// Version is the schema version (SchemaVersion at write time).
	Version int    `json:"version"`
	Tool    string `json:"tool"`
	// OK is true iff every finding is waived — the bit CI gates on.
	OK       bool         `json:"ok"`
	Findings []VetFinding `json:"findings"`
	// Stats carries scan counters (packages, regions, wall_seconds, ...).
	Stats map[string]float64 `json:"stats,omitempty"`
}

// NewVetReport builds an empty, passing tmivet report.
func NewVetReport(tool string) *VetReport {
	return &VetReport{Version: SchemaVersion, Tool: tool, OK: true, Findings: []VetFinding{}, Stats: map[string]float64{}}
}

// Add appends a finding and recomputes the verdict: any unwaived finding
// flips OK off.
func (r *VetReport) Add(f VetFinding) {
	r.Findings = append(r.Findings, f)
	if !f.Waived {
		r.OK = false
	}
}

// AddStat records one numeric stat.
func (r *VetReport) AddStat(key string, v float64) { r.Stats[key] = v }

// Write emits the report as indented JSON.
func (r *VetReport) Write(w io.Writer) error {
	return writeDoc(w, r)
}

// ReadVetReport parses a tmivet report, normalizing pre-versioning
// documents and rejecting ones newer than this tool understands.
func ReadVetReport(rd io.Reader) (*VetReport, error) {
	var r VetReport
	return readDoc(rd, "vet report", &r, &r.Version)
}

// Grade validates a confirmation grade string.
func Grade(s string) (string, error) {
	switch s {
	case ConfirmConfirmed, ConfirmStaticOnly, ConfirmSkipped:
		return s, nil
	}
	return "", fmt.Errorf("toolio: unknown confirmation grade %q", s)
}
