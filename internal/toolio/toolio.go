// Package toolio defines the machine-readable report schema shared by the
// repository's checker CLIs (tmilint, tmimc) under their -json flags. CI
// consumes one format regardless of which tool produced it: a report is a
// tool name, a verdict, a flat list of findings and a bag of numeric stats.
package toolio

import (
	"encoding/json"
	"fmt"
	"io"
)

// SchemaVersion is stamped into every document this package defines — the
// checker Report, the benchmark-trajectory BenchReport, and the tmid wire
// protocol's hello — so producers and consumers across PRs agree on one
// version axis. Documents written before versioning existed carry 0 and are
// read as version 1.
//
// Version history:
//
//	1  initial versioned schema
//	2  advice messages gain an optional "backend" repair-strategy
//	   recommendation (omitted when the service has no recommendation
//	   policy, so version-1 advice bytes are unchanged)
const SchemaVersion = 2

// checkVersion validates a decoded document's version field.
func checkVersion(kind string, v int) (int, error) {
	if v == 0 {
		return 1, nil // pre-versioning document
	}
	if v > SchemaVersion {
		return 0, fmt.Errorf("toolio: %s schema version %d is newer than this tool's %d", kind, v, SchemaVersion)
	}
	return v, nil
}

// readDoc decodes one versioned document into doc and normalizes its
// version field: pre-versioning documents read as version 1, and ones
// newer than this tool are rejected.
func readDoc[T any](rd io.Reader, kind string, doc *T, version *int) (*T, error) {
	if err := json.NewDecoder(rd).Decode(doc); err != nil {
		return nil, err
	}
	v, err := checkVersion(kind, *version)
	if err != nil {
		return nil, err
	}
	*version = v
	return doc, nil
}

// writeDoc emits a document as indented JSON.
func writeDoc(w io.Writer, doc any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// Finding is one diagnostic from any checker. Rule is the stable,
// tool-scoped identifier CI filters on (tmilint: the verifier rule names;
// tmimc: "sc-divergence", "data-race", "validation", "incomplete").
type Finding struct {
	Tool     string `json:"tool"`
	Workload string `json:"workload"`
	Rule     string `json:"rule"`
	Site     string `json:"site,omitempty"`
	PC       uint64 `json:"pc,omitempty"`
	Detail   string `json:"detail"`
}

// Report is the top-level JSON document a tool emits.
type Report struct {
	// Version is the schema version (SchemaVersion at write time).
	Version int    `json:"version"`
	Tool    string `json:"tool"`
	// OK is true iff Findings is empty — the single bit CI gates on.
	OK       bool      `json:"ok"`
	Findings []Finding `json:"findings"`
	// Stats carries tool-specific counters (runs, outcomes, sites, ...),
	// keyed "<workload>.<metric>" or plain "<metric>" for globals.
	Stats map[string]float64 `json:"stats,omitempty"`
}

// NewReport builds an empty, passing report for one tool.
func NewReport(tool string) *Report {
	return &Report{Version: SchemaVersion, Tool: tool, OK: true, Findings: []Finding{}, Stats: map[string]float64{}}
}

// ReadReport parses a checker report, normalizing pre-versioning documents
// and rejecting ones newer than this tool understands.
func ReadReport(rd io.Reader) (*Report, error) {
	var r Report
	return readDoc(rd, "report", &r, &r.Version)
}

// SuggestRepair is one proposed source-level repair in the suggest schema:
// a site name, a repair kind ("atomic", "order", "fence-before",
// "fence-after") and a C11 memory order ("relaxed", "acquire", "release",
// "acq_rel", "seq_cst"), plus the evidence that produced it. Kinds and
// orders travel as strings so the schema is self-describing and does not
// leak internal enums.
type SuggestRepair struct {
	Site   string `json:"site"`
	Kind   string `json:"kind"`
	Order  string `json:"order"`
	Reason string `json:"reason,omitempty"`
}

// SuggestReport is the document `tmilint -suggest -json` emits and
// `tmimc -apply` consumes: a minimized repair set for one workload.
type SuggestReport struct {
	// Version is the schema version (SchemaVersion at write time).
	Version  int    `json:"version"`
	Tool     string `json:"tool"`
	Workload string `json:"workload"`
	// Clean reports whether the analysis is defect-free after applying
	// every repair; false means the round budget ran out with Residual
	// defects left.
	Clean    bool            `json:"clean"`
	Repairs  []SuggestRepair `json:"repairs"`
	Residual []string        `json:"residual,omitempty"`
}

// NewSuggestReport builds an empty suggest report for one tool/workload.
func NewSuggestReport(tool, workload string) *SuggestReport {
	return &SuggestReport{
		Version: SchemaVersion, Tool: tool, Workload: workload,
		Repairs: []SuggestRepair{},
	}
}

// ReadSuggestReport parses a suggest report, normalizing pre-versioning
// documents and rejecting ones newer than this tool understands.
func ReadSuggestReport(rd io.Reader) (*SuggestReport, error) {
	var r SuggestReport
	return readDoc(rd, "suggest report", &r, &r.Version)
}

// Write emits the suggest report as indented JSON.
func (r *SuggestReport) Write(w io.Writer) error {
	return writeDoc(w, r)
}

// Add appends a finding (stamping the tool name) and flips the verdict.
func (r *Report) Add(f Finding) {
	f.Tool = r.Tool
	r.Findings = append(r.Findings, f)
	r.OK = false
}

// AddStat records one numeric stat.
func (r *Report) AddStat(key string, v float64) { r.Stats[key] = v }

// Write emits the report as indented JSON.
func (r *Report) Write(w io.Writer) error {
	return writeDoc(w, r)
}
