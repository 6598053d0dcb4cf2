// Package srcvet is the source-level false-sharing analyzer: it points
// TMI's detect→repair loop at real Go packages that have never executed.
//
// Where tmilint (internal/analysis) models programs written against the
// internal workload DSL by running them, srcvet type-checks arbitrary Go source
// with go/types, computes exact field offsets and sizes under
// types.StdSizes{WordSize: 8, MaxAlign: 8}, and maps every struct and
// written region onto 64-byte cache lines — the layout pass. An ownership
// pass then walks the AST to infer per-goroutine writers: fields written
// inside distinct `go` statements, slices and arrays of sub-line elements
// indexed by a worker-loop variable, writes serialized under a held
// sync.Mutex (one logical writer per critical section), and the lock words
// themselves, which every contending goroutine hammers. A line with two or
// more inferred writers on disjoint bytes is flagged with the same
// classifier the dynamic detector applies to PEBS samples
// (analysis.ClassifyLine).
//
// Because the ownership heuristics are necessarily unsound (see DESIGN
// §14), every finding can be cross-checked by the confirmation bridge:
// the flagged line is lowered to a tmi/workload program — one disasm site
// per field, one simulated thread per inferred writer — and run through
// both the static model (analysis.BuildModel) and the dynamic PEBS/HITM
// detector (tmi.Run, TMIDetect). Findings the dynamic detector reproduces
// are graded "confirmed"; the rest stay "static-only", exactly like
// tmilint's recall comparison.
//
// The repair planner computes `_ [N]byte` padding insertions that isolate
// each writer onto a private line, and an advice line where no edit can be
// planned (a scalar element, an unnamed struct, an interleaved field
// order); -fix renders the paddings as a unified diff.
package srcvet

import (
	"fmt"
	"go/token"
	"go/types"
	"sort"

	"repro/internal/analysis"
	"repro/internal/detect"
	"repro/internal/toolio"
)

// LineBytes is the modeled coherence granularity, matching the simulator.
const LineBytes = 64

// Sizes is the modeled target layout: 64-bit words, 8-byte max alignment —
// the same model the simulator's allocator uses.
var Sizes = types.StdSizes{WordSize: 8, MaxAlign: 8}

// Options configures an analysis run.
type Options struct {
	// Confirm runs every finding through the simulator confirmation
	// bridge (static model + dynamic detector).
	Confirm bool
	// Seed drives the confirmation runs' determinism (default 1).
	Seed int64
	// SpawnCount is the writer count assumed for worker-spawn loops whose
	// trip count is not a compile-time constant (default 4).
	SpawnCount int
	// MaxRegionLines caps how many 64-byte lines of one region are
	// classified (default 64 — one 4 KiB page); larger regions truncate.
	MaxRegionLines int
	// Waivers holds finding IDs suppressed by the waiver file.
	Waivers map[string]string
}

func (o Options) withDefaults() Options {
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.SpawnCount <= 0 {
		o.SpawnCount = 4
	}
	if o.MaxRegionLines <= 0 {
		o.MaxRegionLines = 64
	}
	return o
}

// WriterInfo describes one inferred writer's footprint on a flagged line.
type WriterInfo struct {
	// Desc names the writer: "go file:line", "go file:line[k]" for the
	// k-th goroutine of a spawn loop, "critsec(mu)" for writes serialized
	// under a held lock, "lock-word(mu)" for the lock word itself, and
	// "caller file:line" for the spawning goroutine.
	Desc string
	// Refs are the writer's byte ranges on the line, line-relative.
	Refs []ByteRange
	// Atomic marks a writer whose accesses go through sync/atomic.
	Atomic bool
}

// ByteRange is one written [Off, Off+Size) span, with the source path that
// produced it ("Counters[i]", "Stats.Hits").
type ByteRange struct {
	Off  int64
	Size int64
	Path string
}

// Finding is one flagged cache line of one region.
type Finding struct {
	// ID is the stable waiver key "<pkg>:<region>:line<N>".
	ID string
	// Pkg is the scanned package's display path.
	Pkg string
	// Region names the struct type or root variable.
	Region string
	// Pos locates the region's declaration.
	Pos token.Position
	// LineIndex is the 64-byte line index within the region layout.
	LineIndex int
	// Class is the shared classifier's verdict (always SharingFalse for
	// emitted findings; true-sharing lines are counted, not flagged).
	Class detect.Sharing
	// Writers lists the inferred writers, ordered by first byte.
	Writers []WriterInfo
	// Repairs are the computed source edits for the whole region (shared
	// by all of its findings; populated on the first).
	Repairs []Repair
	// Confirmation is the bridge grade (toolio.Confirm*).
	Confirmation string
	// Waived marks a finding suppressed by the waiver file.
	Waived bool

	region *region // for the bridge and the fixer
}

// Spans renders the writers' byte ranges, e.g. "0-7 vs 8-15".
func (f *Finding) Spans() string {
	parts := make([]string, 0, len(f.Writers))
	for _, w := range f.Writers {
		lo, hi := int64(1)<<62, int64(-1)
		for _, r := range w.Refs {
			if r.Off < lo {
				lo = r.Off
			}
			if r.Off+r.Size-1 > hi {
				hi = r.Off + r.Size - 1
			}
		}
		if hi < 0 {
			continue
		}
		parts = append(parts, fmt.Sprintf("%d-%d", lo, hi))
	}
	out := ""
	for i, p := range parts {
		if i > 0 {
			out += " vs "
		}
		out += p
	}
	return out
}

// Result is the outcome of analyzing a set of packages.
type Result struct {
	Findings []*Finding
	// Packages/Regions/TrueLines are scan counters: packages loaded,
	// written regions assembled, lines classified as true sharing (not
	// flagged — genuinely shared data is not a layout bug).
	Packages  int
	Regions   int
	TrueLines int
	// Errors holds per-package load failures (the scan continues).
	Errors []error
}

// OK reports whether every finding is waived.
func (r *Result) OK() bool {
	for _, f := range r.Findings {
		if !f.Waived {
			return false
		}
	}
	return len(r.Errors) == 0
}

// Report converts the result to the shared toolio schema.
func (r *Result) Report() *toolio.VetReport {
	rep := toolio.NewVetReport("tmivet")
	for _, f := range r.Findings {
		vf := toolio.VetFinding{
			ID:           f.ID,
			Pkg:          f.Pkg,
			Region:       f.Region,
			File:         f.Pos.Filename,
			Line:         f.Pos.Line,
			CacheLine:    f.LineIndex,
			Spans:        f.Spans(),
			Confirmation: f.Confirmation,
			Waived:       f.Waived,
		}
		for _, w := range f.Writers {
			vf.Writers = append(vf.Writers, w.Desc)
		}
		for _, rp := range f.Repairs {
			vf.Repairs = append(vf.Repairs, toolio.VetRepair{
				Kind: rp.Kind, Struct: rp.Struct, After: rp.After,
				Bytes: rp.Bytes, Detail: rp.Detail,
			})
		}
		rep.Add(vf)
	}
	rep.AddStat("packages", float64(r.Packages))
	rep.AddStat("regions", float64(r.Regions))
	rep.AddStat("true_lines", float64(r.TrueLines))
	rep.AddStat("findings", float64(len(r.Findings)))
	for _, err := range r.Errors {
		// Load errors surface as synthetic findings so CI cannot miss them.
		rep.Add(toolio.VetFinding{
			ID: "error", Region: "load", Confirmation: toolio.ConfirmSkipped,
			Spans: err.Error(),
		})
	}
	return rep
}

// Analyze runs the layout and ownership passes over the given loaded
// packages and classifies every written region, then (with opt.Confirm)
// grades each finding through the simulator bridge.
func Analyze(pkgs []*Package, opt Options) *Result {
	opt = opt.withDefaults()
	res := &Result{Packages: len(pkgs)}
	for _, pkg := range pkgs {
		regions := inferOwnership(pkg, opt)
		res.Regions += len(regions)
		for _, rg := range regions {
			findings, trueLines := classifyRegion(pkg, rg, opt)
			res.TrueLines += trueLines
			res.Findings = append(res.Findings, findings...)
		}
	}
	sort.Slice(res.Findings, func(i, j int) bool { return res.Findings[i].ID < res.Findings[j].ID })
	for _, f := range res.Findings {
		if w, ok := opt.Waivers[f.ID]; ok {
			_ = w
			f.Waived = true
		}
		switch {
		case !opt.Confirm || f.Waived:
			f.Confirmation = toolio.ConfirmSkipped
		default:
			f.Confirmation = confirm(f, opt.Seed)
		}
	}
	return res
}

// classifyRegion maps one region's writer refs onto 64-byte lines and
// classifies each line with the shared classifier.
func classifyRegion(pkg *Package, rg *region, opt Options) ([]*Finding, int) {
	type lineAcc struct {
		foots   map[int]*analysis.Foot
		writers map[int]*WriterInfo
	}
	lines := map[int64]*lineAcc{}
	maxLine := int64(opt.MaxRegionLines)
	for wid, w := range rg.writers {
		for _, ref := range w.refs {
			lo, hi := ref.off, ref.off+ref.size
			if lo < 0 || hi <= lo {
				continue
			}
			for b := lo; b < hi; b++ {
				li := b / LineBytes
				if li >= maxLine {
					break
				}
				la := lines[li]
				if la == nil {
					la = &lineAcc{foots: map[int]*analysis.Foot{}, writers: map[int]*WriterInfo{}}
					lines[li] = la
				}
				ft := la.foots[wid]
				if ft == nil {
					ft = &analysis.Foot{}
					la.foots[wid] = ft
					la.writers[wid] = &WriterInfo{Desc: w.desc, Atomic: w.atomic}
				}
				bit := uint(b % LineBytes)
				if ft.WriteMask&(1<<bit) == 0 {
					ft.WriteMask |= 1 << bit
				}
				ft.Writes++
			}
			// Record the line-relative range(s) on every line touched.
			for li := lo / LineBytes; li <= (hi-1)/LineBytes && li < maxLine; li++ {
				la := lines[li]
				wi := la.writers[wid]
				rlo := max64(lo, li*LineBytes) - li*LineBytes
				rhi := min64(hi, (li+1)*LineBytes) - li*LineBytes
				wi.Refs = append(wi.Refs, ByteRange{Off: rlo, Size: rhi - rlo, Path: ref.path})
			}
		}
	}

	var found []*Finding
	trueLines := 0
	idxs := make([]int64, 0, len(lines))
	for li := range lines {
		idxs = append(idxs, li)
	}
	sort.Slice(idxs, func(i, j int) bool { return idxs[i] < idxs[j] })
	for _, li := range idxs {
		la := lines[li]
		p := analysis.ClassifyLine(&analysis.LineModel{Line: uint64(li), PerThread: la.foots})
		switch p.Class {
		case detect.SharingTrue:
			trueLines++
		case detect.SharingFalse:
			f := &Finding{
				ID:        fmt.Sprintf("%s:%s:line%d", pkg.Rel, rg.name, li),
				Pkg:       pkg.Rel,
				Region:    rg.name,
				Pos:       pkg.Fset.Position(rg.pos),
				LineIndex: int(li),
				Class:     detect.SharingFalse,
				region:    rg,
			}
			wids := make([]int, 0, len(la.writers))
			for wid := range la.writers {
				wids = append(wids, wid)
			}
			sort.Slice(wids, func(i, j int) bool {
				return firstByte(la.writers[wids[i]]) < firstByte(la.writers[wids[j]])
			})
			for _, wid := range wids {
				f.Writers = append(f.Writers, *dedupRefs(la.writers[wid]))
			}
			found = append(found, f)
		}
	}
	if len(found) > 0 {
		repairs := planRepairs(pkg, rg, found)
		found[0].Repairs = repairs
	}
	return found, trueLines
}

func firstByte(w *WriterInfo) int64 {
	lo := int64(1) << 62
	for _, r := range w.Refs {
		if r.Off < lo {
			lo = r.Off
		}
	}
	return lo
}

// dedupRefs collapses duplicate (Off,Size,Path) ranges accumulated across
// loop iterations of the scan.
func dedupRefs(w *WriterInfo) *WriterInfo {
	seen := map[ByteRange]bool{}
	out := w.Refs[:0]
	for _, r := range w.Refs {
		if !seen[r] {
			seen[r] = true
			out = append(out, r)
		}
	}
	w.Refs = out
	sort.Slice(w.Refs, func(i, j int) bool {
		if w.Refs[i].Off != w.Refs[j].Off {
			return w.Refs[i].Off < w.Refs[j].Off
		}
		return w.Refs[i].Path < w.Refs[j].Path
	})
	return w
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
