package srcvet

// The repair planner: computed `_ [N]byte` padding insertions, and
// advisories where no edit can be planned, that give each inferred writer a
// private cache line, plus the -fix preview that applies the paddings to the
// AST and renders a unified diff.

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/format"
	"go/printer"
	"go/token"
	"go/types"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Repair is one proposed source edit.
type Repair struct {
	// Kind is "pad" (insert `_ [Bytes]byte` after field After of Struct),
	// "pad-elem" (trailing pad inside element struct Struct), or "advice"
	// (no edit is planned; Detail says what to change by hand).
	// Every pad has Bytes > 0.
	Kind   string
	Struct string
	After  string
	Bytes  int64
	Detail string
}

func (r Repair) String() string {
	switch r.Kind {
	case "pad", "pad-elem":
		return fmt.Sprintf("insert `_ [%d]byte` after %s.%s%s", r.Bytes, r.Struct, r.After, suffixDetail(r.Detail))
	default: // "advice"
		return fmt.Sprintf("%s %s: %s", r.Kind, r.Struct, r.Detail)
	}
}

func suffixDetail(d string) string {
	if d == "" {
		return ""
	}
	return " (" + d + ")"
}

// planRepairs computes the repair set for one flagged region.
func planRepairs(pkg *Package, rg *region, findings []*Finding) []Repair {
	switch t := rg.typ.Underlying().(type) {
	case *types.Struct:
		if named, ok := rg.typ.(*types.Named); ok {
			return planStructRepairs(pkg, rg, named)
		}
		return []Repair{{Kind: "advice", Struct: rg.name,
			Detail: "unnamed struct: pad each writer's fields to 64 bytes manually"}}
	case *types.Array, *types.Slice:
		var elem types.Type
		switch c := t.(type) {
		case *types.Array:
			elem = c.Elem()
		case *types.Slice:
			elem = c.Elem()
		}
		if named, ok := deref(elem).(*types.Named); ok {
			if _, isStruct := named.Underlying().(*types.Struct); isStruct && named.Obj().Pkg() == pkg.Types {
				return planElemPad(named)
			}
		}
		return []Repair{{Kind: "advice", Struct: rg.name,
			Detail: fmt.Sprintf("replace the %d-byte element with a struct padded to %d bytes", sizeOf(elem), LineBytes)}}
	}
	return nil
}

// planElemPad pads an array/slice element struct to a full line with a
// trailing `_ [N]byte`.
func planElemPad(named *types.Named) []Repair {
	st := named.Underlying().(*types.Struct)
	size := sizeOf(named)
	if size%LineBytes == 0 {
		return nil
	}
	pad := LineBytes - size%LineBytes
	after := ""
	if st.NumFields() > 0 {
		after = st.Field(st.NumFields() - 1).Name()
	}
	return []Repair{{
		Kind: "pad-elem", Struct: named.Obj().Name(), After: after, Bytes: pad,
		Detail: fmt.Sprintf("element size %d → %d, one element per line", size, size+pad),
	}}
}

// planStructRepairs attributes each top-level field of the struct to the
// writer groups that touch it, then inserts paddings at writer-group
// boundaries (and recurses into array fields written with a per-goroutine
// stride).
func planStructRepairs(pkg *Package, rg *region, named *types.Named) []Repair {
	st, ok := named.Underlying().(*types.Struct)
	if !ok || st.NumFields() == 0 {
		return nil
	}
	fields := make([]*types.Var, st.NumFields())
	for i := range fields {
		fields[i] = st.Field(i)
	}
	offs := Sizes.Offsetsof(fields)

	// groupOf collapses expanded spawn-loop writers back into their `go`
	// statement: elements of one spawn loop are one repair group.
	groupOf := func(k writerKey) writerKey { k.elem = 0; return k }
	fieldGroups := make([]map[writerKey]bool, len(fields))
	for i := range fieldGroups {
		fieldGroups[i] = map[writerKey]bool{}
	}
	intraField := map[int]bool{} // field written by >1 element of a spawn loop
	perFieldElems := make([]map[writerKey]map[int]bool, len(fields))
	for i := range perFieldElems {
		perFieldElems[i] = map[writerKey]map[int]bool{}
	}
	for wid, w := range rg.writers {
		k := rg.wids[wid]
		g := groupOf(k)
		for _, ref := range w.refs {
			if ref.size <= 0 {
				continue
			}
			for i := range fields {
				fsz := sizeOf(fields[i].Type())
				if ref.off < offs[i]+fsz && ref.off+ref.size > offs[i] {
					fieldGroups[i][g] = true
					if k.kind == "go" {
						em := perFieldElems[i][g]
						if em == nil {
							em = map[int]bool{}
							perFieldElems[i][g] = em
						}
						em[k.elem] = true
						if len(em) > 1 {
							intraField[i] = true
						}
					}
				}
			}
		}
	}

	var repairs []Repair
	// Intra-field stride sharing: pad the element type.
	for i := range fields {
		if !intraField[i] {
			continue
		}
		var elem types.Type
		switch c := fields[i].Type().Underlying().(type) {
		case *types.Array:
			elem = c.Elem()
		case *types.Slice:
			elem = c.Elem()
		default:
			continue
		}
		if en, ok := deref(elem).(*types.Named); ok && en.Obj().Pkg() == pkg.Types {
			if _, isStruct := en.Underlying().(*types.Struct); isStruct {
				repairs = append(repairs, planElemPad(en)...)
				continue
			}
		}
		repairs = append(repairs, Repair{
			Kind: "advice", Struct: named.Obj().Name(),
			Detail: fmt.Sprintf("replace the %d-byte element of %s with a struct padded to %d bytes",
				sizeOf(elem), fields[i].Name(), LineBytes),
		})
	}

	// Inter-field boundaries: walk fields in declaration order, inserting
	// a pad whenever ownership changes hands mid-line. Offsets are
	// re-simulated as pads accumulate.
	var cur map[writerKey]bool
	curField := -1
	off := int64(0)
	for i, f := range fields {
		al := Sizes.Alignof(f.Type())
		off = roundUp(off, al)
		g := fieldGroups[i]
		if len(g) > 0 {
			if cur != nil && !sameGroups(cur, g) && off%LineBytes != 0 {
				pad := roundUp(off, LineBytes) - off
				repairs = append(repairs, Repair{
					Kind: "pad", Struct: named.Obj().Name(), After: fields[curField].Name(), Bytes: pad,
					Detail: fmt.Sprintf("isolate %s onto its own line", f.Name()),
				})
				off += pad
			}
			cur = g
			curField = i
		} else if curField >= 0 {
			curField = i // unowned fields ride with the previous group
		}
		off += sizeOf(f.Type())
	}

	// Advisory reordering when one group's fields are non-contiguous.
	if adv := reorderAdvice(fields, fieldGroups); adv != "" {
		repairs = append(repairs, Repair{Kind: "advice", Struct: named.Obj().Name(), Detail: adv})
	}
	return repairs
}

func sameGroups(a, b map[writerKey]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

// reorderAdvice suggests grouping fields by writer when a writer's fields
// are interleaved with another's (less padding than isolating in place).
func reorderAdvice(fields []*types.Var, groups []map[writerKey]bool) string {
	sig := func(g map[writerKey]bool) string {
		keys := make([]string, 0, len(g))
		for k := range g {
			keys = append(keys, fmt.Sprintf("%s@%d:%s", k.kind, k.pos, k.lock))
		}
		sort.Strings(keys)
		return strings.Join(keys, "+")
	}
	seen := map[string]int{} // signature -> last field index
	interleaved := false
	for i, g := range groups {
		if len(g) == 0 {
			continue
		}
		s := sig(g)
		if last, ok := seen[s]; ok && last != i-1 {
			// The same group resumes after a different group intervened.
			if gap := groupsBetween(groups, last, i); gap {
				interleaved = true
			}
		}
		seen[s] = i
	}
	if !interleaved {
		return ""
	}
	// Suggested order: stable-sort owned fields by group signature.
	type fg struct {
		name string
		sig  string
		idx  int
	}
	var owned []fg
	for i, g := range groups {
		if len(g) > 0 {
			owned = append(owned, fg{fields[i].Name(), sig(g), i})
		}
	}
	sort.SliceStable(owned, func(i, j int) bool { return owned[i].sig < owned[j].sig })
	names := make([]string, len(owned))
	for i, f := range owned {
		names[i] = f.name
	}
	return "group fields by writer to reduce padding: " + strings.Join(names, ", ")
}

func groupsBetween(groups []map[writerKey]bool, lo, hi int) bool {
	for i := lo + 1; i < hi; i++ {
		if len(groups[i]) > 0 {
			return true
		}
	}
	return false
}

func roundUp(x, to int64) int64 {
	if to <= 0 {
		return x
	}
	return (x + to - 1) / to * to
}

// FixResult is one rewritten file.
type FixResult struct {
	Path string
	Orig string
	New  string
}

// ApplyFixes applies every "pad"/"pad-elem" repair of the result to the
// package ASTs and returns the rewritten files. Advice is not applied.
func ApplyFixes(pkgs []*Package, res *Result) ([]FixResult, error) {
	// Collect pads per (package, struct name): After -> bytes. "" means
	// trailing.
	type padKey struct {
		pkg   *Package
		strct string
		after string
	}
	pads := map[padKey]int64{}
	byRel := map[string]*Package{}
	for _, p := range pkgs {
		byRel[p.Rel] = p
	}
	for _, f := range res.Findings {
		pkg := byRel[f.Pkg]
		if pkg == nil {
			continue
		}
		for _, r := range f.Repairs {
			if (r.Kind == "pad" || r.Kind == "pad-elem") && r.Bytes > 0 {
				k := padKey{pkg, r.Struct, r.After}
				if r.Bytes > pads[k] {
					pads[k] = r.Bytes
				}
			}
		}
	}
	if len(pads) == 0 {
		return nil, nil
	}

	touched := map[*ast.File]*Package{}
	for k, n := range pads {
		file, st := findStruct(k.pkg, k.strct)
		if st == nil {
			return nil, fmt.Errorf("srcvet: cannot locate struct %s in %s", k.strct, k.pkg.Rel)
		}
		insertPad(st, k.after, n)
		touched[file] = k.pkg
	}

	var out []FixResult
	for file, pkg := range touched {
		path := pkg.Fset.Position(file.Pos()).Filename
		var buf bytes.Buffer
		if err := printer.Fprint(&buf, pkg.Fset, file); err != nil {
			return nil, err
		}
		// The printer emits raw tabs for the synthesized fields; reformat so
		// the preview (and anything that applies it) is gofmt-clean.
		src, err := format.Source(buf.Bytes())
		if err != nil {
			src = buf.Bytes()
		}
		orig, err := readFile(path)
		if err != nil {
			return nil, err
		}
		out = append(out, FixResult{Path: path, Orig: orig, New: string(src)})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out, nil
}

// findStruct locates the AST StructType of a named type in the package.
func findStruct(pkg *Package, name string) (*ast.File, *ast.StructType) {
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok || ts.Name.Name != name {
					continue
				}
				if st, ok := ts.Type.(*ast.StructType); ok {
					return f, st
				}
			}
		}
	}
	return nil, nil
}

// insertPad inserts `_ [n]byte` after the named field (or at the end for
// after == "").
func insertPad(st *ast.StructType, after string, n int64) {
	pad := &ast.Field{
		Names: []*ast.Ident{ast.NewIdent("_")},
		Type: &ast.ArrayType{
			Len: &ast.BasicLit{Kind: token.INT, Value: strconv.FormatInt(n, 10)},
			Elt: ast.NewIdent("byte"),
		},
	}
	list := st.Fields.List
	at := len(list)
	if after != "" {
		for i, f := range list {
			for _, nm := range f.Names {
				if nm.Name == after {
					at = i + 1
				}
			}
		}
	}
	// Drop position info so go/printer lays the new field out cleanly.
	st.Fields.List = append(list[:at:at], append([]*ast.Field{pad}, list[at:]...)...)
}

// UnifiedDiff renders an LCS-based unified diff with 3 lines of context.
func UnifiedDiff(path, a, b string) string {
	al := splitLines(a)
	bl := splitLines(b)
	ops := diffOps(al, bl)
	if len(ops) == 0 {
		return ""
	}
	var sb strings.Builder
	const ctx = 3
	hunks := 0
	i := 0
	for i < len(ops) {
		if ops[i].kind == ' ' {
			i++
			continue
		}
		// Hunk: back up for context.
		start := i
		for start > 0 && ops[start-1].kind == ' ' && i-start < ctx {
			start--
		}
		end := i
		gap := 0
		for end < len(ops) {
			if ops[end].kind == ' ' {
				gap++
				if gap > 2*ctx {
					break
				}
			} else {
				gap = 0
			}
			end++
		}
		for end > start && ops[end-1].kind == ' ' && gap > ctx {
			end--
			gap--
		}
		aStart, bStart := ops[start].aLine, ops[start].bLine
		var aN, bN int
		var body strings.Builder
		for _, op := range ops[start:end] {
			switch op.kind {
			case ' ':
				aN++
				bN++
			case '-':
				aN++
			case '+':
				bN++
			}
			fmt.Fprintf(&body, "%c%s\n", op.kind, op.text)
		}
		fmt.Fprintf(&sb, "@@ -%d,%d +%d,%d @@\n%s", aStart+1, aN, bStart+1, bN, body.String())
		hunks++
		i = end
	}
	if hunks == 0 {
		return ""
	}
	return fmt.Sprintf("--- %s\n+++ %s (padded)\n%s", path, path, sb.String())
}

type diffOp struct {
	kind         byte // ' ', '-', '+'
	text         string
	aLine, bLine int
}

// diffOps computes an LCS alignment of the two line slices.
func diffOps(a, b []string) []diffOp {
	n, m := len(a), len(b)
	lcs := make([][]int, n+1)
	for i := range lcs {
		lcs[i] = make([]int, m+1)
	}
	for i := n - 1; i >= 0; i-- {
		for j := m - 1; j >= 0; j-- {
			if a[i] == b[j] {
				lcs[i][j] = lcs[i+1][j+1] + 1
			} else if lcs[i+1][j] >= lcs[i][j+1] {
				lcs[i][j] = lcs[i+1][j]
			} else {
				lcs[i][j] = lcs[i][j+1]
			}
		}
	}
	var ops []diffOp
	i, j := 0, 0
	for i < n && j < m {
		switch {
		case a[i] == b[j]:
			ops = append(ops, diffOp{' ', a[i], i, j})
			i++
			j++
		case lcs[i+1][j] >= lcs[i][j+1]:
			ops = append(ops, diffOp{'-', a[i], i, j})
			i++
		default:
			ops = append(ops, diffOp{'+', b[j], i, j})
			j++
		}
	}
	for ; i < n; i++ {
		ops = append(ops, diffOp{'-', a[i], i, j})
	}
	for ; j < m; j++ {
		ops = append(ops, diffOp{'+', b[j], i, j})
	}
	return ops
}

func readFile(path string) (string, error) {
	b, err := os.ReadFile(path)
	return string(b), err
}

func splitLines(s string) []string {
	s = strings.TrimSuffix(s, "\n")
	if s == "" {
		return nil
	}
	return strings.Split(s, "\n")
}
