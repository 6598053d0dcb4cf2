package srcvet

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/toolio"
)

// fixtureRoot is the corpus of known shapes: three seeded bugs
// (adjcounters, packed, mutexline) and two controls (padded, clean).
var fixtureRoot = filepath.Join("..", "..", "testdata", "srcvet")

var fixtureNames = []string{"adjcounters", "clean", "mutexline", "packed", "padded"}

func loadFixture(t *testing.T, name string) *Package {
	t.Helper()
	dir := filepath.Join(fixtureRoot, name)
	l, err := NewLoader(dir)
	if err != nil {
		t.Fatalf("%s: NewLoader: %v", name, err)
	}
	pkg, err := l.LoadDir(dir, name)
	if err != nil {
		t.Fatalf("%s: LoadDir: %v", name, err)
	}
	return pkg
}

func analyzeFixture(t *testing.T, name string, opt Options) *Result {
	t.Helper()
	res := Analyze([]*Package{loadFixture(t, name)}, opt)
	for _, err := range res.Errors {
		t.Errorf("%s: analysis error: %v", name, err)
	}
	return res
}

// TestFixtureGoldens runs the full pipeline — layout, ownership,
// classification, confirmation bridge — over every fixture and compares
// the rendered report to its golden. Regenerate with SRCVET_UPDATE=1.
func TestFixtureGoldens(t *testing.T) {
	for _, name := range fixtureNames {
		t.Run(name, func(t *testing.T) {
			res := analyzeFixture(t, name, Options{Confirm: true})
			var sb strings.Builder
			Render(&sb, res)
			sb.WriteString(Summary(res))
			sb.WriteString("\n")
			got := sb.String()

			golden := filepath.Join(fixtureRoot, "golden", name+".txt")
			if os.Getenv("SRCVET_UPDATE") != "" {
				if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("missing golden (run with SRCVET_UPDATE=1): %v", err)
			}
			if got != string(want) {
				t.Errorf("report mismatch\n--- want\n%s--- got\n%s", want, got)
			}
		})
	}
}

// TestSeededBugsFlaggedAndConfirmed pins the corpus precision: every
// seeded fixture is flagged AND reproduced by the dynamic detector;
// every control passes clean.
func TestSeededBugsFlaggedAndConfirmed(t *testing.T) {
	for _, name := range []string{"adjcounters", "packed", "mutexline"} {
		res := analyzeFixture(t, name, Options{Confirm: true})
		if len(res.Findings) == 0 {
			t.Errorf("%s: seeded false sharing not flagged", name)
			continue
		}
		for _, f := range res.Findings {
			if f.Confirmation != toolio.ConfirmConfirmed {
				t.Errorf("%s: %s graded %q, want %q", name, f.ID, f.Confirmation, toolio.ConfirmConfirmed)
			}
		}
	}
	for _, name := range []string{"padded", "clean"} {
		res := analyzeFixture(t, name, Options{})
		for _, f := range res.Findings {
			t.Errorf("%s: control fixture flagged: %s", name, f.ID)
		}
	}
}

// TestTrueSharingCountedNotFlagged: clean.RunShared writes one field from
// two goroutines — contention, but not a layout bug.
func TestTrueSharingCountedNotFlagged(t *testing.T) {
	res := analyzeFixture(t, "clean", Options{})
	if res.TrueLines != 1 {
		t.Errorf("clean: TrueLines = %d, want 1 (RunShared)", res.TrueLines)
	}
	if len(res.Findings) != 0 {
		t.Errorf("clean: %d findings, want 0", len(res.Findings))
	}
}

// TestApplySuggestedPadding applies tmivet's own repairs to each seeded
// fixture and re-analyzes the padded source: the findings must vanish.
func TestApplySuggestedPadding(t *testing.T) {
	for _, name := range []string{"adjcounters", "packed", "mutexline"} {
		t.Run(name, func(t *testing.T) {
			pkg := loadFixture(t, name)
			res := Analyze([]*Package{pkg}, Options{})
			if len(res.Findings) == 0 {
				t.Fatalf("%s: expected findings before fixing", name)
			}
			fixes, err := ApplyFixes([]*Package{pkg}, res)
			if err != nil {
				t.Fatalf("ApplyFixes: %v", err)
			}
			if len(fixes) == 0 {
				t.Fatalf("%s: no applicable fixes", name)
			}
			dir := filepath.Join(t.TempDir(), name)
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			for _, fx := range fixes {
				if fx.New == fx.Orig {
					t.Errorf("%s: fix is a no-op for %s", name, fx.Path)
				}
				dst := filepath.Join(dir, filepath.Base(fx.Path))
				if err := os.WriteFile(dst, []byte(fx.New), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			l, err := NewLoader(dir)
			if err != nil {
				t.Fatal(err)
			}
			fixed, err := l.LoadDir(dir, name)
			if err != nil {
				t.Fatalf("%s: padded source fails to load: %v", name, err)
			}
			res2 := Analyze([]*Package{fixed}, Options{})
			for _, f := range res2.Findings {
				t.Errorf("%s: finding survives suggested padding: %s [%s]", name, f.ID, f.Spans())
			}
		})
	}
}

// scalarSource is a generated package whose four spawned goroutines each
// increment their own element of counts, which decl declares as a slice or
// array of scalars: no element struct exists to pad.
func scalarSource(decl string) string {
	return `package scalars

import "sync"

func Run(steps int) int64 {
	` + decl + `
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := 0; s < steps; s++ {
				counts[i]++
			}
		}()
	}
	wg.Wait()
	return int64(counts[0])
}
`
}

var scalarDecls = []string{"counts := make([]int64, 4)", "var counts [4]uint32"}

// TestScalarElementAdvice: goroutines writing adjacent scalar elements are
// one finding whose repair is advice, never a `_ [0]byte` pad, and -fix
// writes no edit for it.
func TestScalarElementAdvice(t *testing.T) {
	for _, decl := range scalarDecls {
		t.Run(decl, func(t *testing.T) {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, "scalars.go"), []byte(scalarSource(decl)), 0o644); err != nil {
				t.Fatal(err)
			}
			l, err := NewLoader(dir)
			if err != nil {
				t.Fatal(err)
			}
			pkg, err := l.LoadDir(dir, "scalars")
			if err != nil {
				t.Fatal(err)
			}
			res := Analyze([]*Package{pkg}, Options{})
			if len(res.Findings) != 1 {
				t.Fatalf("%d findings, want 1", len(res.Findings))
			}
			reps := res.Findings[0].Repairs
			if len(reps) == 0 {
				t.Error("finding carries no repair")
			}
			for _, r := range reps {
				if r.Kind != "advice" {
					t.Errorf("repair %q is %q, want advice", r, r.Kind)
				}
			}
			var sb strings.Builder
			Render(&sb, res)
			if strings.Contains(sb.String(), "[0]byte") {
				t.Errorf("report proposes a zero-byte pad:\n%s", sb.String())
			}
			fixes, err := ApplyFixes([]*Package{pkg}, res)
			if err != nil || len(fixes) != 0 {
				t.Errorf("ApplyFixes = %d edits, %v; want none", len(fixes), err)
			}
		})
	}
}

// FuzzAnalyzeSource: any bytes written as one Go file either fail to load
// or are analyzed (static only, no simulation), never a panic.
func FuzzAnalyzeSource(f *testing.F) {
	for _, name := range fixtureNames {
		paths, err := filepath.Glob(filepath.Join(fixtureRoot, name, "*.go"))
		if err != nil || len(paths) == 0 {
			f.Fatalf("%s: no fixture source (%v)", name, err)
		}
		for _, p := range paths {
			src, err := os.ReadFile(p)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(src)
		}
	}
	f.Add([]byte(scalarSource(scalarDecls[0])))
	// One loader for every input keeps the stdlib importer's cache warm.
	l, err := NewLoader(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, src []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "fuzz.go"), src, 0o644); err != nil {
			t.Fatal(err)
		}
		pkg, err := l.LoadDir(dir, "fuzz")
		if err != nil {
			return
		}
		Analyze([]*Package{pkg}, Options{})
	})
}

// TestWaivers: a waived finding is suppressed (result OK) but still listed.
func TestWaivers(t *testing.T) {
	res := analyzeFixture(t, "packed", Options{})
	if len(res.Findings) != 1 {
		t.Fatalf("packed: %d findings, want 1", len(res.Findings))
	}
	id := res.Findings[0].ID
	if res.OK() {
		t.Error("unwaived finding should fail the result")
	}
	res = analyzeFixture(t, "packed", Options{Waivers: map[string]string{id: "fixture"}})
	if len(res.Findings) != 1 || !res.Findings[0].Waived {
		t.Fatalf("waiver for %s not applied", id)
	}
	if !res.OK() {
		t.Error("fully waived result should be OK")
	}
	rep := res.Report()
	if !rep.OK {
		t.Error("toolio report should be OK when every finding is waived")
	}
}

// TestReportSchema: the toolio report round-trips and carries the scan
// stats and writers.
func TestReportSchema(t *testing.T) {
	res := analyzeFixture(t, "mutexline", Options{})
	rep := res.Report()
	if rep.OK {
		t.Error("report with unwaived findings must not be OK")
	}
	if rep.Version != toolio.SchemaVersion {
		t.Errorf("Version = %d, want %d", rep.Version, toolio.SchemaVersion)
	}
	if len(rep.Findings) != 1 {
		t.Fatalf("findings = %d, want 1", len(rep.Findings))
	}
	f := rep.Findings[0]
	if len(f.Writers) != 2 {
		t.Errorf("writers = %v, want lock-word + critsec", f.Writers)
	}
	if len(f.Repairs) == 0 {
		t.Error("finding carries no repairs")
	}
	if rep.Stats["regions"] != 1 || rep.Stats["packages"] != 1 {
		t.Errorf("stats = %v", rep.Stats)
	}
}

// TestScanDirs: /... expansion skips testdata and finds real packages.
func TestScanDirs(t *testing.T) {
	dirs, err := ScanDirs([]string{filepath.Join("..", "..") + "/..."})
	if err != nil {
		t.Fatal(err)
	}
	found := map[string]bool{}
	for _, d := range dirs {
		found[filepath.ToSlash(d)] = true
		if strings.Contains(d, "testdata") {
			t.Errorf("ScanDirs descended into testdata: %s", d)
		}
	}
	if !found["../../internal/srcvet"] {
		t.Errorf("ScanDirs missed internal/srcvet: %v", dirs)
	}
}

// TestUnifiedDiff pins the hunk format on a small edit.
func TestUnifiedDiff(t *testing.T) {
	a := "l1\nl2\nl3\nl4\nl5\nl6\nl7\n"
	b := "l1\nl2\nl3\nNEW\nl4\nl5\nl6\nl7\n"
	d := UnifiedDiff("f.go", a, b)
	want := "--- f.go\n+++ f.go (padded)\n@@ -1,6 +1,7 @@\n l1\n l2\n l3\n+NEW\n l4\n l5\n l6\n"
	if d != want {
		t.Errorf("diff mismatch\n--- want\n%s--- got\n%s", want, d)
	}
	if UnifiedDiff("f.go", a, a) != "" {
		t.Error("identical inputs should produce an empty diff")
	}
}
