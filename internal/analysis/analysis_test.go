package analysis

import (
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestPackageDirsSkipsNestedModules matches the go tool's ./...: a
// subdirectory with its own go.mod belongs to another module.
func TestPackageDirsSkipsNestedModules(t *testing.T) {
	root := t.TempDir()
	for _, f := range []string{"go.mod", "a.go", "pkg/b.go", "nested/go.mod", "nested/c.go", "nested/sub/d.go"} {
		path := filepath.Join(root, filepath.FromSlash(f))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := PackageDirs(root, "./...")
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{root, filepath.Join(root, "pkg")}; !reflect.DeepEqual(got, want) {
		t.Errorf("PackageDirs = %v, want %v", got, want)
	}
}

func TestParseAnnotation(t *testing.T) {
	cases := []struct {
		text string
		want []string
	}{
		{"//upcvet:wallclock", []string{"wallclock"}},
		{"//upcvet:wallclock -- real benchmarking", []string{"wallclock"}},
		{"//upcvet:maporder,rawgo", []string{"maporder", "rawgo"}},
		{"//upcvet:maporder\treason after a tab", []string{"maporder"}},
		{"// upcvet:wallclock", nil}, // space before the marker: not an annotation
		{"//upcvet:", nil},
		{"// plain comment", nil},
	}
	for _, c := range cases {
		got, ok := parseAnnotation(c.text)
		if (c.want == nil) == ok {
			t.Errorf("parseAnnotation(%q) ok = %v, want %v", c.text, ok, c.want != nil)
			continue
		}
		if len(got) != len(c.want) {
			t.Errorf("parseAnnotation(%q) = %v, want %v", c.text, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("parseAnnotation(%q) = %v, want %v", c.text, got, c.want)
				break
			}
		}
	}
}

// TestStaleAnnotation checks that an annotation naming no analyzer in
// All is reported, even when only another analyzer runs, and that a
// live name still suppresses its finding.
func TestStaleAnnotation(t *testing.T) {
	dir, err := filepath.Abs("testdata/stale")
	if err != nil {
		t.Fatal(err)
	}
	l, err := NewLoader(dir)
	if err != nil {
		t.Fatal(err)
	}
	units, err := l.Load(dir, "repro/internal/apps/staledata", false)
	if err != nil {
		t.Fatal(err)
	}
	if len(units) != 1 {
		t.Fatalf("loaded %d units, want 1", len(units))
	}
	diags, err := RunAnalyzers(units[0], []*Analyzer{Wallclock})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 1 {
		t.Fatalf("got %d findings %v, want 1 (the stale annotation)", len(diags), diags)
	}
	d := diags[0]
	if d.Pos.Line != 16 || d.Analyzer != "upcvet" || !strings.Contains(d.Message, `"sharedrace"`) {
		t.Errorf("finding = line %d %s: %s, want line 16 upcvet naming \"sharedrace\"", d.Pos.Line, d.Analyzer, d.Message)
	}
}

func TestSimSide(t *testing.T) {
	cases := []struct {
		path string
		want bool
	}{
		{"repro/internal/sim", true},
		{"repro/internal/sim_test", true}, // test unit of a sim-side package
		{"repro/internal/apps/stream", true},
		{"repro/internal/apps/stream_test", true},
		{"repro/cmd/upc-bench", false},
		{"repro/internal/simbench", false}, // prefix of a name, not a path element
		{"repro/internal/analysis", false},
	}
	for _, c := range cases {
		if got := SimSide(c.path); got != c.want {
			t.Errorf("SimSide(%q) = %v, want %v", c.path, got, c.want)
		}
	}
}

func TestByName(t *testing.T) {
	for _, a := range All {
		got, ok := ByName(a.Name)
		if !ok || got != a {
			t.Errorf("ByName(%q) did not resolve the analyzer", a.Name)
		}
	}
	if _, ok := ByName("nonesuch"); ok {
		t.Error("ByName(nonesuch) should not resolve")
	}
}

// TestBuildIncluded checks the loader's build-constraint filter: release
// tags follow the analyzer's toolchain, so of two files split by a Go
// version exactly one is loaded, and any other tag counts as set.
func TestBuildIncluded(t *testing.T) {
	cases := []struct {
		header string
		want   bool
	}{
		{"", true},
		{"//go:build go1.1\n\n", true},
		{"//go:build !go1.1\n\n", false},
		{"//go:build go1.999\n\n", false},
		{"//go:build !go1.999\n\n", true},
		{"//go:build equivalence && linux\n\n", true},
	}
	for _, c := range cases {
		file, err := parser.ParseFile(token.NewFileSet(), "x.go", c.header+"package x\n", parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		if got := buildIncluded(file); got != c.want {
			t.Errorf("buildIncluded(%q) = %v, want %v", c.header, got, c.want)
		}
	}
}
