package report

import (
	"strings"
	"testing"
)

func TestTableAlignment(t *testing.T) {
	var b strings.Builder
	Table(&b, "Title", []string{"name", "value"}, [][]string{
		{"alpha", "1"},
		{"beta-long", "22"},
	})
	out := b.String()
	if !strings.HasPrefix(out, "Title\n") {
		t.Errorf("missing title: %q", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, rule, two rows
		t.Fatalf("want 5 lines, got %d: %q", len(lines), out)
	}
	if !strings.Contains(lines[3], "alpha") || !strings.Contains(lines[4], "beta-long") {
		t.Errorf("rows missing: %q", out)
	}
	// All data lines align on the second column.
	col := strings.Index(lines[3], "1")
	if strings.Index(lines[4], "22") != col {
		t.Errorf("columns misaligned:\n%s", out)
	}
}

func TestFigure(t *testing.T) {
	var b strings.Builder
	Figure(&b, "Fig", "x", []Series{
		{Label: "a", X: []float64{1, 2}, Y: []float64{10, 20}},
		{Label: "b", X: []float64{1, 2}, Y: []float64{0.5}},
	})
	out := b.String()
	for _, want := range []string{"Fig", "x", "a", "b", "10", "20", "0.5", "-"} {
		if !strings.Contains(out, want) {
			t.Errorf("figure output missing %q:\n%s", want, out)
		}
	}
	// Empty series set: no output, no panic.
	var e strings.Builder
	Figure(&e, "none", "x", nil)
	if e.Len() != 0 {
		t.Errorf("empty figure should write nothing")
	}
}

func TestFormatters(t *testing.T) {
	if got := GBps(23.2e9); got != "23.2" {
		t.Errorf("GBps = %q", got)
	}
	if got := trimFloat(4); got != "4" {
		t.Errorf("trimFloat(4) = %q", got)
	}
	if got := trimFloat(3.14159); got != "3.142" {
		t.Errorf("trimFloat(pi) = %q", got)
	}
}
