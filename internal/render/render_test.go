package render

import (
	"strings"
	"testing"
)

func TestTableAlignment(t *testing.T) {
	out := Table([]string{"name", "value"}, [][]string{
		{"a", "1"},
		{"longer", "22"},
	})
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines = %d, want 4:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "name") {
		t.Fatalf("header missing: %q", lines[0])
	}
	if !strings.Contains(lines[1], "----") {
		t.Fatalf("separator missing: %q", lines[1])
	}
	// All rows equally wide (trailing spaces trimmed may differ; compare the
	// column start of the second column instead).
	col := strings.Index(lines[0], "value")
	if strings.Index(lines[3], "22") != col {
		t.Fatalf("column misaligned:\n%s", out)
	}
}

func TestSeriesTable(t *testing.T) {
	out := SeriesTable("x", []Series{
		{Name: "a", X: []float64{1, 2}, Y: []float64{10, 20}},
		{Name: "b", X: []float64{2}, Y: []float64{99}},
	}, "%.0f")
	if !strings.Contains(out, "a") || !strings.Contains(out, "b") {
		t.Fatalf("missing series names:\n%s", out)
	}
	if !strings.Contains(out, "99") || !strings.Contains(out, "20") {
		t.Fatalf("missing values:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 { // header + sep + 2 x-values
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
}

func TestSeriesTableDefaultFormat(t *testing.T) {
	out := SeriesTable("x", []Series{{Name: "s", X: []float64{1.23456}, Y: []float64{2}}}, "")
	if !strings.Contains(out, "1.235") {
		t.Fatalf("default %%.4g format not applied:\n%s", out)
	}
}
