package report

import (
	"errors"
	"strings"
	"testing"
)

func validTable() *Table {
	return &Table{
		XName:  "t_s",
		X:      []float64{0, 10, 20, 30},
		Names:  []string{"approx", "sim"},
		Series: [][]float64{{0, 0.2, 0.7, 1}, {0, 0.1, 0.8, 1}},
	}
}

func TestValidate(t *testing.T) {
	if err := validTable().Validate(); err != nil {
		t.Errorf("valid table rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*Table)
	}{
		{"empty axis", func(tb *Table) { tb.X = nil }},
		{"no series", func(tb *Table) { tb.Series = nil; tb.Names = nil }},
		{"name mismatch", func(tb *Table) { tb.Names = tb.Names[:1] }},
		{"ragged series", func(tb *Table) { tb.Series[1] = tb.Series[1][:2] }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tb := validTable()
			tc.mutate(tb)
			if err := tb.Validate(); !errors.Is(err, ErrBadTable) {
				t.Errorf("err = %v, want ErrBadTable", err)
			}
		})
	}
}

func TestChartBasics(t *testing.T) {
	chart, err := validTable().Chart(ChartOptions{Width: 40, Height: 10})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(chart, "*") || !strings.Contains(chart, "o") {
		t.Errorf("chart missing series glyphs:\n%s", chart)
	}
	if !strings.Contains(chart, "approx") || !strings.Contains(chart, "sim") {
		t.Errorf("chart missing legend:\n%s", chart)
	}
	if !strings.Contains(chart, "t_s") {
		t.Errorf("chart missing axis label:\n%s", chart)
	}
	// Axis extremes rendered.
	if !strings.Contains(chart, "0") || !strings.Contains(chart, "30") {
		t.Errorf("chart missing axis range:\n%s", chart)
	}
	for _, line := range strings.Split(chart, "\n") {
		if len([]rune(line)) > 40+12 {
			t.Errorf("line wider than plot area: %q", line)
		}
	}
}

func TestChartMonotoneCurveOrientation(t *testing.T) {
	// An increasing curve must have its glyph in the top-right and
	// bottom-left regions, not the reverse.
	tb := &Table{
		XName:  "x",
		X:      []float64{0, 1, 2, 3},
		Names:  []string{"up"},
		Series: [][]float64{{0, 1, 2, 3}},
	}
	chart, err := tb.Chart(ChartOptions{Width: 20, Height: 8})
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(chart, "\n")
	top, bottom := lines[0], lines[7]
	if !strings.Contains(top, "*") {
		t.Errorf("top row missing the curve maximum:\n%s", chart)
	}
	if strings.Index(bottom, "*") > strings.Index(top, "*") {
		t.Errorf("curve slopes the wrong way:\n%s", chart)
	}
}

func TestChartFixedRange(t *testing.T) {
	tb := validTable()
	chart, err := tb.Chart(ChartOptions{Width: 20, Height: 6, YMin: 0, YMax: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(chart, "2 ") {
		t.Errorf("fixed YMax not rendered:\n%s", chart)
	}
}

func TestChartDegenerateData(t *testing.T) {
	// Constant series and single-point axis must not divide by zero.
	tb := &Table{
		XName:  "x",
		X:      []float64{5},
		Names:  []string{"flat"},
		Series: [][]float64{{1}},
	}
	if _, err := tb.Chart(ChartOptions{}); err != nil {
		t.Errorf("degenerate chart failed: %v", err)
	}
}

func TestChartInvalidTable(t *testing.T) {
	tb := validTable()
	tb.Series = nil
	tb.Names = nil
	if _, err := tb.Chart(ChartOptions{}); !errors.Is(err, ErrBadTable) {
		t.Errorf("err = %v, want ErrBadTable", err)
	}
}
