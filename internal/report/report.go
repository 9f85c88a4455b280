// Package report renders computed curves as ASCII charts for
// terminals; the CLI's cdf -plot uses it.
package report

import (
	"errors"
	"fmt"
	"math"
	"strings"
)

// ErrBadTable reports inconsistent table data.
var ErrBadTable = errors.New("report: invalid table")

// Table is a set of named series over a shared X axis.
type Table struct {
	// XName labels the axis column.
	XName string
	// X holds the axis values.
	X []float64
	// Names labels the series.
	Names []string
	// Series holds one row of Y values per name, each len(X) long.
	Series [][]float64
}

// Validate reports whether the table is rectangular.
func (t *Table) Validate() error {
	if len(t.X) == 0 {
		return fmt.Errorf("%w: empty axis", ErrBadTable)
	}
	if len(t.Names) != len(t.Series) {
		return fmt.Errorf("%w: %d names for %d series", ErrBadTable, len(t.Names), len(t.Series))
	}
	if len(t.Series) == 0 {
		return fmt.Errorf("%w: no series", ErrBadTable)
	}
	for i, s := range t.Series {
		if len(s) != len(t.X) {
			return fmt.Errorf("%w: series %q has %d points for %d axis values",
				ErrBadTable, t.Names[i], len(s), len(t.X))
		}
	}
	return nil
}

// ChartOptions tunes ASCII rendering.
type ChartOptions struct {
	// Width and Height are the plot area size in characters; zero
	// selects 64×16.
	Width, Height int
	// YMin and YMax fix the Y range; when both are zero the range is
	// taken from the data.
	YMin, YMax float64
}

func (o ChartOptions) size() (int, int) {
	w, h := o.Width, o.Height
	if w <= 0 {
		w = 64
	}
	if h <= 0 {
		h = 16
	}
	return w, h
}

// seriesGlyphs mark the successive series in a chart.
var seriesGlyphs = []byte{'*', 'o', '+', 'x', '#', '@', '%', '&'}

// Chart renders the table as an ASCII chart: one glyph per series,
// a legend, and axis labels. Intended for quick terminal inspection,
// not precision.
func (t *Table) Chart(opts ChartOptions) (string, error) {
	if err := t.Validate(); err != nil {
		return "", err
	}
	width, height := opts.size()

	xMin, xMax := t.X[0], t.X[len(t.X)-1]
	//numlint:ignore floatcmp degenerate-range sentinel; any nonzero span scales finitely
	if xMax == xMin {
		xMax = xMin + 1
	}
	yMin, yMax := opts.YMin, opts.YMax
	if yMin == 0 && yMax == 0 {
		yMin, yMax = math.Inf(1), math.Inf(-1)
		for _, s := range t.Series {
			for _, v := range s {
				yMin = math.Min(yMin, v)
				yMax = math.Max(yMax, v)
			}
		}
		//numlint:ignore floatcmp degenerate-range sentinel; any nonzero span scales finitely
		if yMax == yMin {
			yMax = yMin + 1
		}
	}

	grid := make([][]byte, height)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", width))
	}
	plot := func(x, y float64, glyph byte) {
		cx := int(math.Round((x - xMin) / (xMax - xMin) * float64(width-1)))
		cy := int(math.Round((y - yMin) / (yMax - yMin) * float64(height-1)))
		if cx < 0 || cx >= width || cy < 0 || cy >= height {
			return
		}
		grid[height-1-cy][cx] = glyph
	}
	for si, s := range t.Series {
		glyph := seriesGlyphs[si%len(seriesGlyphs)]
		for i, v := range s {
			plot(t.X[i], v, glyph)
		}
		// Linear interpolation between samples for denser lines.
		for i := 1; i < len(s); i++ {
			steps := width / len(t.X)
			for st := 1; st < steps; st++ {
				f := float64(st) / float64(steps)
				plot(t.X[i-1]+f*(t.X[i]-t.X[i-1]), s[i-1]+f*(s[i]-s[i-1]), glyph)
			}
		}
	}

	var sb strings.Builder
	fmt.Fprintf(&sb, "%8.3g ┤%s\n", yMax, string(grid[0]))
	for r := 1; r < height-1; r++ {
		fmt.Fprintf(&sb, "%8s │%s\n", "", string(grid[r]))
	}
	fmt.Fprintf(&sb, "%8.3g ┤%s\n", yMin, string(grid[height-1]))
	fmt.Fprintf(&sb, "%8s └%s\n", "", strings.Repeat("─", width))
	fmt.Fprintf(&sb, "%9s%-*g%*g\n", "", width/2, xMin, width-width/2, xMax)
	fmt.Fprintf(&sb, "%9s%s\n", "", t.XName)
	for si, name := range t.Names {
		fmt.Fprintf(&sb, "%9s%c %s\n", "", seriesGlyphs[si%len(seriesGlyphs)], name)
	}
	return sb.String(), nil
}
