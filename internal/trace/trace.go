// Package trace records experiment time series and renders them as CSV,
// terminal ASCII charts, and aligned text tables — the output layer
// of the figure-regeneration harness (cmd/qarvfig).
package trace

import (
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// Series is one named sequence of values.
type Series struct {
	Name   string    `json:"name"`
	Values []float64 `json:"values"`
}

// FromInts converts an int series.
func FromInts(name string, xs []int) Series {
	vals := make([]float64, len(xs))
	for i, v := range xs {
		vals[i] = float64(v)
	}
	return Series{Name: name, Values: vals}
}

// Table is a set of equally long series over a shared x axis.
type Table struct {
	XName  string    `json:"xName"`
	X      []float64 `json:"x"`
	Series []Series  `json:"series"`
}

// Table construction errors.
var (
	ErrLengthMismatch = errors.New("trace: series length does not match x axis")
	ErrEmptyTable     = errors.New("trace: table has no data")
)

// NewTable builds a table over x = 0..n−1 (slot numbers).
func NewTable(xName string, n int) *Table {
	x := make([]float64, n)
	for i := range x {
		x[i] = float64(i)
	}
	return &Table{XName: xName, X: x}
}

// NewTableWithX builds a table over an explicit x axis (octree depths,
// sweep cells — anything that isn't consecutive slot numbers).
func NewTableWithX(xName string, x []float64) *Table {
	return &Table{XName: xName, X: x}
}

// Add appends a series, validating its length.
func (t *Table) Add(s Series) error {
	if len(s.Values) != len(t.X) {
		return fmt.Errorf("%w: %q has %d values for %d x", ErrLengthMismatch, s.Name, len(s.Values), len(t.X))
	}
	t.Series = append(t.Series, s)
	return nil
}

// WriteCSV emits the table as CSV with a header row.
func (t *Table) WriteCSV(w io.Writer) error {
	if len(t.X) == 0 || len(t.Series) == 0 {
		return ErrEmptyTable
	}
	var sb strings.Builder
	sb.WriteString(csvEscape(t.XName))
	for _, s := range t.Series {
		sb.WriteByte(',')
		sb.WriteString(csvEscape(s.Name))
	}
	sb.WriteByte('\n')
	if _, err := io.WriteString(w, sb.String()); err != nil {
		return err
	}
	for i := range t.X {
		sb.Reset()
		sb.WriteString(strconv.FormatFloat(t.X[i], 'g', -1, 64))
		for _, s := range t.Series {
			sb.WriteByte(',')
			sb.WriteString(strconv.FormatFloat(s.Values[i], 'g', -1, 64))
		}
		sb.WriteByte('\n')
		if _, err := io.WriteString(w, sb.String()); err != nil {
			return err
		}
	}
	return nil
}

func csvEscape(s string) string {
	if strings.ContainsAny(s, ",\"\n") {
		return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
	}
	return s
}

// ChartOptions controls ASCII rendering.
type ChartOptions struct {
	Width  int // plot columns (default 72)
	Height int // plot rows (default 18)
	Title  string
}

// seriesGlyphs are assigned to series in order.
var seriesGlyphs = []byte{'*', 'o', '+', 'x', '#', '@', '%', '~'}

// RenderASCII draws the table as a terminal line chart with a legend —
// the harness's stand-in for the paper's matplotlib figures.
func (t *Table) RenderASCII(w io.Writer, opts ChartOptions) error {
	if len(t.X) == 0 || len(t.Series) == 0 {
		return ErrEmptyTable
	}
	width := opts.Width
	if width <= 0 {
		width = 72
	}
	height := opts.Height
	if height <= 0 {
		height = 18
	}
	ymin, ymax := math.Inf(1), math.Inf(-1)
	for _, s := range t.Series {
		for _, v := range s.Values {
			if v < ymin {
				ymin = v
			}
			if v > ymax {
				ymax = v
			}
		}
	}
	if ymin == ymax {
		ymax = ymin + 1
	}
	canvas := make([][]byte, height)
	for i := range canvas {
		canvas[i] = []byte(strings.Repeat(" ", width))
	}
	n := len(t.X)
	for si, s := range t.Series {
		glyph := seriesGlyphs[si%len(seriesGlyphs)]
		for col := 0; col < width; col++ {
			// Sample the series at this column (nearest index).
			idx := col * (n - 1) / max(width-1, 1)
			v := s.Values[idx]
			row := int((ymax - v) / (ymax - ymin) * float64(height-1))
			if row < 0 {
				row = 0
			}
			if row >= height {
				row = height - 1
			}
			canvas[row][col] = glyph
		}
	}
	var sb strings.Builder
	if opts.Title != "" {
		sb.WriteString(opts.Title)
		sb.WriteByte('\n')
	}
	yLabelWidth := 12
	for i, line := range canvas {
		var label string
		switch i {
		case 0:
			label = formatTick(ymax)
		case height - 1:
			label = formatTick(ymin)
		case (height - 1) / 2:
			label = formatTick((ymax + ymin) / 2)
		}
		sb.WriteString(fmt.Sprintf("%*s |", yLabelWidth, label))
		sb.Write(line)
		sb.WriteByte('\n')
	}
	sb.WriteString(fmt.Sprintf("%*s +%s\n", yLabelWidth, "", strings.Repeat("-", width)))
	sb.WriteString(fmt.Sprintf("%*s  %-*s%s\n", yLabelWidth, "",
		width-len(formatTick(t.X[n-1])), formatTick(t.X[0]), formatTick(t.X[n-1])))
	sb.WriteString(fmt.Sprintf("%*s  %s: ", yLabelWidth, "", t.XName))
	for si, s := range t.Series {
		if si > 0 {
			sb.WriteString("   ")
		}
		sb.WriteString(fmt.Sprintf("[%c] %s", seriesGlyphs[si%len(seriesGlyphs)], s.Name))
	}
	sb.WriteByte('\n')
	_, err := io.WriteString(w, sb.String())
	return err
}

func formatTick(v float64) string {
	av := math.Abs(v)
	switch {
	case av >= 1e6:
		return fmt.Sprintf("%.2fM", v/1e6)
	case av >= 1e3:
		return fmt.Sprintf("%.1fk", v/1e3)
	case av == math.Trunc(av):
		return strconv.FormatFloat(v, 'f', 0, 64)
	default:
		return fmt.Sprintf("%.3g", v)
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// RenderTextTable writes rows as an aligned text table with a header.
func RenderTextTable(w io.Writer, headers []string, rows [][]string) error {
	if len(headers) == 0 {
		return errors.New("trace: table needs headers")
	}
	widths := make([]int, len(headers))
	for i, h := range headers {
		widths[i] = len(h)
	}
	for _, row := range rows {
		if len(row) != len(headers) {
			return fmt.Errorf("trace: row has %d cells for %d headers", len(row), len(headers))
		}
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) error {
		var sb strings.Builder
		for i, cell := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(fmt.Sprintf("%-*s", widths[i], cell))
		}
		sb.WriteByte('\n')
		_, err := io.WriteString(w, sb.String())
		return err
	}
	if err := writeRow(headers); err != nil {
		return err
	}
	sep := make([]string, len(headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	if err := writeRow(sep); err != nil {
		return err
	}
	for _, row := range rows {
		if err := writeRow(row); err != nil {
			return err
		}
	}
	return nil
}
