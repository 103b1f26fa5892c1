// Package report is the structured result model behind the Scenario
// API. A scenario run produces one *Report: run metadata (scenario
// name, seed, effective parameters), an ordered list of presentation
// blocks (free-form text lines and typed tables), and machine-facing
// scalars and series that never appear in the text rendering.
//
// The text renderer (Text) is deterministic and byte-exact: rendering
// a Report writes the same bytes the pre-API experiments printed by
// hand, so `cxlpool all` goldens survive the redesign unchanged. The
// JSON form (MarshalJSON/Unmarshal) carries everything the text form
// does — the round-trip test in internal/experiments pins
// render(parse(marshal(r))) == render(r) for every scenario.
package report

import (
	"fmt"
	"strings"
)

// Report is one scenario run's structured result.
type Report struct {
	// Scenario is the registry name ("figure2", "cluster", ...).
	Scenario string
	// Title is the paper-artifact reference shown by `cxlpool list`.
	Title string
	// Meta records what produced this report.
	Meta Meta
	// Blocks is the ordered presentation stream: text paragraphs and
	// tables, rendered in order by the text renderer.
	Blocks []Block
	// Scalars are machine-facing named metrics (JSON/CSV only; the
	// text renderer ignores them).
	Scalars []Scalar
	// Series are machine-facing (x, y) curves (JSON only).
	Series []Series
}

// Meta is the run metadata.
type Meta struct {
	// Seed is the simulation seed the run used.
	Seed int64
	// Params are the effective parameter values in declaration order
	// (including seed).
	Params []Param
}

// Param is one effective parameter value in canonical string form.
type Param struct {
	Name  string
	Value string
}

// Scalar is one named metric with an optional unit.
type Scalar struct {
	Name  string
	Value float64
	Unit  string
}

// Series is a named curve. Points are (x, y) pairs.
type Series struct {
	Name   string
	XLabel string
	YLabel string
	Points [][2]float64
}

// Block is one presentation element. Exactly two kinds exist: *TextBlock
// and *Table.
type Block interface {
	isBlock()
}

// TextBlock is a run of verbatim text lines, each rendered with a
// trailing newline. An empty string is a blank line.
type TextBlock struct {
	Lines []string
}

func (*TextBlock) isBlock() {}

// CellKind types a table cell.
type CellKind int

const (
	// CellString cells carry only text.
	CellString CellKind = iota
	// CellNumber cells carry a numeric value alongside the formatted
	// text the text renderer prints.
	CellNumber
)

// Cell is one table cell: the exact text the fixed-width renderer
// prints, plus the raw numeric value when the column is numeric.
type Cell struct {
	Text string
	Kind CellKind
	Num  float64
}

// Str makes a string cell.
func Str(text string) Cell { return Cell{Text: text} }

// Strf makes a formatted string cell.
func Strf(format string, args ...any) Cell {
	return Cell{Text: fmt.Sprintf(format, args...)}
}

// Num makes a numeric cell: v is the machine-facing value, format is
// how the text renderer prints it (e.g. "%.1f", "%.0f ns", "%d").
func Num(v float64, format string, args ...any) Cell {
	if len(args) == 0 {
		args = []any{v}
	}
	return Cell{Text: fmt.Sprintf(format, args...), Kind: CellNumber, Num: v}
}

// Column declares one table column: the exact header text plus the
// cell kind tools should expect.
type Column struct {
	Name string
	Kind CellKind
}

// StrCol declares a string column.
func StrCol(name string) Column { return Column{Name: name} }

// NumCol declares a numeric column.
func NumCol(name string) Column { return Column{Name: name, Kind: CellNumber} }

// Table is a typed table block. Its text rendering is the repository's
// standard fixed-width layout: a header, a dash rule, and left-aligned
// columns two spaces apart.
type Table struct {
	// Name is the machine-facing identifier (never rendered as text).
	Name string
	Cols []Column
	Rows [][]Cell
}

func (*Table) isBlock() {}

// Row appends one row; short rows are padded with empty string cells.
func (t *Table) Row(cells ...Cell) {
	row := make([]Cell, len(t.Cols))
	copy(row, cells)
	t.Rows = append(t.Rows, row)
}

// renderText writes the fixed-width layout: header, dashed separator,
// rows; columns separated by two spaces, every cell left-padded to the
// column width (including the last — byte-compatible with the
// hand-written tables the goldens pin).
func (t *Table) renderText(b *strings.Builder) {
	widths := make([]int, len(t.Cols))
	for i, c := range t.Cols {
		widths[i] = len(c.Name)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c.Text) > widths[i] {
				widths[i] = len(c.Text)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	head := make([]string, len(t.Cols))
	for i, c := range t.Cols {
		head[i] = c.Name
	}
	writeRow(head)
	sep := make([]string, len(t.Cols))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	row := make([]string, len(t.Cols))
	for _, r := range t.Rows {
		for i, c := range r {
			row[i] = c.Text
		}
		writeRow(row)
	}
}

// New starts a report for a scenario run.
func New(scenario, title string, seed int64, params []Param) *Report {
	return &Report{
		Scenario: scenario,
		Title:    title,
		Meta:     Meta{Seed: seed, Params: params},
	}
}

// text returns the trailing *TextBlock, appending one if needed.
func (r *Report) text() *TextBlock {
	if n := len(r.Blocks); n > 0 {
		if tb, ok := r.Blocks[n-1].(*TextBlock); ok {
			return tb
		}
	}
	tb := &TextBlock{}
	r.Blocks = append(r.Blocks, tb)
	return tb
}

// Linef appends one text line (no trailing newline in format).
func (r *Report) Linef(format string, args ...any) {
	tb := r.text()
	tb.Lines = append(tb.Lines, fmt.Sprintf(format, args...))
}

// Line appends one verbatim text line.
func (r *Report) Line(s string) {
	tb := r.text()
	tb.Lines = append(tb.Lines, s)
}

// Blank appends an empty line.
func (r *Report) Blank() { r.Line("") }

// AddTable appends a typed table block and returns it for row filling.
func (r *Report) AddTable(name string, cols ...Column) *Table {
	t := &Table{Name: name, Cols: cols}
	r.Blocks = append(r.Blocks, t)
	return t
}

// AddScalar records one machine-facing metric.
func (r *Report) AddScalar(name string, v float64, unit string) {
	r.Scalars = append(r.Scalars, Scalar{Name: name, Value: v, Unit: unit})
}

// AddSeries records one machine-facing curve.
func (r *Report) AddSeries(s Series) {
	r.Series = append(r.Series, s)
}

// Text renders the presentation blocks to a string, byte-identical to
// the hand-written output the goldens pin.
func (r *Report) Text() string {
	var b strings.Builder
	for _, blk := range r.Blocks {
		switch t := blk.(type) {
		case *TextBlock:
			for _, line := range t.Lines {
				b.WriteString(line)
				b.WriteByte('\n')
			}
		case *Table:
			t.renderText(&b)
		}
	}
	return b.String()
}
