package metrics

import (
	"fmt"
	"strconv"
	"strings"
)

// Table is a simple text table used by the experiment runners to print the
// same rows the paper's tables and figures report.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// NewTable returns a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRow appends one row. A float64 cell renders as %.2f, a string as
// itself, and any other value as %v. The cells are rendered into one buffer
// and sliced from a single string, so a row costs two allocations however
// many cells it has, plus what fmt spends on a type this switch does not
// name.
func (t *Table) AddRow(cells ...interface{}) {
	var scratch [256]byte
	var ends [16]int
	buf, end := scratch[:0], ends[:0]
	for _, c := range cells {
		switch v := c.(type) {
		case float64:
			buf = strconv.AppendFloat(buf, v, 'f', 2, 64)
		case string:
			buf = append(buf, v...)
		case int:
			buf = strconv.AppendInt(buf, int64(v), 10)
		case bool:
			buf = strconv.AppendBool(buf, v)
		default:
			buf = fmt.Append(buf, c)
		}
		end = append(end, len(buf))
	}
	all := string(buf)
	row := make([]string, len(cells))
	start := 0
	for i, e := range end {
		row[i], start = all[start:e], e
	}
	t.Rows = append(t.Rows, row)
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var sb strings.Builder
	if t.Title != "" {
		sb.WriteString(t.Title)
		sb.WriteByte('\n')
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], cell)
		}
		sb.WriteByte('\n')
	}
	writeRow(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return sb.String()
}
