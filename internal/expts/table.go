// Package expts is the experiment harness that regenerates the paper's
// Table 1 and figure-level claims empirically. Each experiment is a named,
// seeded, self-contained procedure that produces a formatted table plus a
// note stating the paper's expectation, so its output shows
// paper-vs-measured side by side. `pmwcm list` prints the experiment
// index.
package expts

import (
	"fmt"
	"io"
	"strings"
)

// Table is a simple aligned text table with a headline and notes.
type Table struct {
	// Name is the experiment id (e.g. "T1.LIN").
	Name string
	// Title is a one-line description.
	Title string
	// PaperClaim states what shape the paper predicts.
	PaperClaim string
	// Columns are the header cells.
	Columns []string
	// Rows hold formatted cells; each row must match len(Columns).
	Rows [][]string
	// Notes carries free-form observations appended by the run.
	Notes []string
}

// Add appends a row, converting values with %v/%.4g as appropriate.
func (t *Table) Add(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case string:
			row[i] = v
		case float64:
			row[i] = fmt.Sprintf("%.4g", v)
		case int:
			row[i] = fmt.Sprintf("%d", v)
		default:
			row[i] = fmt.Sprintf("%v", v)
		}
	}
	t.Rows = append(t.Rows, row)
}

// Note appends an observation line.
func (t *Table) Note(format string, args ...interface{}) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// Write renders the table as aligned text.
func (t *Table) Write(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "== %s — %s ==\n", t.Name, t.Title); err != nil {
		return err
	}
	if t.PaperClaim != "" {
		if _, err := fmt.Fprintf(w, "paper: %s\n", t.PaperClaim); err != nil {
			return err
		}
	}
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) string {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = pad(c, widths[i])
		}
		return strings.Join(parts, "  ")
	}
	if _, err := fmt.Fprintln(w, line(t.Columns)); err != nil {
		return err
	}
	total := len(widths) - 1
	for _, wd := range widths {
		total += wd + 1
	}
	if _, err := fmt.Fprintln(w, strings.Repeat("-", total)); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if _, err := fmt.Fprintln(w, line(row)); err != nil {
			return err
		}
	}
	for _, n := range t.Notes {
		if _, err := fmt.Fprintf(w, "note: %s\n", n); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

// CSV renders the table as comma-separated values (cells containing commas
// are quoted).
func (t *Table) CSV(w io.Writer) error {
	writeRow := func(cells []string) error {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if strings.ContainsAny(c, ",\"\n") {
				c = `"` + strings.ReplaceAll(c, `"`, `""`) + `"`
			}
			parts[i] = c
		}
		_, err := fmt.Fprintln(w, strings.Join(parts, ","))
		return err
	}
	if err := writeRow(t.Columns); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := writeRow(row); err != nil {
			return err
		}
	}
	return nil
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}
