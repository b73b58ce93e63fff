package figures

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// This file gives tables a programmatic surface: hypotheses in
// internal/validate read regenerated figure values through these
// accessors instead of re-parsing rendered text. Cells stay strings in
// the Table (rendering is the source of truth for goldens); ParseValue
// recovers the number a cell encodes.

// ColumnIndex returns the position of the named column, or -1.
func (t *Table) ColumnIndex(col string) int {
	for i, c := range t.Columns {
		if c == col {
			return i
		}
	}
	return -1
}

// Row returns the first row whose leading cells equal key (one or more
// cells, matched in order from the first column). Tables whose rows are
// identified by a single label use one key; grids like fig3e
// (rx-buffer x ring) use two.
func (t *Table) Row(key ...string) ([]string, error) {
	if len(key) == 0 {
		return nil, fmt.Errorf("figures: %s: empty row key", t.ID)
	}
outer:
	for _, row := range t.Rows {
		if len(row) < len(key) {
			continue
		}
		for i, k := range key {
			if row[i] != k {
				continue outer
			}
		}
		return row, nil
	}
	return nil, fmt.Errorf("figures: %s: no row %v", t.ID, key)
}

// Cell returns the named column's cell in the row identified by key.
func (t *Table) Cell(col string, key ...string) (string, error) {
	i := t.ColumnIndex(col)
	if i < 0 {
		return "", fmt.Errorf("figures: %s: no column %q (have %v)", t.ID, col, t.Columns)
	}
	row, err := t.Row(key...)
	if err != nil {
		return "", err
	}
	if i >= len(row) {
		return "", fmt.Errorf("figures: %s: row %v has no cell %d", t.ID, key, i)
	}
	return row[i], nil
}

// Value parses the named column's cell in the row identified by key; see
// ParseValue for the cell grammar.
func (t *Table) Value(col string, key ...string) (float64, error) {
	cell, err := t.Cell(col, key...)
	if err != nil {
		return 0, err
	}
	v, err := ParseValue(cell)
	if err != nil {
		return 0, fmt.Errorf("figures: %s: column %q row %v: %w", t.ID, col, key, err)
	}
	return v, nil
}

// Column returns every row's parsed value of the named column, in row
// order.
func (t *Table) Column(col string) ([]float64, error) {
	i := t.ColumnIndex(col)
	if i < 0 {
		return nil, fmt.Errorf("figures: %s: no column %q (have %v)", t.ID, col, t.Columns)
	}
	out := make([]float64, 0, len(t.Rows))
	for _, row := range t.Rows {
		if i >= len(row) {
			return nil, fmt.Errorf("figures: %s: ragged row %v", t.ID, row)
		}
		v, err := ParseValue(row[i])
		if err != nil {
			return nil, fmt.Errorf("figures: %s: column %q: %w", t.ID, col, err)
		}
		out = append(out, v)
	}
	return out, nil
}

// ParseValue recovers the number a rendered cell encodes:
//
//   - "62.8%"  -> 0.628 (percentages become fractions)
//   - "532µs"  -> 5.32e-4 (durations become seconds)
//   - "41.36", "1.5e-04", "128" -> the plain float
//
// Anything else (row labels, booleans) is an error; compare those with
// Cell instead.
func ParseValue(cell string) (float64, error) {
	s := strings.TrimSpace(cell)
	if s == "" {
		return 0, fmt.Errorf("empty cell")
	}
	if strings.HasSuffix(s, "%") {
		v, err := strconv.ParseFloat(strings.TrimSuffix(s, "%"), 64)
		if err != nil {
			return 0, fmt.Errorf("bad percentage %q", cell)
		}
		return v / 100, nil
	}
	if v, err := strconv.ParseFloat(s, 64); err == nil {
		return v, nil
	}
	if d, err := time.ParseDuration(s); err == nil {
		return d.Seconds(), nil
	}
	return 0, fmt.Errorf("cell %q is not numeric", cell)
}
