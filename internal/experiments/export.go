package experiments

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
)

// rows lays r out as the table and CSV renderers print it: a header
// (the x label, then each series' label), then one row per x in the
// sorted union of the series' x values, formatted by fx, with each
// series' sample at x formatted by fy, or missing where it has none.
func rows(r Result, fx, fy func(float64) string, missing string) [][]string {
	header := []string{r.XLabel}
	set := make(map[float64]bool)
	idx := make([]map[float64]float64, len(r.Series))
	for i, s := range r.Series {
		header = append(header, s.Label)
		idx[i] = make(map[float64]float64, s.Len())
		for j, x := range s.X {
			set[x] = true
			idx[i][x] = s.Y[j]
		}
	}
	xs := make([]float64, 0, len(set))
	for x := range set {
		xs = append(xs, x)
	}
	sort.Float64s(xs)
	out := [][]string{header}
	for _, x := range xs {
		row := []string{fx(x)}
		for _, m := range idx {
			if y, ok := m[x]; ok {
				row = append(row, fy(y))
			} else {
				row = append(row, missing)
			}
		}
		out = append(out, row)
	}
	return out
}

// WriteCSV renders the result as CSV: a header row (the x label then
// one column per series), then one row per x value. Cells where a
// series has no sample are empty. Notes are not representable in CSV
// and are omitted; use WriteJSON to keep them.
func WriteCSV(w io.Writer, r Result) error {
	g := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	return csv.NewWriter(w).WriteAll(rows(r, g, g, ""))
}

// jsonResult is the stable JSON shape for a Result.
type jsonResult struct {
	Name   string       `json:"name"`
	XLabel string       `json:"xLabel"`
	YLabel string       `json:"yLabel"`
	Notes  []string     `json:"notes,omitempty"`
	Series []jsonSeries `json:"series"`
}

type jsonSeries struct {
	Label string    `json:"label"`
	X     []float64 `json:"x"`
	Y     []float64 `json:"y"`
}

// WriteJSON renders the result as pretty-printed JSON, including the
// notes.
func WriteJSON(w io.Writer, r Result) error {
	out := jsonResult{
		Name:   r.Name,
		XLabel: r.XLabel,
		YLabel: r.YLabel,
		Notes:  r.Notes,
	}
	for _, s := range r.Series {
		out.Series = append(out.Series, jsonSeries{Label: s.Label, X: s.X, Y: s.Y})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// Format names an output rendering for results.
type Format string

// Supported output formats.
const (
	FormatTable Format = "table"
	FormatCSV   Format = "csv"
	FormatJSON  Format = "json"
)

// WriteResult renders the result in the given format.
func WriteResult(w io.Writer, r Result, f Format) error {
	switch f {
	case FormatTable, "":
		PrintResult(w, r)
		return nil
	case FormatCSV:
		return WriteCSV(w, r)
	case FormatJSON:
		return WriteJSON(w, r)
	default:
		return fmt.Errorf("experiments: unknown format %q (have table, csv, json)", f)
	}
}
