package experiments

import (
	"fmt"
	"io"
	"math"
	"slices"
	"time"

	"mantle/internal/bench"
	"mantle/internal/metrics"
	"mantle/internal/types"
)

// Row is one measured cell of a figure: the value of Series at Label
// (a system, an op, a configuration or a sweep point).
type Row struct {
	Figure string // registry id, e.g. "fig12"
	Label  string
	Series string
	Value  float64
	Unit   Unit
}

// Unit says what a Row's value measures and how it prints.
type Unit string

const (
	OpsPerSec Unit = "op/s" // throughput, printed as bench.Kops does
	Micros    Unit = "µs"   // a latency or a wall time
	Ratio     Unit = "x"    // normalised to a base stated by the figure
	Percent   Unit = "%"
	Bytes     Unit = "B"
	Count     Unit = "" // entries, RPCs, retries, depths
)

// format prints v in unit u.
func format(v float64, u Unit) string {
	switch u {
	case OpsPerSec:
		return bench.Kops(v)
	case Micros:
		d := time.Duration(v * float64(time.Microsecond))
		if d >= time.Second {
			return d.Round(time.Millisecond).String()
		}
		return d.Round(time.Microsecond).String()
	case Ratio:
		return fmt.Sprintf("%.2fx", v)
	case Percent:
		return fmt.Sprintf("%.1f%%", v)
	case Bytes:
		if v >= 1024 {
			return fmt.Sprintf("%.1f KiB", v/1024)
		}
		return fmt.Sprintf("%.0f B", v)
	}
	if v == math.Trunc(v) {
		return fmt.Sprintf("%.0f", v)
	}
	return fmt.Sprintf("%.1f", v)
}

// render prints one figure's rows as a table: a line per label and a
// column per series, each in the order the rows first name it. label
// heads the label column.
func render(w io.Writer, title, label string, rows []Row) {
	var labels, series []string
	cells := map[[2]string]string{}
	for _, r := range rows {
		if !slices.Contains(labels, r.Label) {
			labels = append(labels, r.Label)
		}
		if !slices.Contains(series, r.Series) {
			series = append(series, r.Series)
		}
		cells[[2]string{r.Label, r.Series}] = format(r.Value, r.Unit)
	}
	table := make([][]string, 0, len(labels))
	for _, l := range labels {
		line := []string{l}
		for _, s := range series {
			line = append(line, cells[[2]string{l, s}])
		}
		table = append(table, line)
	}
	bench.Table(w, title, append([]string{label}, series...), table)
}

func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// breakdown is r's mean time per op in each phase and in total: the
// Figure 4a, 13 and 15 columns.
func breakdown(fig, label string, r bench.RunResult) []Row {
	return []Row{
		{fig, label, "lookup", micros(r.MeanPhase(types.PhaseLookup)), Micros},
		{fig, label, "loopdetect", micros(r.MeanPhase(types.PhaseLoopDetect)), Micros},
		{fig, label, "execute", micros(r.MeanPhase(types.PhaseExecute)), Micros},
		{fig, label, "total", micros(r.Latency.Mean()), Micros},
	}
}

// quantiles summarises h's CDF: the Figure 11 columns.
func quantiles(fig, label string, h *metrics.Latency) []Row {
	rows := make([]Row, 0, 6)
	for _, q := range []struct {
		name string
		q    float64
	}{{"p10", 0.10}, {"p50", 0.50}, {"p90", 0.90}, {"p99", 0.99}, {"p999", 0.999}} {
		rows = append(rows, Row{fig, label, q.name, micros(h.Quantile(q.q)), Micros})
	}
	return append(rows, Row{fig, label, "max", micros(h.Max()), Micros})
}
