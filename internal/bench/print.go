package bench

import (
	"fmt"
	"io"
	"strings"
	"time"

	"mantle/internal/metrics"
	"mantle/internal/types"
)

// Kops formats a throughput in Kop/s as the paper reports.
func Kops(opsPerSec float64) string {
	switch {
	case opsPerSec >= 1e6:
		return fmt.Sprintf("%.2f Mop/s", opsPerSec/1e6)
	case opsPerSec >= 1e3:
		return fmt.Sprintf("%.1f Kop/s", opsPerSec/1e3)
	default:
		return fmt.Sprintf("%.0f op/s", opsPerSec)
	}
}

// Table renders an aligned text table.
func Table(w io.Writer, title string, header []string, rows [][]string) {
	if title != "" {
		fmt.Fprintf(w, "\n== %s ==\n", title)
	}
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(header)
	sep := make([]string, len(header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range rows {
		line(r)
	}
}

// BreakdownRow formats a result's phase breakdown (mean µs per phase),
// as in Figures 13 and 15.
func BreakdownRow(r RunResult) []string {
	return []string{
		fmt.Sprintf("%.0f", us(r.MeanPhase(types.PhaseLookup))),
		fmt.Sprintf("%.0f", us(r.MeanPhase(types.PhaseLoopDetect))),
		fmt.Sprintf("%.0f", us(r.MeanPhase(types.PhaseExecute))),
		fmt.Sprintf("%.0f", us(r.Latency.Mean())),
	}
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// CDFSummary prints quantile rows for a set of named histograms — the
// textual rendering of a CDF figure.
func CDFSummary(w io.Writer, title string, series []NamedHist) {
	header := []string{"system", "p10", "p50", "p90", "p99", "p999", "max"}
	rows := make([][]string, 0, len(series))
	for _, s := range series {
		rows = append(rows, []string{
			s.Name,
			s.Hist.Quantile(0.10).Round(time.Microsecond).String(),
			s.Hist.Quantile(0.50).Round(time.Microsecond).String(),
			s.Hist.Quantile(0.90).Round(time.Microsecond).String(),
			s.Hist.Quantile(0.99).Round(time.Microsecond).String(),
			s.Hist.Quantile(0.999).Round(time.Microsecond).String(),
			s.Hist.Max().Round(time.Microsecond).String(),
		})
	}
	Table(w, title, header, rows)
}

// NamedHist pairs a label with a histogram.
type NamedHist struct {
	Name string
	Hist *metrics.Latency
}
