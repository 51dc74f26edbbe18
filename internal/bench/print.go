package bench

import (
	"fmt"
	"io"
	"strings"
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
