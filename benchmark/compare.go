package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
)

func readReport(path string) (*report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep report
	if err := json.Unmarshal(b, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}

// verdict judges run B against base run A on one end-to-end metric.
//
//   - ok: B's median is no worse than A's by more than the bound
//     (Bound x A's median, or the metric's absolute floor if larger).
//   - unresolved: B's median is worse by more than the bound, but the
//     two runs' slice ranges overlap by more than the bound, so the
//     slices cannot tell the runs apart at that resolution.
//   - worse: beyond the bound with the ranges apart.
func verdict(m metricSpec, a, b stat) (string, float64) {
	bound := max(m.Bound*a.Value, m.Floor)
	worseBy := b.Value - a.Value
	if m.Better == "higher" {
		worseBy = -worseBy
	}
	if worseBy <= bound {
		return "ok", bound
	}
	if overlap := min(a.Max, b.Max) - max(a.Min, b.Min); overlap > bound {
		return "unresolved", bound
	}
	return "worse", bound
}

// compareReports prints, per workload and end-to-end metric, both
// medians, the ratio with its base, the bound and the verdict. It
// returns 1 if any metric is worse, 2 if the reports cannot be read.
func compareReports(w io.Writer, pathA, pathB string) int {
	a, errA := readReport(pathA)
	b, errB := readReport(pathB)
	if err := errors.Join(errA, errB); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	return printComparison(w, a, b)
}

func printComparison(w io.Writer, a, b *report) int {
	byName := make(map[string]*workloadResult, len(b.Workloads))
	for _, res := range b.Workloads {
		byName[res.Name] = res
	}
	code := 0
	fmt.Fprintf(w, "%-14s %-16s %14s %14s %9s %9s  %s\n", "workload", "metric", "A (base)", "B", "B/A", "bound", "verdict")
	for _, ra := range a.Workloads {
		rb := byName[ra.Name]
		if rb == nil {
			continue
		}
		for _, m := range endToEnd {
			sa, sb := ra.EndToEnd[m.Name], rb.EndToEnd[m.Name]
			v, bound := verdict(m, sa, sb)
			if v == "worse" {
				code = 1
			}
			fmt.Fprintf(w, "%-14s %-16s %14.4f %14.4f %9.3f %8.1f%%  %s\n", ra.Name, m.Name,
				sa.Value, sb.Value, ratio(sb.Value, sa.Value), 100*ratio(bound, sa.Value), v)
		}
	}
	return code
}
