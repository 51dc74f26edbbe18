package experiments

import (
	"fmt"
	"time"
)

// Scale is the namespace-size flatness sweep at real storage scale — the
// Figure 19a claim ("throughput is flat from 1 to 10 billion entries")
// checked against actual per-entry storage rather than the scaled-down
// experiment population. It builds namespaces of 100K up to
// Params.ScaleEntries entries through the bulk-load fast path, then
// reports objstat throughput, p50/p99 latency, and resident bytes per
// entry at each size. Flat p50/p99 across two orders of magnitude of
// namespace size is the pass condition; bytes/entry is the capacity
// story (how many entries fit in one metadata node's RAM).
func Scale(p Params) ([]Row, error) {
	sizes := []int{100_000, 1_000_000, 10_000_000}
	if p.Quick {
		sizes = []int{20_000, 60_000}
	}
	var want []int
	for _, n := range sizes {
		if n <= p.ScaleEntries {
			want = append(want, n)
		}
	}
	if len(want) == 0 {
		want = []int{p.ScaleEntries}
	}

	p.Clients = min(p.Clients, 64)
	var rows []Row
	var p99base time.Duration
	for _, n := range want {
		pt, err := RunScale(p, "mantle", DefaultMantleOpts(), n, "objstat")
		if err != nil {
			return nil, fmt.Errorf("scale %d: %w", n, err)
		}
		p99 := pt.Result.Latency.Quantile(0.99)
		if p99base == 0 {
			p99base = p99
		}
		label := fmt.Sprint(pt.Entries)
		rows = append(rows,
			Row{"scale", label, "populate", micros(pt.Populate), Micros},
			Row{"scale", label, "bytes/entry", pt.BytesPerEntry, Bytes},
			Row{"scale", label, "objstat", pt.Result.Throughput, OpsPerSec},
			Row{"scale", label, "p50", micros(pt.Result.Latency.Quantile(0.5)), Micros},
			Row{"scale", label, "p99", micros(p99), Micros},
			Row{"scale", label, "p99 vs base", ratio(p99, p99base), Ratio})
	}
	return rows, nil
}
