package trace

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// FlightRecord is one captured slow operation: the rendered span tree
// plus the numbers that made it interesting. The recorder keeps the
// trace and renders the tree when a snapshot is taken, so a capture
// costs the op no allocation; traces are never recycled, so a kept one
// stays valid.
type FlightRecord struct {
	Op        string        `json:"op"`
	When      time.Time     `json:"when"`
	Duration  time.Duration `json:"duration"`
	Threshold time.Duration `json:"threshold"`
	// Record marks a record-breaker: the op was slower than every
	// previously offered op, captured even below its threshold.
	Record bool   `json:"record,omitempty"`
	Trips  int64  `json:"trips"`
	Bytes  int64  `json:"bytes"`
	Tree   string `json:"tree"`

	tr *Trace
}

// FlightRecorder tail-samples slow operations into a fixed-size ring:
// the service head-samples a fraction of operations into traces, and
// Offer keeps those whose latency exceeded the caller's threshold (a
// per-op p99-derived cut in Mantle) — plus record-breakers, ops slower
// than every previously offered one, so a live histogram's p99 being
// anchored by an untraceable warm-up transient can never starve the
// recorder empty. The newest records win; the ring is retrievable
// live, without stopping the server.
type FlightRecorder struct {
	sampled  atomic.Int64
	captured atomic.Int64
	maxSeen  atomic.Int64 // slowest offered duration (ns)

	mu   sync.Mutex
	ring []FlightRecord
	next int
	n    int // filled slots, ≤ len(ring)
}

// NewFlightRecorder creates a recorder keeping the last size slow ops
// (minimum 1).
func NewFlightRecorder(size int) *FlightRecorder {
	if size < 1 {
		size = 1
	}
	return &FlightRecorder{ring: make([]FlightRecord, size)}
}

// Offer presents a finished trace for capture. Every offer counts as a
// sampled op; the trace is captured — its tree rendered and stored,
// displacing the oldest record — when dur reaches threshold, or when
// the op is a record-breaker (slower than every prior offer). Returns
// whether the trace was captured.
func (f *FlightRecorder) Offer(op string, tr *Trace, dur, threshold time.Duration) bool {
	f.sampled.Add(1)
	if tr == nil {
		return false
	}
	record := false
	for {
		cur := f.maxSeen.Load()
		if int64(dur) <= cur {
			break
		}
		if f.maxSeen.CompareAndSwap(cur, int64(dur)) {
			record = true
			break
		}
	}
	if dur < threshold && !record {
		return false
	}
	rec := FlightRecord{
		Op:        op,
		When:      time.Now(),
		Duration:  dur,
		Threshold: threshold,
		Record:    record,
		Trips:     tr.Trips(),
		Bytes:     tr.Bytes(),
		tr:        tr,
	}
	f.captured.Add(1)
	f.mu.Lock()
	f.ring[f.next] = rec
	f.next = (f.next + 1) % len(f.ring)
	if f.n < len(f.ring) {
		f.n++
	}
	f.mu.Unlock()
	return true
}

// Sampled returns how many operations were offered to the recorder.
func (f *FlightRecorder) Sampled() int64 { return f.sampled.Load() }

// Captured returns how many offers exceeded their threshold (including
// ones since displaced from the ring).
func (f *FlightRecorder) Captured() int64 { return f.captured.Load() }

// Snapshot returns the retained records, newest first, with their trees
// rendered.
func (f *FlightRecorder) Snapshot() []FlightRecord {
	f.mu.Lock()
	out := make([]FlightRecord, 0, f.n)
	for i := 1; i <= f.n; i++ {
		out = append(out, f.ring[(f.next-i+len(f.ring))%len(f.ring)])
	}
	f.mu.Unlock()
	for i := range out {
		out[i].Tree = out[i].tr.Tree()
	}
	return out
}

// WriteText renders the retained records, newest first: a summary line
// per record followed by its indented span tree.
func (f *FlightRecorder) WriteText(w io.Writer) {
	recs := f.Snapshot()
	fmt.Fprintf(w, "flight recorder: %d sampled, %d captured, %d retained\n",
		f.Sampled(), f.Captured(), len(recs))
	for _, r := range recs {
		mark := ""
		if r.Record {
			mark = "  [record]"
		}
		fmt.Fprintf(w, "\n[%s] %s  %v (threshold %v)%s  trips=%d bytes=%d\n",
			r.When.Format(time.RFC3339), r.Op,
			r.Duration.Round(time.Microsecond), r.Threshold.Round(time.Microsecond),
			mark, r.Trips, r.Bytes)
		io.WriteString(w, r.Tree)
	}
}
