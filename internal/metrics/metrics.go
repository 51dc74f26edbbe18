// Package metrics is a small dependency-free metrics registry: named
// counters, gauges, and fixed-bucket latency histograms with a text
// exposition format — the observability surface a production metadata
// service needs (the paper's deployment section describes profiling
// IndexNode CPU and per-namespace peak throughputs; this is the hook
// such monitoring reads from).
//
// Latency replaces the earlier lossy count/mean/max accumulator with an
// HDR-style fixed-bucket histogram: 4 geometric buckets per octave from
// 1µs to ~3min (ratio 2^¼ ≈ 1.19), so any quantile estimate is within
// ~19% relative error of the true sample — tight enough to report
// p50/p95/p99 tails honestly. Observe is lock-free (one atomic add per
// bucket), so hot paths record at full concurrency.
package metrics

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing int64.
type Counter struct {
	v atomic.Int64
}

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Histogram bucket layout: bucket 0 holds samples < 1µs; bucket i
// (1 ≤ i < NumBuckets-1) holds samples in (bound(i-1), bound(i)] with
// bound(i) = 1µs × 2^(i/4); the last bucket is the overflow.
const (
	// NumBuckets is the fixed bucket count of every Latency histogram.
	NumBuckets = 112
	bucketUnit = time.Microsecond
)

// bucketBounds[i] is the inclusive upper bound of bucket i (the last
// entry is a sentinel for the overflow bucket).
var bucketBounds = func() [NumBuckets]time.Duration {
	var b [NumBuckets]time.Duration
	// 2^(1/4) as a rational walk: recompute each octave from a shifted
	// base to avoid float drift across 27 octaves.
	for i := 0; i < NumBuckets-1; i++ {
		b[i] = time.Duration(float64(bucketUnit) * pow2(float64(i)/4))
	}
	b[NumBuckets-1] = 1 << 62
	return b
}()

// pow2 returns 2^x for x ≥ 0 without importing math (keeps the hot
// path free of it too; this runs once at init).
func pow2(x float64) float64 {
	n := int(x)
	frac := x - float64(n)
	v := 1.0
	for i := 0; i < n; i++ {
		v *= 2
	}
	// 2^frac via 4th roots of two (frac is always k/4 here).
	const root4 = 1.189207115002721 // 2^(1/4)
	for f := frac; f > 1e-9; f -= 0.25 {
		v *= root4
	}
	return v
}

// BucketBound returns the inclusive upper bound of bucket i (the last
// bucket's bound is effectively +Inf). Exposed for boundary tests.
func BucketBound(i int) time.Duration { return bucketBounds[i] }

// bucketOf maps a duration to its bucket index by binary search over
// the fixed bounds (7 probes).
func bucketOf(d time.Duration) int {
	lo, hi := 0, NumBuckets-1
	for lo < hi {
		mid := (lo + hi) / 2
		if d <= bucketBounds[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// Latency is a fixed-bucket latency histogram. The zero value is ready
// to use; all methods are safe for concurrent use.
type Latency struct {
	buckets [NumBuckets]atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64
	max     atomic.Int64
	min     atomic.Int64 // stored as -(min+1) so zero means "unset"
}

// Observe records one duration.
func (l *Latency) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	l.buckets[bucketOf(d)].Add(1)
	l.count.Add(1)
	l.sum.Add(int64(d))
	for {
		cur := l.max.Load()
		if int64(d) <= cur || l.max.CompareAndSwap(cur, int64(d)) {
			break
		}
	}
	for {
		cur := l.min.Load()
		if (cur != 0 && -(int64(d)+1) <= cur) || l.min.CompareAndSwap(cur, -(int64(d)+1)) {
			break
		}
	}
}

// Count returns the number of observations.
func (l *Latency) Count() int64 { return l.count.Load() }

// Mean returns the average observation.
func (l *Latency) Mean() time.Duration {
	if count := l.count.Load(); count > 0 {
		return time.Duration(l.sum.Load() / count)
	}
	return 0
}

// Snapshot returns count, mean, and max.
func (l *Latency) Snapshot() (count int64, mean, max time.Duration) {
	return l.Count(), l.Mean(), l.Max()
}

// Max returns the largest observation (exact, not bucketed).
func (l *Latency) Max() time.Duration { return time.Duration(l.max.Load()) }

// Min returns the smallest observation (exact, not bucketed).
func (l *Latency) Min() time.Duration {
	v := l.min.Load()
	if v == 0 {
		return 0
	}
	return time.Duration(-v - 1)
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) by locating the target
// rank's bucket and interpolating linearly inside it. Estimates are
// clamped to the exact observed [min, max], so Quantile(0) and
// Quantile(1) are exact and every estimate is within one bucket ratio
// (~19%) of the true sample.
func (l *Latency) Quantile(q float64) time.Duration {
	count := l.count.Load()
	if count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := int64(q * float64(count))
	if target >= count {
		target = count - 1
	}
	var cum int64
	for i := 0; i < NumBuckets; i++ {
		n := l.buckets[i].Load()
		if n == 0 {
			continue
		}
		if cum+n > target {
			lower := time.Duration(0)
			if i > 0 {
				lower = bucketBounds[i-1]
			}
			if i == NumBuckets-1 {
				// Overflow bucket: it has no finite upper bound, so
				// interpolating against the sentinel (or even against
				// the exact max, whose distance from the last finite
				// bound is unbounded) is meaningless. Report the exact
				// observed max — the only honest point estimate for a
				// rank beyond the bucketed range.
				return l.Max()
			}
			upper := bucketBounds[i]
			// Interpolate by rank position within the bucket.
			frac := (float64(target-cum) + 0.5) / float64(n)
			est := lower + time.Duration(frac*float64(upper-lower))
			return clampDur(est, l.Min(), l.Max())
		}
		cum += n
	}
	return l.Max()
}

func clampDur(d, lo, hi time.Duration) time.Duration {
	if d < lo {
		return lo
	}
	if d > hi {
		return hi
	}
	return d
}

// Buckets snapshots the raw bucket counts (boundary tests, exporters).
func (l *Latency) Buckets() [NumBuckets]int64 {
	var out [NumBuckets]int64
	for i := range out {
		out[i] = l.buckets[i].Load()
	}
	return out
}

// Registry holds named metrics. The zero value is not usable; create
// registries with NewRegistry.
type Registry struct {
	mu        sync.Mutex
	counters  map[string]*Counter
	latencies map[string]*Latency
	gauges    map[string]func() int64
	fgauges   map[string]func() float64
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:  make(map[string]*Counter),
		latencies: make(map[string]*Latency),
		gauges:    make(map[string]func() int64),
		fgauges:   make(map[string]func() float64),
	}
}

// Counter returns (creating if needed) the named counter.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Latency returns (creating if needed) the named latency histogram.
func (r *Registry) Latency(name string) *Latency {
	r.mu.Lock()
	defer r.mu.Unlock()
	l, ok := r.latencies[name]
	if !ok {
		l = &Latency{}
		r.latencies[name] = l
	}
	return l
}

// AttachLatency registers an externally owned histogram under name, so
// a component can keep observing its own histogram (e.g. TafDB's
// txn-commit timer, Raft's propose timer) while the service registry
// exposes it in one dump. Replaces any histogram previously registered
// under name.
func (r *Registry) AttachLatency(name string, l *Latency) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.latencies[name] = l
}

// Gauge registers a callback sampled at exposition time.
func (r *Registry) Gauge(name string, fn func() int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.gauges[name] = fn
}

// GaugeFloat registers a float-valued callback sampled at exposition
// time — ratios like batch occupancy or group-commit fan-in, which an
// integer gauge would truncate to meaninglessness.
func (r *Registry) GaugeFloat(name string, fn func() float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.fgauges[name] = fn
}

// Write renders the registry in a flat "name value" text format, sorted
// by name. Latency histograms expand to _count/_mean_us/_p50_us/
// _p95_us/_p99_us/_max_us. Gauge callbacks are snapshotted under the
// registry lock but invoked outside it, so a gauge may safely read
// other metrics (or another registry) without deadlocking.
func (r *Registry) Write(w io.Writer) error {
	r.mu.Lock()
	lines := make([]string, 0, len(r.counters)+6*len(r.latencies)+len(r.gauges))
	for name, c := range r.counters {
		lines = append(lines, fmt.Sprintf("%s %d", name, c.Value()))
	}
	lats := make(map[string]*Latency, len(r.latencies))
	for name, l := range r.latencies {
		lats[name] = l
	}
	type gauge struct {
		name string
		fn   func() int64
	}
	gauges := make([]gauge, 0, len(r.gauges))
	for name, fn := range r.gauges {
		gauges = append(gauges, gauge{name, fn})
	}
	type fgauge struct {
		name string
		fn   func() float64
	}
	fgauges := make([]fgauge, 0, len(r.fgauges))
	for name, fn := range r.fgauges {
		fgauges = append(fgauges, fgauge{name, fn})
	}
	r.mu.Unlock()
	for name, l := range lats {
		count, mean, max := l.Snapshot()
		lines = append(lines,
			fmt.Sprintf("%s_count %d", name, count),
			fmt.Sprintf("%s_mean_us %d", name, mean.Microseconds()),
			fmt.Sprintf("%s_p50_us %d", name, l.Quantile(0.50).Microseconds()),
			fmt.Sprintf("%s_p95_us %d", name, l.Quantile(0.95).Microseconds()),
			fmt.Sprintf("%s_p99_us %d", name, l.Quantile(0.99).Microseconds()),
			fmt.Sprintf("%s_max_us %d", name, max.Microseconds()),
		)
	}
	for _, g := range gauges {
		lines = append(lines, fmt.Sprintf("%s %d", g.name, g.fn()))
	}
	for _, g := range fgauges {
		lines = append(lines, fmt.Sprintf("%s %.3f", g.name, g.fn()))
	}
	sort.Strings(lines)
	for _, line := range lines {
		if _, err := fmt.Fprintln(w, line); err != nil {
			return err
		}
	}
	return nil
}

// promName sanitises a metric name for the Prometheus exposition
// format: any character outside [a-zA-Z0-9_:] becomes '_'. Registry
// names already conform; this keeps a stray name from corrupting a
// scrape.
func promName(name string) string {
	ok := true
	for i := 0; i < len(name); i++ {
		c := name[i]
		if !(c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '_' || c == ':') {
			ok = false
			break
		}
	}
	if ok {
		return name
	}
	b := []byte(name)
	for i, c := range b {
		if !(c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '_' || c == ':') {
			b[i] = '_'
		}
	}
	return string(b)
}

// WritePrometheus renders the registry in the Prometheus text
// exposition format (version 0.0.4), so real scrapers can ingest what
// the flat format already collects: counters and gauges as untyped
// samples, and every Latency as a cumulative histogram — one
// `_bucket{le="<seconds>"}` series per finite bucket bound plus the
// `le="+Inf"` total, `_sum` in seconds, and `_count`.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	samples := make([]string, 0, len(r.counters)+len(r.gauges)+len(r.fgauges))
	for name, c := range r.counters {
		samples = append(samples, fmt.Sprintf("%s %d", promName(name), c.Value()))
	}
	lats := make(map[string]*Latency, len(r.latencies))
	for name, l := range r.latencies {
		lats[name] = l
	}
	type g64 struct {
		name string
		fn   func() int64
	}
	gauges := make([]g64, 0, len(r.gauges))
	for name, fn := range r.gauges {
		gauges = append(gauges, g64{name, fn})
	}
	type gf struct {
		name string
		fn   func() float64
	}
	fgauges := make([]gf, 0, len(r.fgauges))
	for name, fn := range r.fgauges {
		fgauges = append(fgauges, gf{name, fn})
	}
	r.mu.Unlock()
	// Gauge callbacks run outside the lock, as in Write.
	for _, g := range gauges {
		samples = append(samples, fmt.Sprintf("%s %d", promName(g.name), g.fn()))
	}
	for _, g := range fgauges {
		samples = append(samples, fmt.Sprintf("%s %g", promName(g.name), g.fn()))
	}
	sort.Strings(samples)
	for _, s := range samples {
		if _, err := fmt.Fprintln(w, s); err != nil {
			return err
		}
	}
	names := make([]string, 0, len(lats))
	for name := range lats {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if err := writePromHistogram(w, promName(name), lats[name]); err != nil {
			return err
		}
	}
	return nil
}

// writePromHistogram renders one Latency as a cumulative Prometheus
// histogram. Buckets snapshot before count, so a concurrent Observe
// can at worst make count exceed the +Inf bucket — never undershoot
// it — keeping the series monotone for scrapers.
func writePromHistogram(w io.Writer, name string, l *Latency) error {
	buckets := l.Buckets()
	var cum int64
	if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", name); err != nil {
		return err
	}
	for i := 0; i < NumBuckets-1; i++ {
		cum += buckets[i]
		le := strconv.FormatFloat(bucketBounds[i].Seconds(), 'g', -1, 64)
		if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, le, cum); err != nil {
			return err
		}
	}
	cum += buckets[NumBuckets-1]
	if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, cum); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum %g\n", name, time.Duration(l.sum.Load()).Seconds()); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count %d\n", name, cum)
	return err
}
