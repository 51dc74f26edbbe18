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
	"bufio"
	"cmp"
	"fmt"
	"io"
	"slices"
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

// PlusZeros returns a copy of l with n more zero-duration samples: how an
// owner that counts its zero samples instead of observing them exposes
// the histogram. Like every read of a live histogram, the copy is not
// atomic with respect to a concurrent Observe.
func (l *Latency) PlusZeros(n int64) *Latency {
	c := &Latency{}
	for i := range c.buckets {
		c.buckets[i].Store(l.buckets[i].Load())
	}
	c.count.Store(l.count.Load() + n)
	c.sum.Store(l.sum.Load())
	c.max.Store(l.max.Load())
	c.min.Store(l.min.Load())
	if n > 0 {
		c.buckets[bucketOf(0)].Add(n)
		c.min.Store(-1) // min 0, in the -(min+1) encoding
	}
	return c
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
	mu         sync.Mutex
	counters   map[string]*Counter
	latencies  map[string]*Latency
	collectors []func(*Emitter)
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:  make(map[string]*Counter),
		latencies: make(map[string]*Latency),
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

// Collect registers fn to run at every exposition: a component's gauges.
// It is how state only known at scrape time is exported — a family whose
// members come and go (one series per fabric edge, node, shard or hot
// key), or several series that must come from one snapshot so that a
// ratio agrees with the counts printed beside it. fn runs outside the
// registry lock, so it may read other metrics or another registry.
func (r *Registry) Collect(fn func(*Emitter)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.collectors = append(r.collectors, fn)
}

// series names one exposed time series: a static metric name and at most
// one label, already rendered as key="value" ("" for none).
type series struct{ name, label string }

// render is the series' exposition identifier with suffix appended to the
// name and extra (a second rendered label, or "") joined to its own.
func (s series) render(suffix, extra string) string {
	switch {
	case s.label == "" && extra == "":
		return s.name + suffix
	case s.label != "" && extra != "":
		extra = "," + extra
	}
	return s.name + suffix + "{" + s.label + extra + "}"
}

type histogram struct {
	series
	l *Latency
}

// snapshot is one collection pass over a registry: every scalar sample as
// a rendered "series value" line, and every histogram, both sorted.
type snapshot struct {
	scalars []string
	hists   []histogram
}

// Emitter receives the samples of one collection pass.
type Emitter struct {
	label    string
	out      *snapshot
	included bool
}

// Label returns an emitter whose samples carry key="value".
func (e *Emitter) Label(key, value string) *Emitter {
	return &Emitter{label: key + "=" + strconv.Quote(value), out: e.out, included: e.included}
}

// Included reports whether the pass renders its registry through another
// one's Include: a collector there is seen as the standby the including
// collector decided it is, and need not decide again.
func (e *Emitter) Included() bool { return e.included }

func (e *Emitter) scalar(name, value string) {
	e.out.scalars = append(e.out.scalars, series{name, e.label}.render("", "")+" "+value)
}

// Int emits an integer sample.
func (e *Emitter) Int(name string, v int64) { e.scalar(name, strconv.FormatInt(v, 10)) }

// Float emits a float sample at full precision.
func (e *Emitter) Float(name string, v float64) {
	e.scalar(name, strconv.FormatFloat(v, 'g', -1, 64))
}

// Ratio emits num/den as a float sample, 0 while den is 0.
func (e *Emitter) Ratio(name string, num, den int64) {
	if den == 0 {
		num, den = 0, 1
	}
	e.Float(name, float64(num)/float64(den))
}

// Latency emits a histogram.
func (e *Emitter) Latency(name string, l *Latency) {
	e.out.hists = append(e.out.hists, histogram{series{name, e.label}, l})
}

// Include emits everything r exposes with prefix prepended to each metric
// name: a second registry (a standby site's) seen through this one.
func (e *Emitter) Include(prefix string, r *Registry) {
	s := r.snapshot(true)
	for _, line := range s.scalars {
		e.out.scalars = append(e.out.scalars, prefix+line)
	}
	for _, h := range s.hists {
		h.name = prefix + h.name
		e.out.hists = append(e.out.hists, h)
	}
}

// snapshot is the one collection pass behind both renderers. Collectors
// are copied under the registry lock but invoked outside it, so one may
// safely read other metrics (or another registry) without deadlocking.
func (r *Registry) snapshot(included bool) snapshot {
	var s snapshot
	e := &Emitter{out: &s, included: included}
	r.mu.Lock()
	for name, c := range r.counters {
		e.Int(name, c.Value())
	}
	for name, l := range r.latencies {
		e.Latency(name, l)
	}
	collectors := slices.Clone(r.collectors)
	r.mu.Unlock()
	for _, fn := range collectors {
		fn(e)
	}
	slices.Sort(s.scalars)
	slices.SortFunc(s.hists, func(a, b histogram) int {
		return cmp.Or(cmp.Compare(a.name, b.name), cmp.Compare(a.label, b.label))
	})
	return s
}

// Write renders the registry in a flat "name value" text format: scalar
// samples sorted by name, then each Latency as _count/_mean_us/_p50_us/
// _p95_us/_p99_us/_max_us lines.
func (r *Registry) Write(w io.Writer) error {
	return r.write(w, func(b *bufio.Writer, h histogram) {
		line := func(suffix string, v int64) { fmt.Fprintf(b, "%s %d\n", h.render(suffix, ""), v) }
		line("_count", h.l.Count())
		line("_mean_us", h.l.Mean().Microseconds())
		line("_p50_us", h.l.Quantile(0.50).Microseconds())
		line("_p95_us", h.l.Quantile(0.95).Microseconds())
		line("_p99_us", h.l.Quantile(0.99).Microseconds())
		line("_max_us", h.l.Max().Microseconds())
	})
}

// WritePrometheus renders the registry in the Prometheus text exposition
// format (version 0.0.4): the same scalar lines as Write (untyped
// samples), and every Latency as a cumulative histogram — one
// `_bucket{le="<seconds>"}` series per finite bucket bound plus the
// `le="+Inf"` total, `_sum` in seconds, and `_count`. Buckets snapshot
// before count, so a concurrent Observe can at worst make count exceed
// the +Inf bucket — never undershoot it — keeping the series monotone.
func (r *Registry) WritePrometheus(w io.Writer) error {
	typed := ""
	return r.write(w, func(b *bufio.Writer, h histogram) {
		if h.name != typed {
			typed = h.name
			fmt.Fprintf(b, "# TYPE %s histogram\n", h.name)
		}
		buckets := h.l.Buckets()
		var cum int64
		for i, n := range buckets[:NumBuckets-1] {
			cum += n
			le := strconv.FormatFloat(bucketBounds[i].Seconds(), 'g', -1, 64)
			fmt.Fprintf(b, "%s %d\n", h.render("_bucket", `le="`+le+`"`), cum)
		}
		cum += buckets[NumBuckets-1]
		fmt.Fprintf(b, "%s %d\n", h.render("_bucket", `le="+Inf"`), cum)
		fmt.Fprintf(b, "%s %g\n", h.render("_sum", ""), time.Duration(h.l.sum.Load()).Seconds())
		fmt.Fprintf(b, "%s %d\n", h.render("_count", ""), cum)
	})
}

// write is the shared frame of the two renderers, which differ only in
// how a histogram is printed.
func (r *Registry) write(w io.Writer, hist func(*bufio.Writer, histogram)) error {
	s := r.snapshot(false)
	b := bufio.NewWriter(w)
	for _, line := range s.scalars {
		b.WriteString(line)
		b.WriteByte('\n')
	}
	for _, h := range s.hists {
		hist(b, h)
	}
	return b.Flush()
}
