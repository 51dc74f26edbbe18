package metrics

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterAndGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("ops")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d", c.Value())
	}
	// Same name returns the same counter.
	if r.Counter("ops") != c {
		t.Fatal("counter identity lost")
	}
	r.Collect(func(e *Emitter) { e.Int("live", 42) })
	var buf bytes.Buffer
	if err := r.Write(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"ops 5", "live 42"} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestLatency(t *testing.T) {
	r := NewRegistry()
	l := r.Latency("lookup")
	l.Observe(10 * time.Millisecond)
	l.Observe(30 * time.Millisecond)
	count, mean, max := l.Count(), l.Mean(), l.Max()
	if count != 2 || mean != 20*time.Millisecond || max != 30*time.Millisecond {
		t.Fatalf("snapshot = %d %v %v", count, mean, max)
	}
	var buf bytes.Buffer
	_ = r.Write(&buf)
	for _, want := range []string{"lookup_count 2", "lookup_mean_us 20000", "lookup_max_us 30000"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("missing %q in %s", want, buf.String())
		}
	}
}

func TestConcurrentObservations(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.Counter("c").Inc()
				r.Latency("l").Observe(time.Duration(i) * time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if r.Counter("c").Value() != 8000 {
		t.Fatalf("counter = %d", r.Counter("c").Value())
	}
	count, max := r.Latency("l").Count(), r.Latency("l").Max()
	if count != 8000 || max != 999*time.Microsecond {
		t.Fatalf("latency = %d %v", count, max)
	}
}

func TestWriteSortedAndStable(t *testing.T) {
	r := NewRegistry()
	r.Counter("b").Inc()
	r.Counter("a").Inc()
	var buf bytes.Buffer
	_ = r.Write(&buf)
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 || lines[0] != "a 1" || lines[1] != "b 1" {
		t.Fatalf("lines = %v", lines)
	}
}

func TestBucketBoundaries(t *testing.T) {
	// Bounds are geometric: ratio 2^(1/4), anchored at 1µs, with every
	// 4th bucket landing on an exact power-of-two microsecond count.
	if got := BucketBound(0); got != time.Microsecond {
		t.Fatalf("bound(0) = %v, want 1µs", got)
	}
	for i := 0; i+4 < NumBuckets-1; i += 4 {
		want := time.Microsecond << uint(i/4+1)
		got := BucketBound(i + 4)
		if diff := got - want; diff < -time.Duration(i) || diff > time.Duration(i) {
			t.Fatalf("bound(%d) = %v, want %v (±%dns drift)", i+4, got, want, i)
		}
	}
	// Samples land in the right bucket: at a bound → that bucket; just
	// above → the next one.
	var l Latency
	l.Observe(BucketBound(8))
	l.Observe(BucketBound(8) + 1)
	l.Observe(0) // underflow bucket
	b := l.Buckets()
	if b[8] != 1 || b[9] != 1 || b[0] != 1 {
		t.Fatalf("buckets 0/8/9 = %d/%d/%d, want 1/1/1", b[0], b[8], b[9])
	}
	// Overflow: beyond the last finite bound lands in the final bucket.
	var o Latency
	o.Observe(BucketBound(NumBuckets-2) + time.Hour)
	if o.Buckets()[NumBuckets-1] != 1 {
		t.Fatal("overflow sample not in final bucket")
	}
}

func TestQuantileErrorBounds(t *testing.T) {
	// A geometric histogram with ratio r estimates any quantile within
	// a factor of r of the true sample. r = 2^(1/4) ≈ 1.19, so demand
	// ≤ 19% relative error (plus clamping makes p0/p100 exact).
	var l Latency
	samples := make([]time.Duration, 0, 10000)
	for i := 1; i <= 10000; i++ {
		d := time.Duration(i) * 37 * time.Microsecond // 37µs .. 370ms
		samples = append(samples, d)
		l.Observe(d)
	}
	for _, q := range []float64{0, 0.25, 0.50, 0.90, 0.95, 0.99, 0.999, 1} {
		idx := int(q * float64(len(samples)))
		if idx >= len(samples) {
			idx = len(samples) - 1
		}
		truth := samples[idx]
		got := l.Quantile(q)
		relErr := float64(got-truth) / float64(truth)
		if relErr < 0 {
			relErr = -relErr
		}
		if relErr > 0.19 {
			t.Fatalf("q=%v: got %v, truth %v, rel err %.3f > 0.19", q, got, truth, relErr)
		}
	}
	if l.Quantile(0) != samples[0] || l.Quantile(1) != samples[len(samples)-1] {
		t.Fatalf("extremes not exact: p0=%v p100=%v", l.Quantile(0), l.Quantile(1))
	}
}

func TestQuantileEmptyAndSingle(t *testing.T) {
	var l Latency
	if l.Quantile(0.5) != 0 {
		t.Fatal("empty histogram quantile != 0")
	}
	l.Observe(5 * time.Millisecond)
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := l.Quantile(q); got != 5*time.Millisecond {
			t.Fatalf("single-sample q=%v = %v", q, got)
		}
	}
}

func TestConcurrentObserveAndQuantile(t *testing.T) {
	// Observe and Quantile race freely (run under -race); totals must
	// still balance afterwards.
	var l Latency
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				l.Observe(time.Duration(g*2000+i) * time.Microsecond)
				if i%512 == 0 {
					_ = l.Quantile(0.99)
				}
			}
		}(g)
	}
	wg.Wait()
	if l.Count() != 16000 {
		t.Fatalf("count = %d", l.Count())
	}
	var sum int64
	for _, n := range l.Buckets() {
		sum += n
	}
	if sum != 16000 {
		t.Fatalf("bucket sum = %d", sum)
	}
	if l.Max() != 15999*time.Microsecond || l.Min() != 0 {
		t.Fatalf("min/max = %v/%v", l.Min(), l.Max())
	}
}

func TestWritePercentileLines(t *testing.T) {
	r := NewRegistry()
	l := r.Latency("resolve")
	for i := 1; i <= 100; i++ {
		l.Observe(time.Duration(i) * time.Millisecond)
	}
	var buf bytes.Buffer
	_ = r.Write(&buf)
	out := buf.String()
	for _, want := range []string{"resolve_p50_us ", "resolve_p95_us ", "resolve_p99_us ", "resolve_max_us 100000"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

func TestAttachLatency(t *testing.T) {
	r := NewRegistry()
	ext := &Latency{}
	ext.Observe(2 * time.Millisecond)
	r.AttachLatency("txn_commit", ext)
	if r.Latency("txn_commit") != ext {
		t.Fatal("attached histogram identity lost")
	}
	var buf bytes.Buffer
	_ = r.Write(&buf)
	if !strings.Contains(buf.String(), "txn_commit_count 1") {
		t.Fatalf("attached histogram not exposed:\n%s", buf.String())
	}
}

func TestGaugeMayReadRegistryDuringWrite(t *testing.T) {
	// Regression: Write used to invoke gauge callbacks while holding the
	// registry mutex, deadlocking any gauge that reads another metric.
	r := NewRegistry()
	r.Counter("inner").Add(7)
	r.Collect(func(e *Emitter) { e.Int("derived", r.Counter("inner").Value()+1) })
	done := make(chan error, 1)
	go func() {
		var buf bytes.Buffer
		err := r.Write(&buf)
		if err == nil && !strings.Contains(buf.String(), "derived 8") {
			t.Errorf("derived gauge wrong:\n%s", buf.String())
		}
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Write deadlocked on gauge reading the registry")
	}
}
