package metrics

import (
	"bufio"
	"bytes"
	"strconv"
	"strings"
	"testing"
	"time"
)

// The overflow-bucket regression: a tail sample past the last finite
// bound (~3min) must report the exact observed max for any quantile
// landing in the overflow bucket, not an interpolation against the
// sentinel bound.
func TestQuantileOverflowClampsToMax(t *testing.T) {
	var l Latency
	for i := 0; i < 99; i++ {
		l.Observe(time.Millisecond)
	}
	l.Observe(10 * time.Minute) // far past bucketBounds[NumBuckets-2] ≈ 190s
	if got := l.Quantile(0.99); got != 10*time.Minute {
		t.Fatalf("p99 with one overflow sample = %v, want exactly 10m (the observed max)", got)
	}
	if got := l.Quantile(0.5); got > 2*time.Millisecond {
		t.Fatalf("p50 = %v, overflow sample leaked into the body", got)
	}

	// All samples in the overflow bucket: every quantile is the max.
	var lo Latency
	for i := 0; i < 100; i++ {
		lo.Observe(4 * time.Minute)
	}
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := lo.Quantile(q); got != 4*time.Minute {
			t.Fatalf("all-overflow Quantile(%v) = %v, want 4m", q, got)
		}
	}
}

func TestWritePrometheusSamples(t *testing.T) {
	r := NewRegistry()
	r.Counter("ops_total").Add(42)
	r.Collect(func(e *Emitter) {
		e.Int("rows", 7)
		e.Float("occupancy", 0.5)
	})
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"ops_total 42\n", "rows 7\n", "occupancy 0.5\n"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q:\n%s", want, out)
		}
	}
}

func TestWritePrometheusHistogram(t *testing.T) {
	r := NewRegistry()
	l := r.Latency("latency_op")
	l.Observe(500 * time.Nanosecond) // bucket 0
	l.Observe(3 * time.Microsecond)
	l.Observe(2 * time.Millisecond)
	l.Observe(10 * time.Minute) // overflow bucket

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "# TYPE latency_op histogram\n") {
		t.Fatalf("missing TYPE line:\n%s", out)
	}
	if !strings.Contains(out, "latency_op_count 4\n") {
		t.Fatalf("missing count:\n%s", out)
	}
	wantSum := (500*time.Nanosecond + 3*time.Microsecond + 2*time.Millisecond + 10*time.Minute).Seconds()
	if !strings.Contains(out, "latency_op_sum "+strconv.FormatFloat(wantSum, 'g', -1, 64)+"\n") {
		t.Fatalf("missing sum %g:\n%s", wantSum, out)
	}

	// The bucket series must be cumulative and monotone, end at
	// le="+Inf" with the total count, and carry seconds-unit bounds.
	var prev int64 = -1
	var bucketLines, infCount int64
	sc := bufio.NewScanner(strings.NewReader(out))
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "latency_op_bucket{le=") {
			continue
		}
		bucketLines++
		val, err := strconv.ParseInt(line[strings.LastIndexByte(line, ' ')+1:], 10, 64)
		if err != nil {
			t.Fatalf("bad bucket line %q: %v", line, err)
		}
		if val < prev {
			t.Fatalf("non-monotone bucket series at %q (prev %d)", line, prev)
		}
		prev = val
		le := line[len(`latency_op_bucket{le="`):strings.LastIndexByte(line, '"')]
		if le == "+Inf" {
			infCount = val
			continue
		}
		bound, err := strconv.ParseFloat(le, 64)
		if err != nil {
			t.Fatalf("non-numeric le %q: %v", le, err)
		}
		if bound <= 0 || bound > 200 { // finite bounds run 1µs .. ~190s
			t.Fatalf("le %q out of the seconds-unit range", le)
		}
	}
	if bucketLines != NumBuckets {
		t.Fatalf("bucket lines = %d, want %d (finite bounds + +Inf)", bucketLines, NumBuckets)
	}
	if infCount != 4 {
		t.Fatalf("+Inf bucket = %d, want 4", infCount)
	}
}
