package bench

import (
	"bytes"
	"errors"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"mantle/internal/types"
)

func TestHistogramQuantiles(t *testing.T) {
	h := &Histogram{}
	// 1..1000 µs uniformly.
	for i := 1; i <= 1000; i++ {
		h.Record(time.Duration(i) * time.Microsecond)
	}
	if h.Count() != 1000 {
		t.Fatalf("count = %d", h.Count())
	}
	p50 := h.Quantile(0.5)
	if p50 < 400*time.Microsecond || p50 > 620*time.Microsecond {
		t.Fatalf("p50 = %v", p50)
	}
	p99 := h.Quantile(0.99)
	if p99 < 900*time.Microsecond || p99 > 1100*time.Microsecond {
		t.Fatalf("p99 = %v", p99)
	}
	if h.Max() != time.Millisecond {
		t.Fatalf("max = %v", h.Max())
	}
	if h.Min() != time.Microsecond {
		t.Fatalf("min = %v", h.Min())
	}
	mean := h.Mean()
	if mean < 480*time.Microsecond || mean > 520*time.Microsecond {
		t.Fatalf("mean = %v", mean)
	}
}

func TestHistogramMerge(t *testing.T) {
	a, b := &Histogram{}, &Histogram{}
	for i := 0; i < 100; i++ {
		a.Record(10 * time.Microsecond)
		b.Record(time.Millisecond)
	}
	a.Merge(b)
	if a.Count() != 200 {
		t.Fatalf("count = %d", a.Count())
	}
	if a.Quantile(0.25) > 50*time.Microsecond {
		t.Fatalf("p25 = %v", a.Quantile(0.25))
	}
	if a.Quantile(0.75) < 500*time.Microsecond {
		t.Fatalf("p75 = %v", a.Quantile(0.75))
	}
}

func TestHistogramCDFMonotone(t *testing.T) {
	f := func(samplesUS []uint16) bool {
		h := &Histogram{}
		for _, s := range samplesUS {
			h.Record(time.Duration(s) * time.Microsecond)
		}
		cdf := h.CDF()
		if len(samplesUS) == 0 {
			return cdf == nil
		}
		last := 0.0
		for _, p := range cdf {
			if p.Fraction < last || p.Fraction > 1.0001 {
				return false
			}
			last = p.Fraction
		}
		return len(cdf) > 0 && cdf[len(cdf)-1].Fraction > 0.9999
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHistogramQuantileWithinResolution(t *testing.T) {
	// The log-bucket resolution guarantee: quantile error < ~8%.
	r := rand.New(rand.NewSource(5))
	h := &Histogram{}
	var samples []time.Duration
	for i := 0; i < 5000; i++ {
		d := time.Duration(r.Intn(100000)+1) * time.Microsecond
		samples = append(samples, d)
		h.Record(d)
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	for _, q := range []float64{0.1, 0.5, 0.9, 0.99} {
		exact := samples[int(q*float64(len(samples)))]
		got := h.Quantile(q)
		ratio := float64(got) / float64(exact)
		if ratio < 0.90 || ratio > 1.10 {
			t.Fatalf("q%.2f: got %v exact %v (ratio %.3f)", q, got, exact, ratio)
		}
	}
}

func TestRunN(t *testing.T) {
	res := RunN(4, 25, func(worker, seq int) (types.Result, error) {
		if worker == 0 && seq == 0 {
			return types.Result{}, errors.New("one failure")
		}
		var r types.Result
		r.Phases = r.Phases.Add(types.PhaseLookup, 100*time.Microsecond)
		r.Phases = r.Phases.Add(types.PhaseExecute, 50*time.Microsecond)
		r.RTTs = 2
		r.Retries = 1
		return r, nil
	})
	if res.Ops != 99 || res.Errors != 1 {
		t.Fatalf("ops=%d errors=%d", res.Ops, res.Errors)
	}
	if res.Retries != 99 || res.RTTs != 198 {
		t.Fatalf("retries=%d rtts=%d", res.Retries, res.RTTs)
	}
	if res.MeanRTTs() != 2 {
		t.Fatalf("mean RTTs = %f", res.MeanRTTs())
	}
	if res.PerPhase[types.PhaseLookup].Count() != 99 {
		t.Fatalf("phase samples = %d", res.PerPhase[types.PhaseLookup].Count())
	}
	if res.Throughput <= 0 {
		t.Fatal("no throughput")
	}
}

func TestTableRendering(t *testing.T) {
	var buf bytes.Buffer
	Table(&buf, "demo", []string{"sys", "thpt"}, [][]string{
		{"mantle", "58.8 Kop/s"},
		{"tectonic", "2.8 Kop/s"},
	})
	out := buf.String()
	for _, want := range []string{"demo", "sys", "mantle", "58.8 Kop/s", "tectonic"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table output missing %q:\n%s", want, out)
		}
	}
}

func TestKops(t *testing.T) {
	cases := []struct {
		in   float64
		want string
	}{
		{500, "500 op/s"},
		{58800, "58.8 Kop/s"},
		{1890000, "1.89 Mop/s"},
	}
	for _, c := range cases {
		if got := Kops(c.in); got != c.want {
			t.Errorf("Kops(%f) = %q, want %q", c.in, got, c.want)
		}
	}
}
