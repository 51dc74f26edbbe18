package bench

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"time"

	"mantle/internal/types"
)

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
	if res.Latency.Count() != 99 {
		t.Fatalf("latency samples = %d", res.Latency.Count())
	}
	if got := res.MeanPhase(types.PhaseLookup); got != 100*time.Microsecond {
		t.Fatalf("mean lookup phase = %v, want 100µs", got)
	}
	if got := res.MeanPhase(types.PhaseLoopDetect); got != 0 {
		t.Fatalf("mean loop-detect phase = %v, want 0", got)
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
