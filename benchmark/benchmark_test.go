package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// TestSpecMatchesBenchmarkJSON fails when the root BENCHMARK.json and
// the names, units, directions and bounds in spec.go drift apart.
// Regenerate the file with: go run . -spec > ../BENCHMARK.json
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	onDisk, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	fromCode, err := json.Marshal(benchmarkJSON())
	if err != nil {
		t.Fatal(err)
	}
	var want, got any
	if err := json.Unmarshal(fromCode, &want); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(onDisk, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json differs from spec.go:\n on disk: %s\n in code: %s", onDisk, fromCode)
	}
}

func smokeRun(t *testing.T, args ...string) *report {
	t.Helper()
	dir := t.TempDir()
	out := filepath.Join(dir, "run.json")
	args = append([]string{"-slice", "200ms", "-slices", "2", "-entries", "50000", "-probe-scale", "20",
		"-workdir", dir, "-out", out}, args...)
	if code := run(args); code != 0 {
		t.Fatalf("benchmark %v exited %d", args, code)
	}
	rep, err := readReport(out)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func checkStat(t *testing.T, where, name string, m map[string]stat) stat {
	t.Helper()
	st, ok := m[name]
	switch {
	case !ok:
		t.Errorf("%s: metric %s is missing", where, name)
	case st.Unit != specs[name].Unit:
		t.Errorf("%s: metric %s has unit %q, want %q", where, name, st.Unit, specs[name].Unit)
	case math.IsNaN(st.Value) || math.IsInf(st.Value, 0):
		t.Errorf("%s: metric %s = %v", where, name, st.Value)
	}
	return st
}

// TestSmoke runs all five workloads, the traced pass and the probes at a
// fraction of the canonical size and checks that every named metric is
// reported, nothing failed and fsck and the listing check are clean. No
// timing is asserted.
func TestSmoke(t *testing.T) {
	rep := smokeRun(t)
	if len(rep.Workloads) != len(workloads) {
		t.Fatalf("ran %d workloads, want %d", len(rep.Workloads), len(workloads))
	}
	for _, res := range rep.Workloads {
		if !res.Correct || res.Failed != 0 || len(res.Errors) != 0 {
			t.Errorf("%s: correct=%v failed=%d errors=%v", res.Name, res.Correct, res.Failed, res.Errors)
		}
		for _, m := range endToEnd {
			if st := checkStat(t, res.Name, m.Name, res.EndToEnd); st.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, must be positive", res.Name, m.Name, st.Value)
			}
		}
		layers := layerMetrics(res, rep.Probes)
		for _, m := range perLayer {
			st := checkStat(t, res.Name, m.Name, layers)
			if st.Skipped != "" && m.Name != "gateway.http_stat_us" {
				t.Errorf("probe %s skipped: %s", m.Name, st.Skipped)
			}
		}
		if v := res.PerLayer["failed_ratio"].Value; v != 0 {
			t.Errorf("%s: failed_ratio = %v", res.Name, v)
		}
		// The stage budget sums to the traced op time by construction.
		var sum float64
		for _, name := range spanMetric {
			sum += res.PerLayer[name].Value
		}
		if total := res.PerLayer["trace.op_mean_us"].Value; math.Abs(sum-total) > 1e-6*total {
			t.Errorf("%s: span self-times sum to %.6f us, traced op time is %.6f us", res.Name, sum, total)
		}
	}
}

// TestDeterminism: one client and the same seed issue the same requests,
// so the per-op counts of stat_hot repeat. RPCs include the raft
// heartbeats, which follow the clock and not the ops, hence the 0.01.
func TestDeterminism(t *testing.T) {
	var runs [2]map[string]stat
	for i := range runs {
		rep := smokeRun(t, "-workload", "stat_hot", "-trace", "0", "-clients", "1", "-seed", "7")
		runs[i] = rep.Workloads[0].EndToEnd
		for k, v := range rep.Workloads[0].PerLayer {
			runs[i][k] = v
		}
	}
	for name, tol := range map[string]float64{"rpcs_per_op": 0.01, "allocs_per_op": 0.1, "fsyncs_per_op": 0} {
		a, b := runs[0][name].Value, runs[1][name].Value
		if math.Abs(a-b) > tol {
			t.Errorf("%s: %v then %v with the same seed", name, a, b)
		}
	}
}

func TestVerdict(t *testing.T) {
	lower := metricSpec{Name: "op_p50_us", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	tight := stat{Value: 100, Min: 98, Max: 102}
	noisy := stat{Value: 100, Min: 90, Max: 125}
	for _, c := range []struct {
		m    metricSpec
		a, b stat
		want string
	}{
		{lower, tight, stat{Value: 109, Min: 107, Max: 111}, "ok"},
		{lower, tight, stat{Value: 80, Min: 79, Max: 81}, "ok"},
		{lower, tight, stat{Value: 120, Min: 118, Max: 122}, "worse"},
		{lower, noisy, stat{Value: 112, Min: 95, Max: 140}, "unresolved"},
		{higher, tight, stat{Value: 85, Min: 84, Max: 86}, "worse"},
		{higher, tight, stat{Value: 120, Min: 118, Max: 122}, "ok"},
	} {
		if got, _ := verdict(c.m, c.a, c.b); got != c.want {
			t.Errorf("%s %v vs %v: %s, want %s", c.m.Name, c.a.Value, c.b.Value, got, c.want)
		}
	}
	floor := metricSpec{Name: "setup_s", Better: "lower", Bound: 0.25, Floor: 0.25}
	if got, _ := verdict(floor, stat{Value: 0.004, Min: 0.003, Max: 0.005}, stat{Value: 0.009, Min: 0.008, Max: 0.010}); got != "ok" {
		t.Errorf("a 5 ms rise in set-up under the 0.25 s floor: %s, want ok", got)
	}
}
