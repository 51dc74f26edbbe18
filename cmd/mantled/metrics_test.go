package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"

	"mantle"
)

// TestAdminRoutes walks every admin route on the shipped mux: the wrong
// method is 405, the DR-only routes are 400 without -dr, and an integer
// parameter that is not an integer is 400 rather than read as the default.
func TestAdminRoutes(t *testing.T) {
	ts := newTestServer(t)
	do(t, "POST", ts.URL+"/ns/a?op=mkdir", "")
	for _, row := range []struct {
		method, url string
		status      int
	}{
		{"GET", "/admin/migrate/plan?max=2", 200},
		{"POST", "/admin/migrate/plan", 405},
		{"GET", "/admin/migrate/plan?max=many", 400},
		{"GET", "/admin/migrate?path=/a&shard=1", 405},
		{"POST", "/admin/migrate?path=/a&shard=one", 400},
		{"POST", "/admin/migrate?shard=1", 400},
		{"POST", "/admin/migrate?path=/missing&shard=1", 404},
		{"POST", "/admin/migrate?path=/a&shard=1", 200},
		{"GET", "/admin/scrub", 405},
		{"POST", "/admin/scrub?rounds=two", 400},
		{"POST", "/admin/scrub?rounds=1", 200},
		{"GET", "/admin/rebuild-index", 405},
		{"POST", "/admin/rebuild-index", 200},
		{"GET", "/admin/oplog/gc", 405},
		{"POST", "/admin/oplog/gc", 400},
		{"GET", "/admin/failover", 405},
		{"POST", "/admin/failover", 400},
	} {
		if resp, _ := do(t, row.method, ts.URL+row.url, ""); resp.StatusCode != row.status {
			t.Errorf("%s %s = %d, want %d", row.method, row.url, resp.StatusCode, row.status)
		}
	}
}

// sampleRE is the one line grammar of both /metrics formats:
// name{label="value",...}? value.
var sampleRE = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(?:\{(\w+="(?:[^"\\]|\\.)*"(?:,\w+="(?:[^"\\]|\\.)*")*)\})? \S+$`)

// sample is one sample line's series: metric name and rendered labels.
type sample struct{ name, labels string }

func (s sample) String() string { return s.name + "{" + s.labels + "}" }

// exposition is one parsed /metrics body.
type exposition struct {
	series []sample        // every sample line, in order
	hists  map[string]bool // names announced by a "# TYPE … histogram" line
	bad    []string        // lines that are neither a comment nor a sample
}

func scrape(t *testing.T, ts *httptest.Server, query string) exposition {
	t.Helper()
	e := exposition{hists: map[string]bool{}}
	for _, line := range strings.Split(strings.TrimSpace(get(t, ts.URL+"/metrics"+query)), "\n") {
		if name, ok := strings.CutPrefix(line, "# TYPE "); ok {
			e.hists[strings.TrimSuffix(name, " histogram")] = true
		} else if m := sampleRE.FindStringSubmatch(line); m != nil {
			e.series = append(e.series, sample{m[1], m[2]})
		} else {
			e.bad = append(e.bad, line)
		}
	}
	return e
}

// base maps a sample onto the series it was expanded from: a histogram's
// per-format lines (flat quantiles, Prometheus buckets) onto the
// histogram, anything else onto itself.
func base(s sample, hists map[string]bool) string {
	for _, suffix := range []string{"_count", "_mean_us", "_p50_us", "_p95_us", "_p99_us", "_max_us", "_bucket", "_sum"} {
		if h, ok := strings.CutSuffix(s.name, suffix); ok && hists[h] {
			s.name = h
			if i := strings.LastIndex(s.labels, `le="`); i >= 0 {
				s.labels = strings.TrimSuffix(s.labels[:i], ",")
			}
			break
		}
	}
	return s.String()
}

// drive runs a few ops of each kind through the gateway and waits for the
// replication link to drain, so that no series appears between two scrapes.
func drive(t *testing.T, ts *httptest.Server, dr *mantle.DR) {
	t.Helper()
	for i := 0; i < 4; i++ {
		do(t, "POST", fmt.Sprintf("%s/ns/m%d?op=mkdir", ts.URL, i), "")
		do(t, "PUT", fmt.Sprintf("%s/ns/m%d/o", ts.URL, i), "x")
		do(t, "GET", fmt.Sprintf("%s/ns/m%d/o", ts.URL, i), "")
	}
	waitDrained(t, dr)
}

// waitDrained waits until the replication link has shipped its backlog.
func waitDrained(t *testing.T, dr *mantle.DR) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if st := dr.LinkStats(); st.Shipped > 0 && st.LagEntries == 0 {
			return
		}
	}
	t.Fatal("replication link did not drain")
}

// TestMetricsFormatsAgree: the flat and the Prometheus rendering expose the
// same series — every layer's, not the core registry's alone.
func TestMetricsFormatsAgree(t *testing.T) {
	ts, dr := newDRGateway(t)
	drive(t, ts, dr)
	flat, prom := scrape(t, ts, ""), scrape(t, ts, "?format=prometheus")
	sets := map[string][]string{}
	for format, e := range map[string]exposition{"flat": flat, "prometheus": prom} {
		for _, s := range e.series {
			sets[format] = append(sets[format], base(s, prom.hists))
		}
		slices.Sort(sets[format])
		sets[format] = slices.Compact(sets[format])
		for _, prefix := range []string{"ops_", "heat_", "edge_", "node_", "repl_", "standby_"} {
			if !slices.ContainsFunc(sets[format], func(s string) bool { return strings.HasPrefix(s, prefix) }) {
				t.Errorf("%s output has no %s* series", format, prefix)
			}
		}
	}
	for _, s := range sets["flat"] {
		if _, ok := slices.BinarySearch(sets["prometheus"], s); !ok {
			t.Errorf("only in the flat output: %s", s)
		}
	}
	for _, s := range sets["prometheus"] {
		if _, ok := slices.BinarySearch(sets["flat"], s); !ok {
			t.Errorf("only in the Prometheus output: %s", s)
		}
	}
}

// TestMetricsNoDuplicateSeries: a series appears once per exposition, with a
// standby attached and after that standby has been promoted.
func TestMetricsNoDuplicateSeries(t *testing.T) {
	ts, dr := newDRGateway(t)
	drive(t, ts, dr)
	check := func(when string) {
		for _, query := range []string{"", "?format=prometheus"} {
			seen := map[sample]bool{}
			for _, s := range scrape(t, ts, query).series {
				if seen[s] {
					t.Errorf("%s, /metrics%s: %s appears twice", when, query, s)
				}
				seen[s] = true
			}
			if !seen[sample{name: "ops_mkdir"}] {
				t.Errorf("%s, /metrics%s: no ops_mkdir", when, query)
			}
		}
	}
	check("before failover")
	if resp, _ := do(t, "POST", ts.URL+"/admin/failover", ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("failover: %d", resp.StatusCode)
	}
	check("after failover")
}

// TestMetricsLinesParse: every line of either format is a comment or
// name{label="value"}? value — an edge's "src->dst" and a hot directory's
// path are label values, not part of a metric name.
func TestMetricsLinesParse(t *testing.T) {
	ts, dr := newDRGateway(t)
	drive(t, ts, dr)
	for _, query := range []string{"", "?format=prometheus"} {
		e := scrape(t, ts, query)
		for _, line := range e.bad {
			t.Errorf("/metrics%s: malformed line %q", query, line)
		}
		for _, want := range []sample{{"edge_trips", `edge="proxy->indexnode-0"`}, {"heat_proxy_dir", `path="/m0"`}, {"standby_node_ops", `node="tafdb-0"`}} {
			if !slices.Contains(e.series, want) {
				t.Errorf("/metrics%s: no %s", query, want)
			}
		}
	}
}
