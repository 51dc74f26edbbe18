package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"mantle"
	"mantle/internal/types"
)

// newGateway serves the shipped mux — routes(), what main() listens on —
// over a fresh cluster.
func newGateway(t *testing.T, shards int) (*httptest.Server, *mantle.Cluster) {
	t.Helper()
	cl, err := mantle.New(mantle.Config{Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Stop)
	ts := httptest.NewServer((&server{cl: cl}).routes())
	t.Cleanup(ts.Close)
	return ts, cl
}

// newDRGateway is newGateway over a -dr pair.
func newDRGateway(t *testing.T) (*httptest.Server, *mantle.DR) {
	t.Helper()
	dr, err := mantle.NewDR(mantle.Config{Shards: 4, WALSyncCost: 2 * time.Microsecond}, mantle.DRConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(dr.Stop)
	ts := httptest.NewServer((&server{cl: dr.Primary(), dr: dr}).routes())
	t.Cleanup(ts.Close)
	return ts, dr
}

func newTestServer(t *testing.T) *httptest.Server {
	ts, _ := newGateway(t, 4)
	return ts
}

// get returns the body of a GET.
func get(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

func do(t *testing.T, method, url, body string) (*http.Response, map[string]any) {
	t.Helper()
	var rdr *strings.Reader
	if body != "" {
		rdr = strings.NewReader(body)
	} else {
		rdr = strings.NewReader("")
	}
	req, err := http.NewRequest(method, url, rdr)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	var payload map[string]any
	if resp.Header.Get("Content-Type") == "application/json" {
		_ = json.NewDecoder(resp.Body).Decode(&payload)
	}
	return resp, payload
}

func TestGatewayLifecycle(t *testing.T) {
	ts := newTestServer(t)
	base := ts.URL + "/ns"

	resp, _ := do(t, http.MethodPost, base+"/data/train?op=mkdir", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("mkdir status = %d", resp.StatusCode)
	}
	resp, payload := do(t, http.MethodPut, base+"/data/train/s0", "hello world")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("put status = %d", resp.StatusCode)
	}
	if payload["Size"].(float64) != 11 {
		t.Fatalf("put size = %v", payload["Size"])
	}
	resp, payload = do(t, http.MethodGet, base+"/data/train/s0", "")
	if resp.StatusCode != http.StatusOK || payload["Size"].(float64) != 11 {
		t.Fatalf("get = %d %v", resp.StatusCode, payload)
	}
	resp, _ = do(t, http.MethodGet, base+"/data/train?list=1", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("list status = %d", resp.StatusCode)
	}
	resp, _ = do(t, http.MethodPost, base+"/data/train?op=rename&dst=/data/done", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("rename status = %d", resp.StatusCode)
	}
	resp, _ = do(t, http.MethodGet, base+"/data/done/s0", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("get after rename = %d", resp.StatusCode)
	}
	resp, _ = do(t, http.MethodDelete, base+"/data/done/s0", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete status = %d", resp.StatusCode)
	}
	resp, _ = do(t, http.MethodDelete, base+"/data/done?dir=1", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("rmdir status = %d", resp.StatusCode)
	}
}

func TestGatewayErrors(t *testing.T) {
	ts := newTestServer(t)
	base := ts.URL + "/ns"

	resp, _ := do(t, http.MethodGet, base+"/missing", "")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("missing stat = %d", resp.StatusCode)
	}
	// Duplicate object.
	do(t, http.MethodPost, base+"/d?op=mkdir", "")
	do(t, http.MethodPut, base+"/d/o", "x")
	resp, _ = do(t, http.MethodPut, base+"/d/o", "x")
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("dup put = %d", resp.StatusCode)
	}
	// rmdir of non-empty.
	resp, _ = do(t, http.MethodDelete, base+"/d?dir=1", "")
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("rmdir non-empty = %d", resp.StatusCode)
	}
	// rename without dst.
	resp, _ = do(t, http.MethodPost, base+"/d?op=rename", "")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("rename no dst = %d", resp.StatusCode)
	}
	// Unknown op.
	resp, _ = do(t, http.MethodPost, base+"/d?op=zap", "")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown op = %d", resp.StatusCode)
	}
	// Loop rename.
	do(t, http.MethodPost, base+"/d/sub?op=mkdir", "")
	resp, _ = do(t, http.MethodPost, base+"/d?op=rename&dst=/d/sub/x", "")
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("loop rename = %d", resp.StatusCode)
	}
	// Malformed integer parameters are rejected, not read as the default.
	resp, _ = do(t, http.MethodGet, base+"/d?list=1&limit=abc", "")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("list limit=abc = %d", resp.StatusCode)
	}
	resp, _ = do(t, http.MethodPost, ts.URL+"/admin/scrub?rounds=two", "")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("scrub rounds=two = %d", resp.StatusCode)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	ts, _ := newGateway(t, 2)
	do(t, http.MethodPost, ts.URL+"/ns/m?op=mkdir", "")
	do(t, http.MethodPut, ts.URL+"/ns/m/o", "data")
	body := get(t, ts.URL+"/metrics")
	for _, want := range []string{"ops_create 1", "ops_mkdir 1", "latency_create_count 1", "tafdb_rows"} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics missing %q:\n%s", want, body)
		}
	}
}

func TestStatusAndPrometheusEndpoints(t *testing.T) {
	ts, _ := newGateway(t, 2)
	do(t, http.MethodPost, ts.URL+"/ns/hot?op=mkdir", "")
	for i := 0; i < 20; i++ {
		do(t, http.MethodGet, ts.URL+"/ns/hot?dir=1", "")
	}

	resp, err := http.Get(ts.URL + "/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st struct {
		Proxy struct {
			HotDirs []struct {
				Key   string `json:"key"`
				Count int64  `json:"count"`
			} `json:"hot_dirs"`
		} `json:"proxy"`
		Shards []struct {
			Reads int64 `json:"reads"`
		} `json:"shards"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if len(st.Proxy.HotDirs) == 0 || st.Proxy.HotDirs[0].Key != "/hot" {
		t.Fatalf("status hot dirs = %+v, want /hot first", st.Proxy.HotDirs)
	}
	var reads int64
	for _, sh := range st.Shards {
		reads += sh.Reads
	}
	if len(st.Shards) != 2 || reads == 0 {
		t.Fatalf("status shards = %+v", st.Shards)
	}

	text := get(t, ts.URL+"/status?format=text")
	for _, want := range []string{"== proxy ==", "/hot", "== tafdb =="} {
		if !strings.Contains(text, want) {
			t.Fatalf("text status missing %q:\n%s", want, text)
		}
	}

	prom := get(t, ts.URL+"/metrics?format=prometheus")
	for _, want := range []string{"# TYPE latency_dirstat histogram", "latency_dirstat_bucket{le=\"+Inf\"}", "ops_mkdir 1"} {
		if !strings.Contains(prom, want) {
			t.Fatalf("prometheus exposition missing %q:\n%s", want, prom)
		}
	}

	plain := get(t, ts.URL+"/metrics")
	for _, want := range []string{`heat_proxy_dir{path="/hot"}`, "heat_slowop_sampled"} {
		if !strings.Contains(plain, want) {
			t.Fatalf("text metrics missing heat section %q:\n%s", want, plain)
		}
	}
}

func TestGatewayPagination(t *testing.T) {
	ts := newTestServer(t)
	base := ts.URL + "/ns"
	do(t, http.MethodPost, base+"/p?op=mkdir", "")
	for i := 0; i < 7; i++ {
		do(t, http.MethodPut, base+fmt.Sprintf("/p/o%d", i), "x")
	}
	resp, _ := do(t, http.MethodGet, base+"/p?list=1&limit=5", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("page status = %d", resp.StatusCode)
	}
	next := resp.Header.Get("X-Mantle-Next")
	if next == "" {
		t.Fatal("no continuation token")
	}
	resp, _ = do(t, http.MethodGet, base+"/p?list=1&limit=5&after="+next, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("second page status = %d", resp.StatusCode)
	}
	if resp.Header.Get("X-Mantle-Next") != "" {
		t.Fatal("unexpected continuation on final page")
	}
}

// TestGatewayDR drives the disaster-recovery surface end to end: writes
// land on the primary, replication lag and conflict counters show on
// /metrics, /admin/scrub comes back clean, and /admin/failover promotes
// the secondary — after which the same /ns/ gateway serves reads of the
// replicated namespace and accepts new writes.
func TestGatewayDR(t *testing.T) {
	ts, dr := newDRGateway(t)
	for i := 0; i < 8; i++ {
		if resp, _ := do(t, "POST", fmt.Sprintf("%s/ns/dr%d?op=mkdir", ts.URL, i), ""); resp.StatusCode != 200 {
			t.Fatalf("mkdir: %d", resp.StatusCode)
		}
		if resp, _ := do(t, "PUT", fmt.Sprintf("%s/ns/dr%d/obj", ts.URL, i), "data"); resp.StatusCode != 200 {
			t.Fatalf("put: %d", resp.StatusCode)
		}
	}

	if resp, _ := do(t, "POST", ts.URL+"/admin/scrub?rounds=2", ""); resp.StatusCode != 200 {
		t.Fatalf("scrub: %d", resp.StatusCode)
	}
	if resp, _ := do(t, "GET", ts.URL+"/admin/failover", ""); resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET failover: %d", resp.StatusCode)
	}

	waitDrained(t, dr) // before promoting
	resp, payload := do(t, "POST", ts.URL+"/admin/failover", "")
	if resp.StatusCode != 200 {
		t.Fatalf("failover: %d %v", resp.StatusCode, payload)
	}
	if d, ok := payload["discarded"].(float64); !ok || d != 0 {
		t.Fatalf("drained failover discarded records: %v", payload)
	}

	// The gateway now serves the promoted secondary.
	if resp, _ := do(t, "GET", ts.URL+"/ns/dr3/obj", ""); resp.StatusCode != 200 {
		t.Fatalf("replicated object unreadable after failover: %d", resp.StatusCode)
	}
	if resp, _ := do(t, "POST", ts.URL+"/ns/post-failover?op=mkdir", ""); resp.StatusCode != 200 {
		t.Fatalf("promoted site rejects writes: %d", resp.StatusCode)
	}
	// The admin surface follows the failover too: a directory that exists
	// only on the promoted site can be planned for and migrated.
	if resp, _ := do(t, "GET", ts.URL+"/admin/migrate/plan?max=1", ""); resp.StatusCode != 200 {
		t.Fatalf("migrate plan after failover: %d", resp.StatusCode)
	}
	resp, payload = do(t, "POST", ts.URL+"/admin/migrate?path=/post-failover&shard=1", "")
	if resp.StatusCode != 200 {
		t.Fatalf("migrate of a post-failover directory: %d (the demoted primary has no such path)", resp.StatusCode)
	}
	if payload["path"] != "/post-failover" {
		t.Fatalf("migrate payload = %v", payload)
	}
}

// TestErrorKindEverywhere: one failure is one kind wherever it surfaces —
// the in-process Client's error, the RemoteClient's rebuilt error and the
// gateway's HTTP status all derive from mantle.ErrorKind.
func TestErrorKindEverywhere(t *testing.T) {
	ts, cl := newGateway(t, 4)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go func() { _ = mantle.Serve(l, cl) }()
	rc, err := mantle.Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rc.Close() })

	local := cl.Client()
	for _, dir := range []string{"/d/sub", "/ro"} {
		if err := local.MkdirAll(dir); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := local.Create("/d/o", 1); err != nil {
		t.Fatal(err)
	}
	core := cl.Core()
	if _, err := core.SetPerm(core.Caller().Begin(), "/ro", types.PermLookup|types.PermRead); err != nil {
		t.Fatal(err)
	}

	stat := func(p string) func(*mantle.Client) error {
		return func(c *mantle.Client) error { _, err := c.Stat(p); return err }
	}
	create := func(p string) func(*mantle.Client) error {
		return func(c *mantle.Client) error { _, err := c.Create(p, 1); return err }
	}
	for _, row := range []struct {
		name, kind  string
		status      int
		call        func(*mantle.Client) error
		method, url string
	}{
		{"not found", "notfound", 404, stat("/missing"), "GET", "/ns/missing"},
		{"stat of a directory (ErrIsDir)", "notfound", 404, stat("/d"), "GET", "/ns/d"},
		{"delete of a directory (ErrIsDir)", "notfound", 404,
			func(c *mantle.Client) error { return c.Delete("/d") }, "DELETE", "/ns/d"},
		{"lookup through an object", "notfound", 404, stat("/d/o/x"), "GET", "/ns/d/o/x"},
		{"exists", "exists", 409, create("/d/o"), "PUT", "/ns/d/o"},
		{"not empty", "notempty", 409,
			func(c *mantle.Client) error { return c.Rmdir("/d") }, "DELETE", "/ns/d?dir=1"},
		{"loop", "loop", 409,
			func(c *mantle.Client) error { return c.Rename("/d", "/d/sub/x") }, "POST", "/ns/d?op=rename&dst=/d/sub/x"},
		{"permission", "permission", 403, create("/ro/x"), "PUT", "/ns/ro/x"},
	} {
		if got := mantle.ErrorKind(row.call(local)); got != row.kind {
			t.Errorf("%s: in-process kind %q, want %q", row.name, got, row.kind)
		}
		if got := mantle.ErrorKind(row.call(&rc.Client)); got != row.kind {
			t.Errorf("%s: remote kind %q, want %q", row.name, got, row.kind)
		}
		if resp, _ := do(t, row.method, ts.URL+row.url, "x"); resp.StatusCode != row.status {
			t.Errorf("%s: HTTP %d, want %d", row.name, resp.StatusCode, row.status)
		}
	}
	// Shedding cannot be provoked through the public API; its kind and
	// status are checked on the error itself (the wire round trip is
	// TestRemoteOverloadedTravelsTheWire's).
	shed := types.Overloaded(time.Millisecond)
	if mantle.ErrorKind(shed) != "overloaded" || statusOf(shed) != http.StatusTooManyRequests {
		t.Errorf("overloaded: kind %q, HTTP %d", mantle.ErrorKind(shed), statusOf(shed))
	}
	if statusOf(fmt.Errorf("disk on fire")) != http.StatusInternalServerError {
		t.Error("an unclassified error is not a 500")
	}
}
