package core

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"mantle/internal/rpc"
	"mantle/internal/trace"
	"mantle/internal/types"
)

// TestTraceCreateSpanTree demonstrates the full observability surface on
// one traced Create: the span tree (op → path-resolve → rpc and op →
// txn-commit → rpc), Chrome trace_event JSON export, trip/byte
// accounting, and a metrics dump carrying p50/p95/p99 for the resolve,
// txn-commit, and raft-propose stages.
func TestTraceCreateSpanTree(t *testing.T) {
	m, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Stop()

	// Build /a/b and push one op through every stage (mkdir exercises
	// raft-propose; create exercises txn-commit).
	for _, dir := range []string{"/a", "/a/b"} {
		if _, err := m.Mkdir(m.Caller().Begin(), dir); err != nil {
			t.Fatalf("mkdir %s: %v", dir, err)
		}
	}

	tr, ctx := trace.New("create /a/b/o")
	op := m.Caller().BeginTraced(ctx)
	res, err := m.Create(op, "/a/b/o", 128)
	if err != nil {
		t.Fatal(err)
	}
	tr.Finish()

	// The span tree must show the operation decomposed into stages with
	// rpc spans nested beneath them.
	tree := tr.Tree()
	t.Logf("span tree:\n%s", tree)
	for _, want := range []string{"create /a/b/o", "path-resolve", "txn-commit", "rpc", "trips="} {
		if !strings.Contains(tree, want) {
			t.Fatalf("span tree missing %q:\n%s", want, tree)
		}
	}
	spans := tr.Spans()
	byName := map[string]trace.SpanInfo{}
	for _, s := range spans {
		byName[s.Name] = s
	}
	if byName["path-resolve"].ParentID != byName["create /a/b/o"].ID {
		t.Fatal("path-resolve is not a child of the op root")
	}
	if byName["txn-commit"].ParentID != byName["create /a/b/o"].ID {
		t.Fatal("txn-commit is not a child of the op root")
	}
	var rpcUnderResolve, rpcUnderTxn bool
	for _, s := range spans {
		if s.Name != "rpc" {
			continue
		}
		switch s.ParentID {
		case byName["path-resolve"].ID:
			rpcUnderResolve = true
		case byName["txn-commit"].ID:
			rpcUnderTxn = true
		}
	}
	if !rpcUnderResolve || !rpcUnderTxn {
		t.Fatalf("rpc spans not nested under stages (resolve=%v txn=%v):\n%s",
			rpcUnderResolve, rpcUnderTxn, tree)
	}

	// Trip accounting matches the op's RTT counter exactly, and the
	// result's RTT report.
	if tr.Trips() == 0 || int(tr.Trips()) != op.RTTs() || res.RTTs != op.RTTs() {
		t.Fatalf("trips = %d, op RTTs = %d, res RTTs = %d", tr.Trips(), op.RTTs(), res.RTTs)
	}
	if want := tr.Trips() * rpc.MsgOverheadBytes; tr.Bytes() != want {
		t.Fatalf("bytes = %d, want framing for %d trips = %d", tr.Bytes(), tr.Trips(), want)
	}

	// The Chrome export is a valid trace_event array covering every span.
	data, err := tr.ChromeJSON()
	if err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(data, &events); err != nil {
		t.Fatalf("chrome JSON does not parse: %v", err)
	}
	if len(events) != len(spans) {
		t.Fatalf("chrome events = %d, spans = %d", len(events), len(spans))
	}
	for _, e := range events {
		if e["ph"] != "X" {
			t.Fatalf("event phase = %v", e["ph"])
		}
	}

	// The metrics dump reports percentiles for every traced stage.
	var buf bytes.Buffer
	if err := m.Metrics().Write(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"latency_resolve_p50_us", "latency_resolve_p95_us", "latency_resolve_p99_us",
		"latency_txn_commit_p50_us", "latency_txn_commit_p95_us", "latency_txn_commit_p99_us",
		"latency_raft_propose_p50_us", "latency_raft_propose_p95_us", "latency_raft_propose_p99_us",
		"latency_rpc_p99_us",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("metrics dump missing %q:\n%s", want, out)
		}
	}
	// The propose/txn histograms saw real work (mkdirs and the create).
	if !strings.Contains(out, "latency_txn_commit_count 3") { // 2 mkdirs + 1 create
		t.Fatalf("txn commit count unexpected:\n%s", out)
	}
}

// TestTraceMkdirRaftPropose verifies the raft-propose stage nests in a
// traced mkdir's span tree.
func TestTraceMkdirRaftPropose(t *testing.T) {
	m, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Stop()

	tr, ctx := trace.New("mkdir /x")
	if _, err := m.Mkdir(m.Caller().BeginTraced(ctx), "/x"); err != nil {
		t.Fatal(err)
	}
	tr.Finish()
	spans := tr.Spans()
	byName := map[string]trace.SpanInfo{}
	for _, s := range spans {
		byName[s.Name] = s
	}
	prop, ok := byName["raft-propose"]
	if !ok {
		t.Fatalf("no raft-propose span:\n%s", tr.Tree())
	}
	if prop.ParentID != byName["mkdir /x"].ID {
		t.Fatalf("raft-propose parent = %d:\n%s", prop.ParentID, tr.Tree())
	}
	var rpcUnderPropose bool
	for _, s := range spans {
		if s.Name == "rpc" && s.ParentID == prop.ID {
			rpcUnderPropose = true
		}
	}
	if !rpcUnderPropose {
		t.Fatalf("no rpc span under raft-propose:\n%s", tr.Tree())
	}
}

// TestTraceProxyCacheInvalidate verifies the cache-invalidate span on a
// proxy-cached deployment's rmdir.
func TestTraceProxyCacheInvalidate(t *testing.T) {
	m, err := New(Config{ProxyCache: true})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Stop()
	if _, err := m.Mkdir(m.Caller().Begin(), "/d"); err != nil {
		t.Fatal(err)
	}

	tr, ctx := trace.New("rmdir /d")
	if _, err := m.Rmdir(m.Caller().BeginTraced(ctx), "/d"); err != nil {
		t.Fatal(err)
	}
	tr.Finish()
	if !strings.Contains(tr.Tree(), "cache-invalidate") {
		t.Fatalf("no cache-invalidate span:\n%s", tr.Tree())
	}
	if _, err := m.Lookup(m.Caller().Begin(), "/d"); err == nil {
		t.Fatal("lookup of removed dir succeeded")
	} else if !strings.Contains(err.Error(), types.ErrNotFound.Error()) {
		// Removed directories resolve to not-found through the
		// invalidated cache.
		t.Logf("lookup error after rmdir: %v", err)
	}
}
