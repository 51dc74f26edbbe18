package trace

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTraceSpanParentChildOrdering(t *testing.T) {
	tr, ctx := New("op")
	rctx, resolve := Start(ctx, "path-resolve")
	_, rpc1 := Start(rctx, "rpc")
	time.Sleep(time.Millisecond)
	rpc1.End()
	resolve.End()
	_, exec := Start(ctx, "txn-commit")
	exec.End()
	tr.Finish()

	spans := tr.Spans()
	if len(spans) != 4 {
		t.Fatalf("spans = %d, want 4", len(spans))
	}
	byName := map[string]SpanInfo{}
	for _, s := range spans {
		byName[s.Name] = s
	}
	root := byName["op"]
	if root.ParentID != 0 {
		t.Fatalf("root parent = %d", root.ParentID)
	}
	if got := byName["path-resolve"].ParentID; got != root.ID {
		t.Fatalf("path-resolve parent = %d, want %d", got, root.ID)
	}
	if got := byName["rpc"].ParentID; got != byName["path-resolve"].ID {
		t.Fatalf("rpc parent = %d, want %d (path-resolve)", got, byName["path-resolve"].ID)
	}
	if got := byName["txn-commit"].ParentID; got != root.ID {
		t.Fatalf("txn-commit parent = %d, want %d", got, root.ID)
	}
	// Start order is recorded order; children start at or after parents.
	for _, s := range spans {
		if s.ParentID == 0 {
			continue
		}
		var parent SpanInfo
		for _, p := range spans {
			if p.ID == s.ParentID {
				parent = p
			}
		}
		if s.Start < parent.Start {
			t.Fatalf("span %s starts (%v) before its parent %s (%v)",
				s.Name, s.Start, parent.Name, parent.Start)
		}
	}
	// A child ends no later than snapshot; the rpc span's duration must
	// fit inside path-resolve's.
	if byName["rpc"].Duration > byName["path-resolve"].Duration {
		t.Fatalf("rpc (%v) outlives path-resolve (%v)",
			byName["rpc"].Duration, byName["path-resolve"].Duration)
	}
}

func TestTraceNoopWithoutContext(t *testing.T) {
	ctx := context.Background()
	c2, s := Start(ctx, "orphan")
	if s != nil {
		t.Fatal("span created without a trace")
	}
	if c2 != ctx {
		t.Fatal("context changed without a trace")
	}
	// All nil-span methods are safe.
	s.SetAttr("k", "v")
	s.Annotate("k", "%d", 1)
	s.End()
	if s.Name() != "" || s.Duration() != 0 || s.Trace() != nil {
		t.Fatal("nil span leaked state")
	}
	AddTrips(ctx, 3)
	AddBytes(ctx, 100)
}

func TestTraceTripAndByteAccounting(t *testing.T) {
	tr, ctx := New("op")
	AddTrips(ctx, 1)
	sub, sp := Start(ctx, "rpc")
	AddTrips(sub, 2)
	AddBytes(sub, 128)
	sp.End()
	tr.Finish()
	if tr.Trips() != 3 {
		t.Fatalf("trips = %d, want 3", tr.Trips())
	}
	if tr.Bytes() != 128 {
		t.Fatalf("bytes = %d, want 128", tr.Bytes())
	}
}

// Siblings and their children opened from many goroutines fill the
// slab and overflow chunks: Spans() still lists IDs 1..n in start order,
// each parent before its children.
func TestTraceConcurrentSiblings(t *testing.T) {
	const workers = 3 * slabSpans
	tr, ctx := New("op")
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sub, s := Start(ctx, RPC)
			AddTrips(sub, 1)
			s.SetAttr("k", "v")
			_, c := Start(sub, TxnCommit)
			c.SetInt("i", int64(i))
			c.End()
			s.End()
		}()
	}
	wg.Wait()
	tr.Finish()
	spans := tr.Spans()
	if got := len(spans); got != 1+2*workers {
		t.Fatalf("spans = %d, want %d", got, 1+2*workers)
	}
	if tr.Trips() != workers {
		t.Fatalf("trips = %d, want %d", tr.Trips(), workers)
	}
	for i, s := range spans {
		if s.ID != int64(i+1) {
			t.Fatalf("span %d has ID %d", i, s.ID)
		}
		if s.ParentID >= s.ID {
			t.Fatalf("span %d (%s) listed before its parent %d", s.ID, s.Name, s.ParentID)
		}
		want := RPC
		if s.ParentID > 1 {
			want = TxnCommit
			if p := spans[s.ParentID-1]; p.Name != RPC || len(s.Attrs) != 1 || s.Attrs[0].Key != "i" {
				t.Fatalf("span %d: parent %s, attrs %v", s.ID, p.Name, s.Attrs)
			}
		}
		if s.ParentID > 0 && s.Name != want {
			t.Fatalf("span %d is %s, want %s", s.ID, s.Name, want)
		}
	}
}

// A child span's context carries what its parent's context carries:
// deadline, cancellation and non-trace values; the span itself is found
// behind a context wrapping it.
func TestSpanContextDelegates(t *testing.T) {
	type key struct{}
	tr, root := New("op")
	deadline := time.Now().Add(time.Hour)
	dctx, cancel := context.WithDeadline(root, deadline)
	vctx := context.WithValue(dctx, key{}, "v")
	cctx, child := Start(vctx, PathResolve)
	_, grandchild := Start(cctx, RPC)
	if cctx != context.Context(child) {
		t.Fatal("Start did not return the span as its context")
	}
	if got, ok := cctx.Deadline(); !ok || !got.Equal(deadline) {
		t.Fatalf("deadline = %v, %v; want %v", got, ok, deadline)
	}
	if cctx.Value(key{}) != "v" {
		t.Fatalf("value = %v", cctx.Value(key{}))
	}
	if FromContext(cctx) != child || FromContext(vctx) != root.(*Span) {
		t.Fatal("FromContext lost the active span")
	}
	wrapped, stop := context.WithCancel(cctx)
	defer stop()
	if FromContext(wrapped) != child {
		t.Fatal("a context wrapping a span does not carry it")
	}
	if cctx.Err() != nil {
		t.Fatal("cancelled before cancel")
	}
	cancel()
	for _, c := range []context.Context{cctx, wrapped} {
		select {
		case <-c.Done():
		case <-time.After(10 * time.Second):
			t.Fatal("cancellation did not reach the child")
		}
		if c.Err() != context.Canceled {
			t.Fatalf("err = %v", c.Err())
		}
	}
	grandchild.End()
	child.End()
	tr.Finish()
	spans := tr.Spans()
	if spans[1].ParentID != 1 || spans[2].ParentID != 2 {
		t.Fatalf("parents = %d, %d; want 1, 2", spans[1].ParentID, spans[2].ParentID)
	}
}

// A parallel child that ends after Finish keeps its own end time, not
// the root's, and the root's stays what Finish set.
func TestSpanEndsAfterFinish(t *testing.T) {
	tr, ctx := New("op")
	_, late := Start(ctx, RPC)
	tr.Finish()
	root := tr.Spans()[0].Duration
	time.Sleep(2 * time.Millisecond)
	late.End()
	spans := tr.Spans()
	if spans[0].Duration != root {
		t.Fatalf("root duration moved from %v to %v", root, spans[0].Duration)
	}
	if d := spans[1].Duration; d < 2*time.Millisecond || d != late.Duration() {
		t.Fatalf("late child reports %v (Duration() %v), want its own end >= 2ms", d, late.Duration())
	}
	late.End()
	if tr.Spans()[1].Duration != spans[1].Duration {
		t.Fatal("a second End moved the end time")
	}
}

// TestTraceAllocs pins the sampled path's cost in this layer: a trace
// with a slab's worth of annotated child spans is one allocation, the
// Trace itself, and Start on an untraced context allocates nothing.
func TestTraceAllocs(t *testing.T) {
	got := testing.AllocsPerRun(1000, func() {
		tr, ctx := New("op")
		for i := 1; i < slabSpans; i++ {
			c, sp := Start(ctx, RPC)
			sp.SetAttr("dst", "tafdb-0")
			sp.SetInt("attempt", int64(i))
			AddTrips(c, 1)
			sp.End()
		}
		tr.Finish()
	})
	if got != 1 {
		t.Fatalf("a trace of %d spans allocates %.1f times, want 1", slabSpans, got)
	}
	bg := context.Background()
	got = testing.AllocsPerRun(1000, func() {
		ctx, sp := Start(bg, RPC)
		sp.SetInt("attempt", 2)
		sp.End()
		if ctx != bg {
			t.Fatal("untraced Start changed the context")
		}
	})
	if got != 0 {
		t.Fatalf("untraced Start allocates %.1f times, want 0", got)
	}
}

// Typed attrs render as the formatted strings did.
func TestSpanIntAttrsRender(t *testing.T) {
	tr, ctx := New("op")
	_, sp := Start(ctx, TxnCommit)
	want := "["
	for i := int64(1); i <= inlineAttrs+2; i++ {
		sp.SetInt("retry", i)
		want += fmt.Sprintf("retry=%d ", i)
	}
	sp.SetInt("neg", -7)
	sp.End()
	tr.Finish()
	want += "neg=-7]"
	if out := tr.Tree(); !strings.Contains(out, want) {
		t.Fatalf("tree missing %q:\n%s", want, out)
	}
}

func TestTraceChromeJSONLoads(t *testing.T) {
	tr, ctx := New("create /a/b/o")
	sub, resolve := Start(ctx, "path-resolve")
	_, rpc := Start(sub, "rpc")
	rpc.SetAttr("dst", "indexnode-0")
	rpc.End()
	resolve.End()
	AddTrips(ctx, 2)
	tr.Finish()

	data, err := tr.ChromeJSON()
	if err != nil {
		t.Fatal(err)
	}
	// A valid trace_event dump is a JSON array of events with the
	// required phase/timestamp fields.
	var events []map[string]any
	if err := json.Unmarshal(data, &events); err != nil {
		t.Fatalf("chrome JSON does not parse: %v\n%s", err, data)
	}
	if len(events) != 3 {
		t.Fatalf("events = %d, want 3", len(events))
	}
	for _, e := range events {
		if e["ph"] != "X" {
			t.Fatalf("event phase = %v", e["ph"])
		}
		for _, k := range []string{"name", "ts", "dur", "pid", "tid"} {
			if _, ok := e[k]; !ok {
				t.Fatalf("event missing %q: %v", k, e)
			}
		}
	}
	if events[0]["args"].(map[string]any)["trips"] != "2" {
		t.Fatalf("root args = %v", events[0]["args"])
	}
}

func TestTraceTreeRendering(t *testing.T) {
	tr, ctx := New("mkdir /x")
	sub, resolve := Start(ctx, "path-resolve")
	_, rpc := Start(sub, "rpc")
	rpc.End()
	resolve.End()
	_, prop := Start(ctx, "raft-propose")
	prop.End()
	tr.Finish()

	out := tr.Tree()
	for _, want := range []string{"mkdir /x", "path-resolve", "rpc", "raft-propose", "trips="} {
		if !strings.Contains(out, want) {
			t.Fatalf("tree missing %q:\n%s", want, out)
		}
	}
	// path-resolve precedes raft-propose (start order), and rpc is
	// indented beneath path-resolve.
	if strings.Index(out, "path-resolve") > strings.Index(out, "raft-propose") {
		t.Fatalf("sibling order wrong:\n%s", out)
	}
}
