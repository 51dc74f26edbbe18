package rpc

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"mantle/internal/faults"
	"mantle/internal/metrics"
	"mantle/internal/netsim"
	"mantle/internal/trace"
	"mantle/internal/types"
)

func TestCallCountsRoundTrips(t *testing.T) {
	fabric := netsim.NewLocalFabric()
	c := NewCaller(fabric)
	node := netsim.NewNode("n", 0)
	op := c.Begin()
	for i := 0; i < 5; i++ {
		if err := op.Call(node, 0, func() error { return nil }); err != nil {
			t.Fatal(err)
		}
	}
	if op.RTTs() != 5 {
		t.Fatalf("RTTs = %d", op.RTTs())
	}
	if fabric.RPCs() != 5 {
		t.Fatalf("fabric RPCs = %d", fabric.RPCs())
	}
	// A second op tracks independently.
	op2 := c.Begin()
	_ = op2.Call(node, 0, func() error { return nil })
	if op2.RTTs() != 1 || op.RTTs() != 5 {
		t.Fatalf("op RTTs = %d/%d", op.RTTs(), op2.RTTs())
	}
}

func TestCallPropagatesError(t *testing.T) {
	c := NewCaller(netsim.NewLocalFabric())
	node := netsim.NewNode("n", 0)
	sentinel := errors.New("boom")
	op := c.Begin()
	if err := op.Call(node, 0, func() error { return sentinel }); !errors.Is(err, sentinel) {
		t.Fatalf("err = %v", err)
	}
}

func TestParallelOverlapsLatency(t *testing.T) {
	fabric := netsim.NewFabric(netsim.Config{RTT: 20 * time.Millisecond})
	c := NewCaller(fabric)
	node := netsim.NewNode("n", 0)
	op := c.Begin()
	calls := make([]func(*Op) error, 8)
	for i := range calls {
		calls[i] = func(o *Op) error {
			return o.Call(node, 0, func() error { return nil })
		}
	}
	start := time.Now()
	if err := op.Parallel(calls); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	// 8 sequential RPCs would cost >= 160ms; parallel should land well
	// under half that.
	if elapsed > 80*time.Millisecond {
		t.Fatalf("parallel round took %v", elapsed)
	}
	if op.RTTs() != 8 {
		t.Fatalf("RTTs = %d, want 8 (parallelism must not hide RPC count)", op.RTTs())
	}
}

func TestParallelReturnsFirstError(t *testing.T) {
	c := NewCaller(netsim.NewLocalFabric())
	node := netsim.NewNode("n", 0)
	sentinel := errors.New("level 3 missing")
	op := c.Begin()
	err := op.Parallel([]func(*Op) error{
		func(o *Op) error { return o.Call(node, 0, func() error { return nil }) },
		func(o *Op) error { return o.Call(node, 0, func() error { return sentinel }) },
		func(o *Op) error { return o.Call(node, 0, func() error { return nil }) },
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v", err)
	}
}

// flakyHook drops the first failN deliveries to dst, then delivers.
type flakyHook struct {
	dst   string
	failN int32
	seen  atomic.Int32
}

func (h *flakyHook) Edge(src, dst string) (time.Duration, error) {
	if dst == h.dst && h.seen.Add(1) <= h.failN {
		return 0, fmt.Errorf("flaky: %s->%s lost: %w", src, dst, types.ErrUnreachable)
	}
	return 0, nil
}

func (h *flakyHook) Down(string) error { return nil }

// leakCheck fails the test if the goroutine count has not returned to
// (near) its starting level by test end — the before/after bound the
// fault-injection suite uses to prove no RPC path strands a goroutine.
func leakCheck(t *testing.T) {
	t.Helper()
	before := runtime.NumGoroutine()
	t.Cleanup(func() {
		deadline := time.Now().Add(2 * time.Second)
		for time.Now().Before(deadline) {
			if runtime.NumGoroutine() <= before+2 {
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
		t.Errorf("goroutine leak: %d before, %d after", before, runtime.NumGoroutine())
	})
}

func TestRetryRidesOutTransientDrops(t *testing.T) {
	fabric := netsim.NewLocalFabric()
	var hook netsim.FaultHook = &flakyHook{dst: "n", failN: 2}
	fabric.SetFaults(hook)
	c := NewCaller(fabric)
	c.SetRetryPolicy(RetryPolicy{MaxAttempts: 3, BaseBackoff: time.Microsecond})
	node := netsim.NewNode("n", 0)
	op := c.Begin()
	calls := 0
	if err := op.Call(node, 0, func() error { calls++; return nil }); err != nil {
		t.Fatalf("call failed through transient drops: %v", err)
	}
	if calls != 1 {
		t.Fatalf("handler ran %d times", calls)
	}
	// Every fabric attempt counts as an RTT: two losses + one delivery.
	if op.RTTs() != 3 {
		t.Fatalf("RTTs = %d, want 3", op.RTTs())
	}
	retries, timeouts, drops := c.Stats()
	if retries != 2 || timeouts != 0 || drops != 2 {
		t.Fatalf("stats = %d/%d/%d", retries, timeouts, drops)
	}
}

func TestRetryBudgetExhaustsToUnreachable(t *testing.T) {
	fabric := netsim.NewLocalFabric()
	var hook netsim.FaultHook = &flakyHook{dst: "n", failN: 1 << 30}
	fabric.SetFaults(hook)
	c := NewCaller(fabric)
	c.SetRetryPolicy(RetryPolicy{MaxAttempts: 4, BaseBackoff: time.Microsecond})
	node := netsim.NewNode("n", 0)
	err := c.Call(node, 0, func() error { t.Fatal("handler ran"); return nil })
	if !errors.Is(err, types.ErrUnreachable) {
		t.Fatalf("err = %v", err)
	}
	if _, _, drops := stats3(c); drops != 4 {
		t.Fatalf("drops = %d, want 4", drops)
	}
}

func stats3(c *Caller) (int64, int64, int64) { return c.Stats() }

func TestApplicationErrorsAreNotRetried(t *testing.T) {
	c := NewCaller(netsim.NewLocalFabric())
	c.SetRetryPolicy(RetryPolicy{MaxAttempts: 5, BaseBackoff: time.Microsecond})
	node := netsim.NewNode("n", 0)
	appErr := errors.New("no such entry")
	calls := 0
	err := c.Call(node, 0, func() error { calls++; return appErr })
	if !errors.Is(err, appErr) || calls != 1 {
		t.Fatalf("err=%v calls=%d", err, calls)
	}
	if retries, _, _ := c.Stats(); retries != 0 {
		t.Fatalf("app error consumed %d retries", retries)
	}
}

func TestDeadlineExceededReturnsTimeout(t *testing.T) {
	fabric := netsim.NewLocalFabric()
	var hook netsim.FaultHook = &flakyHook{dst: "n", failN: 1 << 30}
	fabric.SetFaults(hook)
	c := NewCaller(fabric)
	c.SetRetryPolicy(RetryPolicy{MaxAttempts: 1 << 20, BaseBackoff: time.Millisecond, MaxBackoff: time.Millisecond})
	node := netsim.NewNode("n", 0)
	start := time.Now()
	err := c.Do(node, 0, CallOpts{Deadline: 25 * time.Millisecond}, func() error { return nil })
	if !errors.Is(err, types.ErrTimeout) {
		t.Fatalf("err = %v", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("deadline enforced after %v", elapsed)
	}
	if _, timeouts, _ := c.Stats(); timeouts != 1 {
		t.Fatalf("timeouts = %d", timeouts)
	}
}

func TestParallelUnderFaultsFirstErrorAndRTTs(t *testing.T) {
	leakCheck(t)
	fabric := netsim.NewLocalFabric()
	var hook netsim.FaultHook = &flakyHook{dst: "dead", failN: 1 << 30}
	fabric.SetFaults(hook)
	c := NewCaller(fabric)
	c.SetRetryPolicy(RetryPolicy{MaxAttempts: 2, BaseBackoff: time.Microsecond})
	ok := netsim.NewNode("ok", 0)
	dead := netsim.NewNode("dead", 0)

	op := c.Begin()
	appErr := errors.New("app failure")
	err := op.Parallel([]func(*Op) error{
		func(o *Op) error { return o.Call(ok, 0, func() error { return nil }) },
		func(o *Op) error { return o.Call(dead, 0, func() error { return nil }) }, // 2 lost attempts
		func(o *Op) error { return o.Call(ok, 0, func() error { return appErr }) },
		func(o *Op) error { return o.Call(ok, 0, func() error { return nil }) },
	})
	// First error by call order: the unreachable call at index 1, not the
	// app error at index 2.
	if !errors.Is(err, types.ErrUnreachable) || errors.Is(err, appErr) {
		t.Fatalf("first-error selection picked %v", err)
	}
	// RTT accounting when some calls fail: 3 delivered + 2 lost attempts.
	if op.RTTs() != 5 {
		t.Fatalf("RTTs = %d, want 5 (fabric seed %d)", op.RTTs(), fabric.Seed())
	}
}

func TestParallelWithTimeoutsLeaksNoGoroutines(t *testing.T) {
	leakCheck(t)
	fabric := netsim.NewLocalFabric()
	var hook netsim.FaultHook = &flakyHook{dst: "dead", failN: 1 << 30}
	fabric.SetFaults(hook)
	c := NewCaller(fabric)
	c.SetRetryPolicy(RetryPolicy{MaxAttempts: 1 << 20, BaseBackoff: 500 * time.Microsecond, MaxBackoff: 500 * time.Microsecond})
	c.SetDeadline(10 * time.Millisecond)
	ok := netsim.NewNode("ok", 0)
	dead := netsim.NewNode("dead", 0)

	for round := 0; round < 4; round++ {
		op := c.Begin()
		calls := make([]func(*Op) error, 16)
		for i := range calls {
			node := ok
			if i%2 == 1 {
				node = dead
			}
			calls[i] = func(o *Op) error {
				return o.Call(node, 0, func() error { return nil })
			}
		}
		err := op.Parallel(calls)
		if !errors.Is(err, types.ErrTimeout) {
			t.Fatalf("round %d err = %v (fabric seed %d)", round, err, fabric.Seed())
		}
		// Timed-out calls still charged their attempted round trips; the
		// 8 successes charge exactly one each.
		if op.RTTs() < 16 {
			t.Fatalf("round %d RTTs = %d, want >= 16", round, op.RTTs())
		}
	}
}

func TestParallelIntegratesWithInjector(t *testing.T) {
	leakCheck(t)
	fabric := netsim.NewLocalFabric()
	inj := faults.New(77)
	node := netsim.NewNode("srv", 0)
	inj.Attach(fabric, node)
	inj.DropEdge("", "srv", 0.5)
	c := NewCaller(fabric)
	c.SetRetryPolicy(RetryPolicy{MaxAttempts: 64, BaseBackoff: time.Microsecond})
	op := c.Begin()
	calls := make([]func(*Op) error, 32)
	var served atomic.Int32
	for i := range calls {
		calls[i] = func(o *Op) error {
			return o.Call(node, 0, func() error { served.Add(1); return nil })
		}
	}
	if err := op.Parallel(calls); err != nil {
		t.Fatalf("err = %v (injector seed %d)", err, inj.Seed())
	}
	if served.Load() != 32 {
		t.Fatalf("served = %d", served.Load())
	}
	// Under 50%% loss, 32 deliveries must have cost strictly more
	// attempts than calls.
	if op.RTTs() <= 32 {
		t.Fatalf("RTTs = %d under 50%% loss (injector seed %d)", op.RTTs(), inj.Seed())
	}
	s := inj.Stats()
	if s.Dropped == 0 || s.Delivered < 32 {
		t.Fatalf("injector stats = %+v (seed %d)", s, inj.Seed())
	}
}

func TestTracedOpRecordsSpansAndAccounting(t *testing.T) {
	fabric := netsim.NewLocalFabric()
	c := NewCaller(fabric)
	node := netsim.NewNode("srv", 0)
	tr, ctx := trace.New("op")
	op := c.BeginTraced(ctx)
	if err := op.Do(node, 0, CallOpts{Bytes: 100}, func() error { return nil }); err != nil {
		t.Fatal(err)
	}
	if err := op.Call(node, 0, func() error { return nil }); err != nil {
		t.Fatal(err)
	}
	tr.Finish()
	if tr.Trips() != 2 {
		t.Fatalf("trace trips = %d, want 2", tr.Trips())
	}
	wantBytes := int64(100 + 2*MsgOverheadBytes)
	if tr.Bytes() != wantBytes {
		t.Fatalf("trace bytes = %d, want %d", tr.Bytes(), wantBytes)
	}
	if op.RTTs() != 2 {
		t.Fatalf("op accounting = %d rtts", op.RTTs())
	}
	spans := tr.Spans()
	if len(spans) != 3 { // root + 2 rpc spans
		t.Fatalf("spans = %d, want 3", len(spans))
	}
	for _, s := range spans[1:] {
		if s.Name != "rpc" {
			t.Fatalf("span name = %q", s.Name)
		}
		if len(s.Attrs) == 0 || s.Attrs[0].Key != "dst" || s.Attrs[0].Value != "srv" {
			t.Fatalf("rpc span attrs = %v", s.Attrs)
		}
	}
}

func TestWithContextSharesCounters(t *testing.T) {
	fabric := netsim.NewLocalFabric()
	c := NewCaller(fabric)
	node := netsim.NewNode("srv", 0)
	tr, ctx := trace.New("op")
	op := c.BeginTraced(ctx)

	sub, sp := trace.Start(op.Context(), "txn-commit")
	derived := op.WithContext(sub)
	if err := derived.Call(node, 0, func() error { return nil }); err != nil {
		t.Fatal(err)
	}
	sp.End()
	tr.Finish()

	// The derived op's RPC counts on the original op's accounting...
	if op.RTTs() != 1 || derived.RTTs() != 1 {
		t.Fatalf("rtts = %d/%d, want 1/1", op.RTTs(), derived.RTTs())
	}
	// ...and its rpc span nests under the txn-commit child span.
	spans := tr.Spans()
	byName := map[string]trace.SpanInfo{}
	for _, s := range spans {
		byName[s.Name] = s
	}
	if byName["rpc"].ParentID != byName["txn-commit"].ID {
		t.Fatalf("rpc parent = %d, want txn-commit (%d)",
			byName["rpc"].ParentID, byName["txn-commit"].ID)
	}
}

func TestRegisterMetricsExposesCountersAndLatency(t *testing.T) {
	fabric := netsim.NewLocalFabric()
	inj := faults.New(7)
	node := netsim.NewNode("srv", 0)
	inj.Attach(fabric, node)
	inj.DropEdge("", "srv", 0.5)
	c := NewCaller(fabric)
	c.SetRetryPolicy(RetryPolicy{MaxAttempts: 64, BaseBackoff: time.Microsecond})
	reg := metrics.NewRegistry()
	c.RegisterMetrics(reg)
	lat := reg.Latency("latency_rpc")
	calls := func(op *Op) {
		t.Helper()
		for i := 0; i < 16; i++ {
			if err := op.Call(node, 0, func() error { return nil }); err != nil {
				t.Fatal(err)
			}
		}
	}

	// An untraced op's calls are counted by the fault-path counters but
	// not timed.
	calls(c.Begin())
	retries, _, drops := c.Stats()
	if retries == 0 || drops == 0 {
		t.Fatalf("expected retries under 50%% loss, got retries=%d drops=%d (injector seed %d)", retries, drops, inj.Seed())
	}
	if n := lat.Count(); n != 0 {
		t.Fatalf("untraced calls added %d latency_rpc samples, want 0", n)
	}

	// A traced op's calls are one whole-call sample each, retries included.
	tr, ctx := trace.New("op")
	op := c.BeginTraced(ctx)
	calls(op)
	tr.Finish()
	retries2, _, drops2 := c.Stats()
	if retries2 == retries || op.RTTs() <= 16 {
		t.Fatalf("traced calls saw no retries: retries %d -> %d, %d attempts (injector seed %d)", retries, retries2, op.RTTs(), inj.Seed())
	}
	if n := lat.Count(); n != 16 {
		t.Fatalf("16 traced calls (%d attempts) added %d latency_rpc samples, want 16", op.RTTs(), n)
	}

	var buf bytes.Buffer
	if err := reg.Write(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		fmt.Sprintf("rpc_retries %d", retries2),
		fmt.Sprintf("rpc_drops %d", drops2),
		"rpc_timeouts 0",
		"latency_rpc_count 16",
		"latency_rpc_p99_us ",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("metrics dump missing %q:\n%s", want, out)
		}
	}
}

// BenchmarkCall is one warm untraced RPC on the zero-latency fabric: what
// the rpc layer and the fabric cost per message when nothing is modelled.
func BenchmarkCall(b *testing.B) {
	c := NewCaller(netsim.NewLocalFabric())
	c.RegisterMetrics(metrics.NewRegistry())
	node := netsim.NewNode("srv", 0)
	op := c.Begin()
	fn := func() error { return nil }
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := op.Do(node, 0, CallOpts{Src: "proxy"}, fn); err != nil {
			b.Fatal(err)
		}
	}
}
