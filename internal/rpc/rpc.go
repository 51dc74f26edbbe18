// Package rpc is the thin remote-procedure-call layer the proxies use to
// talk to metadata servers. Services are in-process Go objects; what an
// RPC adds over a plain call is exactly what the paper's evaluation
// measures: one network round trip on the fabric plus CPU service time on
// the target node. A per-operation Tracker counts round trips so the
// harness can report #RTTs per lookup (Table 1) and per op.
//
// The layer is failure-aware: calls may carry a per-call deadline, and
// the caller's RetryPolicy (capped exponential backoff with seeded
// jitter) applies to every call. Fabric errors — messages lost to
// injected drops, partitions, or blackholes, all wrapping
// types.ErrUnreachable — are retried within the budget;
// application errors returned by the handler are never retried. With no
// fault hook installed on the fabric, no deadline, and the default
// policy, a call costs exactly what it did before this layer existed.
package rpc

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"mantle/internal/clock"
	"mantle/internal/metrics"
	"mantle/internal/netsim"
	"mantle/internal/trace"
	"mantle/internal/types"
)

// MsgOverheadBytes is the fixed per-message framing cost charged to a
// trace's byte accounting on every fabric attempt, on top of the
// payload size declared in CallOpts.Bytes.
const MsgOverheadBytes = 64

// RetryPolicy shapes retries of fabric-level failures within one call.
type RetryPolicy struct {
	// MaxAttempts is the total attempt budget per call, including the
	// first. Zero or negative means one attempt (no retries).
	MaxAttempts int
	// BaseBackoff is the sleep before the first retry; each subsequent
	// retry doubles it, capped at MaxBackoff.
	BaseBackoff time.Duration
	// MaxBackoff caps the exponential backoff.
	MaxBackoff time.Duration
	// Jitter is the fraction of each backoff applied as uniform random
	// jitter (±backoff×Jitter/2), drawn from the caller's seeded source.
	Jitter float64
}

// DefaultRetryPolicy is the caller default: three attempts with a fast,
// capped backoff — enough to ride out transient injected drops without
// masking real partitions.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{
		MaxAttempts: 3,
		BaseBackoff: 200 * time.Microsecond,
		MaxBackoff:  5 * time.Millisecond,
		Jitter:      0.2,
	}
}

func (p RetryPolicy) attempts() int {
	if p.MaxAttempts <= 0 {
		return 1
	}
	return p.MaxAttempts
}

// backoff returns the sleep before retry number n (1-based).
func (p RetryPolicy) backoff(n int, jitterFrac float64) time.Duration {
	d := p.BaseBackoff
	if d <= 0 {
		return 0
	}
	for i := 1; i < n; i++ {
		d *= 2
		if p.MaxBackoff > 0 && d >= p.MaxBackoff {
			d = p.MaxBackoff
			break
		}
	}
	if p.Jitter > 0 {
		d += time.Duration(float64(d) * (jitterFrac - 0.5) * p.Jitter)
	}
	return d
}

// CallOpts carries the failure-handling knobs of one call. The zero
// value uses the caller's defaults with an unnamed source endpoint.
type CallOpts struct {
	// Src names the calling endpoint for edge-scoped fault rules
	// (proxies use "proxy"; "" matches only fabric-wide rules).
	Src string
	// Deadline bounds the call's total wall time across retries. Zero
	// uses the caller's default; the caller default zero means no
	// deadline.
	Deadline time.Duration
	// Bytes is the approximate payload size of the call, charged (plus
	// MsgOverheadBytes) to the trace's byte accounting per attempt.
	// Zero charges only the framing overhead.
	Bytes int64
}

// Caller issues RPCs over a fabric. Safe for concurrent use.
type Caller struct {
	fabric *netsim.Fabric
	policy RetryPolicy
	// deadline is the default per-call deadline (0 = none).
	deadline atomic.Int64

	jmu sync.Mutex
	rng *rand.Rand

	retries  atomic.Int64
	timeouts atomic.Int64
	drops    atomic.Int64

	// lat, when attached via RegisterMetrics, observes the whole-call
	// latency (all attempts and backoffs included) of traced ops' calls.
	lat atomic.Pointer[metrics.Latency]
}

// NewCaller builds a caller over fabric with the default retry policy.
// Backoff jitter derives from the fabric's seed, so retry timing is as
// reproducible as the fabric itself.
func NewCaller(fabric *netsim.Fabric) *Caller {
	return &Caller{
		fabric: fabric,
		policy: DefaultRetryPolicy(),
		rng:    rand.New(rand.NewSource(fabric.Seed())),
	}
}

// Fabric returns the underlying fabric.
func (c *Caller) Fabric() *netsim.Fabric { return c.fabric }

// SetRetryPolicy replaces the caller's default retry policy. Not safe to
// race with in-flight calls; configure at setup.
func (c *Caller) SetRetryPolicy(p RetryPolicy) { c.policy = p }

// SetDeadline sets the default per-call deadline (0 disables).
func (c *Caller) SetDeadline(d time.Duration) { c.deadline.Store(int64(d)) }

// Stats returns cumulative fault-handling counters: fabric-level retries
// performed, calls that exceeded their deadline, and message losses
// observed (each lost attempt counts once).
func (c *Caller) Stats() (retries, timeouts, drops int64) {
	return c.retries.Load(), c.timeouts.Load(), c.drops.Load()
}

// RegisterMetrics exposes the caller's fault-handling counters
// (rpc_retries, rpc_timeouts, rpc_drops), counted on every call, and
// attaches a whole-call latency histogram as latency_rpc, fed by the calls
// of traced ops (head-sampled ones, in core), so chaos-lane runs report
// retry storms and call tails in the standard metrics dump.
func (c *Caller) RegisterMetrics(reg *metrics.Registry) {
	reg.Collect(func(e *metrics.Emitter) {
		e.Int("rpc_retries", c.retries.Load())
		e.Int("rpc_timeouts", c.timeouts.Load())
		e.Int("rpc_drops", c.drops.Load())
	})
	c.lat.Store(reg.Latency("latency_rpc"))
}

func (c *Caller) jitterFrac() float64 {
	c.jmu.Lock()
	defer c.jmu.Unlock()
	return c.rng.Float64()
}

// Call performs one RPC with the caller's defaults and an unnamed source
// endpoint: a network round trip, then fn on node charged with cost of
// CPU service time. The error from fn is returned.
func (c *Caller) Call(node *netsim.Node, cost time.Duration, fn func() error) error {
	return c.do(nil, node, cost, CallOpts{}, fn)
}

// Do performs one RPC with explicit options.
func (c *Caller) Do(node *netsim.Node, cost time.Duration, opts CallOpts, fn func() error) error {
	return c.do(nil, node, cost, opts, fn)
}

// do is the shared call path. op, when non-nil, receives one RTT per
// fabric attempt (a retried call really does cross the network again)
// and supplies the trace context: when it carries a trace, each attempt
// records an "rpc" span and charges one trip plus message bytes to it,
// and the whole call is one latency_rpc sample.
func (c *Caller) do(op *Op, node *netsim.Node, cost time.Duration, opts CallOpts, fn func() error) error {
	deadline := opts.Deadline
	if deadline == 0 {
		deadline = time.Duration(c.deadline.Load())
	}
	// Only a traced op's call is timed: its rpc spans read the clock
	// anyway. One reading on entry serves both latency_rpc and the
	// deadline; an untraced call without a deadline reads no clock at all.
	var lat *metrics.Latency
	if op != nil && trace.FromContext(op.ctx) != nil {
		lat = c.lat.Load()
	}
	var start time.Duration
	if lat != nil || deadline > 0 {
		start = clock.Mono()
	}
	err := c.attempts(op, node, cost, opts, fn, deadline, start)
	if lat != nil {
		lat.Observe(clock.Mono() - start)
	}
	return err
}

// attempts is do's retry loop. start is the clock.Mono reading deadline
// counts from.
func (c *Caller) attempts(op *Op, node *netsim.Node, cost time.Duration, opts CallOpts, fn func() error, deadline, start time.Duration) error {
	ctx := context.Background()
	if op != nil && op.ctx != nil {
		ctx = op.ctx
	}
	link := node.LinkFrom(c.fabric, opts.Src)
	budget := c.policy.attempts()
	var lastErr error
	for attempt := 1; ; attempt++ {
		if attempt > 1 {
			c.retries.Add(1)
			if d := c.policy.backoff(attempt-1, c.jitterFrac()); d > 0 {
				time.Sleep(d)
			}
			// Checked before a retry only: before the first attempt no
			// time has passed.
			if deadline > 0 && clock.Mono()-start >= deadline {
				c.timeouts.Add(1)
				return fmt.Errorf("rpc to %s: %w after %d attempt(s) (last: %v)",
					node.Name(), types.ErrTimeout, attempt-1, lastErr)
			}
		}
		if op != nil {
			op.rootOp().rtts.Add(1)
		}
		_, sp := trace.Start(ctx, "rpc")
		sp.SetAttr("dst", node.Name())
		if attempt > 1 {
			sp.Annotate("attempt", "%d", attempt)
		}
		trace.AddTrips(ctx, 1)
		trace.AddBytes(ctx, opts.Bytes+MsgOverheadBytes)
		err := link.Deliver()
		if err == nil {
			err = node.Exec(cost, fn)
			if err == nil || !errors.Is(err, types.ErrUnreachable) {
				// Success, or an application error: never retried.
				sp.End()
				return err
			}
		}
		sp.Annotate("err", "%v", err)
		sp.End()
		c.drops.Add(1)
		lastErr = err
		if attempt >= budget {
			return fmt.Errorf("rpc to %s: attempts exhausted (%d): %w",
				node.Name(), budget, lastErr)
		}
	}
}

// Op tracks the RPCs issued on behalf of one metadata operation and
// carries the operation's trace context. It is safe for concurrent use
// (InfiniFS's speculative resolution issues parallel RPCs within a
// single op). WithContext derives an Op bound to a child span while
// sharing the same counters, so intermediate layers can nest spans
// without forking the accounting.
type Op struct {
	caller *Caller
	root   *Op // the op whose counters a derived op shares; nil on the root
	ctx    context.Context
	rtts   atomic.Int32 // the root op's round trips
}

// Begin starts tracking a new operation with no trace attached.
func (c *Caller) Begin() *Op {
	return &Op{caller: c, ctx: context.Background()}
}

// BeginTraced starts tracking a new operation whose RPCs record spans
// and trip/byte accounting against the trace carried by ctx (if any).
func (c *Caller) BeginTraced(ctx context.Context) *Op {
	if ctx == nil {
		ctx = context.Background()
	}
	return &Op{caller: c, ctx: ctx}
}

// Context returns the trace context the op's RPCs record against.
func (o *Op) Context() context.Context { return o.ctx }

// WithContext returns a derived Op whose RPCs record against ctx —
// typically a child span started from o.Context() — while sharing the
// original op's RTT counter. When ctx is o's own context (an untraced op
// starting a span gets its context back) it returns o itself.
func (o *Op) WithContext(ctx context.Context) *Op {
	if ctx == nil {
		ctx = context.Background()
	}
	if ctx == o.ctx {
		return o
	}
	return &Op{caller: o.caller, root: o.rootOp(), ctx: ctx}
}

// rootOp returns the op that owns o's counters.
func (o *Op) rootOp() *Op {
	if o.root != nil {
		return o.root
	}
	return o
}

// Call performs one tracked RPC with the caller's defaults.
func (o *Op) Call(node *netsim.Node, cost time.Duration, fn func() error) error {
	return o.caller.do(o, node, cost, CallOpts{}, fn)
}

// Do performs one tracked RPC with explicit options. Every fabric
// attempt — including retried and lost ones — counts as one RTT: the
// wire was crossed (or waited out) each time.
func (o *Op) Do(node *netsim.Node, cost time.Duration, opts CallOpts, fn func() error) error {
	return o.caller.do(o, node, cost, opts, fn)
}

// Parallel issues all calls concurrently, waits for completion, and
// returns the first non-nil error by call order (all calls run
// regardless, so no goroutine outlives the round even when some calls
// fail or time out). Each call counts its own RTTs, but wall time is a
// single round of overlapped RPCs — the behaviour InfiniFS's parallel
// resolution depends on.
func (o *Op) Parallel(calls []func(op *Op) error) error {
	var wg sync.WaitGroup
	errs := make([]error, len(calls))
	for i, call := range calls {
		wg.Add(1)
		go func(i int, call func(*Op) error) {
			defer wg.Done()
			errs[i] = call(o)
		}(i, call)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// RTTs returns the number of round trips the operation has issued.
func (o *Op) RTTs() int { return int(o.rootOp().rtts.Load()) }
