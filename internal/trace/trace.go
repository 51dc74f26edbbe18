// Package trace is the request-scoped tracing and accounting layer of
// the metadata path: Dapper-style span trees carried via context.Context
// through every operation — op → path-resolve → rpc → raft-propose /
// txn-commit → cache-invalidate — recorded against the netsim clock
// (netsim charges simulated costs as real sleeps, so wall time IS the
// simulated clock), plus per-trace RPC round-trip and byte counters so
// every metadata op reports exactly how many network trips it cost
// (the paper's Table 1 instrument).
//
// Tracing is opt-in and free when off: components create child spans
// with Start(ctx, name), and when ctx carries no trace, Start returns a
// nil *Span whose methods are all no-ops, so the untraced hot path pays
// one context value lookup and no allocation.
//
// A finished trace exports two ways: Tree() renders a human-readable
// indented span tree with durations and counters, and ChromeJSON()
// emits a Chrome trace_event JSON array loadable in chrome://tracing or
// https://ui.perfetto.dev.
package trace

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// ctxKey carries the active *Span in a context.
type ctxKey struct{}

// Trace is one request's span tree plus its trip/byte accounting. Safe
// for concurrent use: parallel RPC fan-outs record sibling spans from
// multiple goroutines.
type Trace struct {
	mu    sync.Mutex
	spans []*Span // all spans in start order; spans[0] is the root
	epoch time.Time

	seq   atomic.Int64
	trips atomic.Int64
	bytes atomic.Int64
}

// Span is one timed node of the tree.
type Span struct {
	tr       *Trace
	id       int64
	parentID int64 // 0 for the root
	name     string
	start    time.Time

	mu    sync.Mutex
	end   time.Time
	attrs []Attr
}

// Attr is one key/value annotation on a span.
type Attr struct {
	Key, Value string
}

// New starts a trace whose root span is named name, returning the trace
// and a context carrying the root span. The caller ends the root span
// (and thereby the trace) with Finish.
func New(name string) (*Trace, context.Context) {
	tr := &Trace{epoch: time.Now()}
	root := tr.newSpan(name, 0)
	return tr, context.WithValue(context.Background(), ctxKey{}, root)
}

func (t *Trace) newSpan(name string, parentID int64) *Span {
	s := &Span{tr: t, id: t.seq.Add(1), parentID: parentID, name: name, start: time.Now()}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return s
}

// Start begins a child span under ctx's active span and returns a
// context carrying it. When ctx carries no trace, it returns (ctx, nil);
// the nil *Span is safe to use (all methods are no-ops), so call sites
// need no conditionals.
func Start(ctx context.Context, name string) (context.Context, *Span) {
	parent := FromContext(ctx)
	if parent == nil {
		return ctx, nil
	}
	s := parent.tr.newSpan(name, parent.id)
	return context.WithValue(ctx, ctxKey{}, s), s
}

// FromContext returns ctx's active span, or nil.
func FromContext(ctx context.Context) *Span {
	if ctx == nil {
		return nil
	}
	s, _ := ctx.Value(ctxKey{}).(*Span)
	return s
}

// AddTrips adds n RPC round trips to ctx's trace accounting (no-op
// without a trace).
func AddTrips(ctx context.Context, n int64) {
	if s := FromContext(ctx); s != nil {
		s.tr.trips.Add(n)
	}
}

// AddBytes adds n message bytes to ctx's trace accounting (no-op
// without a trace).
func AddBytes(ctx context.Context, n int64) {
	if s := FromContext(ctx); s != nil {
		s.tr.bytes.Add(n)
	}
}

// Trips returns the RPC round trips charged to the trace so far.
func (t *Trace) Trips() int64 { return t.trips.Load() }

// Bytes returns the message bytes charged to the trace so far.
func (t *Trace) Bytes() int64 { return t.bytes.Load() }

// Finish ends the root span (open child spans are closed at export
// time with their parent's end).
func (t *Trace) Finish() {
	t.mu.Lock()
	root := t.spans[0]
	t.mu.Unlock()
	root.End()
}

// SetAttr annotates the span. Nil-safe.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, Attr{key, value})
	s.mu.Unlock()
}

// Annotate formats and attaches an attribute. Nil-safe.
func (s *Span) Annotate(key, format string, args ...any) {
	if s == nil {
		return
	}
	s.SetAttr(key, fmt.Sprintf(format, args...))
}

// End closes the span. Ending twice keeps the first end time. Nil-safe.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.end.IsZero() {
		s.end = time.Now()
	}
	s.mu.Unlock()
}

// Name returns the span's name. Nil-safe (returns "").
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// Trace returns the owning trace. Nil-safe (returns nil).
func (s *Span) Trace() *Trace {
	if s == nil {
		return nil
	}
	return s.tr
}

// Duration returns the span's duration (zero until ended).
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.end.IsZero() {
		return 0
	}
	return s.end.Sub(s.start)
}

// SpanInfo is an exported snapshot of one span, used by the renderers
// and by tests asserting tree shape.
type SpanInfo struct {
	ID       int64
	ParentID int64
	Name     string
	Start    time.Duration // offset from trace epoch
	Duration time.Duration
	Attrs    []Attr
}

// Spans snapshots every span in start order. Open spans are reported
// with the duration they had accumulated at snapshot time.
func (t *Trace) Spans() []SpanInfo {
	now := time.Now()
	t.mu.Lock()
	spans := append([]*Span(nil), t.spans...)
	t.mu.Unlock()
	out := make([]SpanInfo, len(spans))
	for i, s := range spans {
		s.mu.Lock()
		end := s.end
		attrs := append([]Attr(nil), s.attrs...)
		s.mu.Unlock()
		if end.IsZero() {
			end = now
		}
		out[i] = SpanInfo{
			ID:       s.id,
			ParentID: s.parentID,
			Name:     s.name,
			Start:    s.start.Sub(t.epoch),
			Duration: end.Sub(s.start),
			Attrs:    attrs,
		}
	}
	return out
}
