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
// with Start(ctx, name), and when ctx carries no trace, Start returns
// ctx and a nil *Span whose methods are all no-ops, so the untraced hot
// path pays one context lookup and no allocation.
//
// A trace is one allocation: the Trace holds its first slabSpans spans
// inline, and a span is its own context (it delegates Deadline, Done,
// Err and Value to the context it was started under), so opening,
// annotating and ending a span allocates nothing until the trace
// outgrows its slab or a span its inline attrs. Attrs stay typed
// (SetInt) until export, and timestamps are clock.Mono readings, one
// clock read each.
//
// A finished trace exports two ways: Tree() renders a human-readable
// indented span tree with durations and counters, and ChromeJSON()
// emits a Chrome trace_event JSON array loadable in chrome://tracing or
// https://ui.perfetto.dev.
package trace

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"mantle/internal/clock"
)

// The recorded stages, the span names DESIGN.md §6 lists. Program call
// sites name their spans with these, never with a literal; a root span
// is named after its operation.
const (
	PathResolve     = "path-resolve"
	TxnCommit       = "txn-commit"
	RaftPropose     = "raft-propose"
	CacheInvalidate = "cache-invalidate"
	RPC             = "rpc"
)

// slabSpans is how many spans a Trace holds inline, and how many each
// overflow chunk holds. A warm stat records 4 spans (op, path-resolve and
// an rpc under each) and a create 5 (a txn-commit in place of the
// stat's second rpc, with the rpc under it), so both fit the slab; a
// mkdir, rmdir or rename across two shards records 10 (two rpcs per 2PC
// participant, a raft-propose and its rpc) and fills one chunk. The
// slab is kept this small because a trace is allocated per sampled op:
// its bytes, not its allocation count, are what a traced op pays in GC.
const slabSpans = 5

// inlineAttrs is how many attrs a span holds without allocating: an rpc
// span's dst and attempt, or path-resolve's cache and levels. Only cold
// attrs go past it: an rpc's err, a retried transaction's retry marks.
const inlineAttrs = 2

// ctxKey finds the active *Span behind a context that wraps one.
type ctxKey struct{}

// Trace is one request's span tree plus its trip/byte accounting. Safe
// for concurrent use: parallel RPC fan-outs record sibling spans from
// multiple goroutines. Its one mutex guards every span's end time and
// attrs. A Trace is never recycled: a parallel child may end after
// Finish, and the flight recorder renders the tree after the op returns.
type Trace struct {
	mu    sync.Mutex
	n     int           // spans started; span i has ID i+1
	epoch time.Duration // clock.Mono reading at New
	more  *chunk        // spans past the slab
	slab  [slabSpans]Span

	trips atomic.Int64
	bytes atomic.Int64
}

// chunk is one overflow allocation of slabSpans spans.
type chunk struct {
	spans [slabSpans]Span
	next  *chunk
}

// Span is one timed node of the tree, and the context.Context that
// carries it: a child started under it sees the deadline, cancellation
// and values of the context the span itself was started under.
type Span struct {
	tr           *Trace
	parent       context.Context
	name         string
	start        time.Duration // clock.Mono
	id, parentID int32         // parentID is 0 for the root

	// Guarded by tr.mu.
	end   time.Duration
	ended bool
	attrs []attr // backed by buf until the span outgrows it
	buf   [inlineAttrs]attr
}

// attr is one annotation as recorded: a string, or an int formatted at
// export.
type attr struct {
	key, str string
	num      int64
	isInt    bool
}

// Attr is one key/value annotation on a span, as exported.
type Attr struct {
	Key, Value string
}

func (a attr) export() Attr {
	if a.isInt {
		return Attr{a.key, strconv.FormatInt(a.num, 10)}
	}
	return Attr{a.key, a.str}
}

// New starts a trace whose root span is named name, returning the trace
// and a context carrying the root span. The caller ends the root span
// (and thereby the trace) with Finish.
func New(name string) (*Trace, context.Context) {
	now := clock.Mono()
	tr := &Trace{epoch: now}
	return tr, tr.open(context.Background(), name, 0, now)
}

// span returns the i-th span started, by slot. Callers hold t.mu.
func (t *Trace) span(i int) *Span {
	if i < slabSpans {
		return &t.slab[i]
	}
	c := t.more
	for i -= slabSpans; i >= slabSpans; i -= slabSpans {
		c = c.next
	}
	return &c.spans[i]
}

// open fills the next slot: IDs follow start order, so a parent is
// always listed before its children.
func (t *Trace) open(parent context.Context, name string, parentID int32, now time.Duration) *Span {
	t.mu.Lock()
	i := t.n
	t.n++
	if i >= slabSpans && i%slabSpans == 0 {
		c := &t.more
		for *c != nil {
			c = &(*c).next
		}
		*c = new(chunk)
	}
	s := t.span(i)
	s.tr, s.parent, s.name, s.start, s.id, s.parentID = t, parent, name, now, int32(i+1), parentID
	s.attrs = s.buf[:0]
	t.mu.Unlock()
	return s
}

// Start begins a child span under ctx's active span and returns it as
// the child's context. When ctx carries no trace, it returns (ctx, nil)
// without reading the clock; the nil *Span is safe to use (all methods
// are no-ops), so call sites need no conditionals.
func Start(ctx context.Context, name string) (context.Context, *Span) {
	if FromContext(ctx) == nil {
		return ctx, nil
	}
	return StartAt(ctx, name, clock.Mono())
}

// StartAt is Start with a clock.Mono reading the caller already took as
// the span's start.
func StartAt(ctx context.Context, name string, now time.Duration) (context.Context, *Span) {
	p := FromContext(ctx)
	if p == nil {
		return ctx, nil
	}
	s := p.tr.open(ctx, name, p.id, now)
	return s, s
}

// FromContext returns ctx's active span, or nil.
func FromContext(ctx context.Context) *Span {
	if s, ok := ctx.(*Span); ok {
		return s
	}
	if ctx == nil {
		return nil
	}
	s, _ := ctx.Value(ctxKey{}).(*Span)
	return s
}

// Deadline implements context.Context.
func (s *Span) Deadline() (time.Time, bool) { return s.parent.Deadline() }

// Done implements context.Context.
func (s *Span) Done() <-chan struct{} { return s.parent.Done() }

// Err implements context.Context.
func (s *Span) Err() error { return s.parent.Err() }

// Value implements context.Context: the span is its own trace key.
func (s *Span) Value(key any) any {
	if _, ok := key.(ctxKey); ok {
		return s
	}
	return s.parent.Value(key)
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

// Finish ends the root span (open child spans are reported at export
// time with the duration they have run so far).
func (t *Trace) Finish() { t.slab[0].End() }

// SetAttr annotates the span. Nil-safe.
func (s *Span) SetAttr(key, value string) { s.add(attr{key: key, str: value}) }

// SetInt annotates the span with an integer, formatted only at export.
// Nil-safe.
func (s *Span) SetInt(key string, v int64) { s.add(attr{key: key, num: v, isInt: true}) }

// Annotate formats and attaches an attribute; it allocates, so it is
// for cold attributes (an error). Nil-safe.
func (s *Span) Annotate(key, format string, args ...any) {
	if s == nil {
		return
	}
	s.SetAttr(key, fmt.Sprintf(format, args...))
}

func (s *Span) add(a attr) {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	s.attrs = append(s.attrs, a)
	s.tr.mu.Unlock()
}

// End closes the span. Ending twice keeps the first end time. Nil-safe.
func (s *Span) End() {
	if s != nil {
		s.EndAt(clock.Mono())
	}
}

// EndAt is End with a clock.Mono reading the caller already took.
// Nil-safe.
func (s *Span) EndAt(now time.Duration) {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	if !s.ended {
		s.end, s.ended = now, true
	}
	s.tr.mu.Unlock()
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
	s.tr.mu.Lock()
	defer s.tr.mu.Unlock()
	if !s.ended {
		return 0
	}
	return s.end - s.start
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

// Spans snapshots every span in start order: IDs 1..n, each parent
// before its children. Open spans are reported with the duration they
// had accumulated at snapshot time.
func (t *Trace) Spans() []SpanInfo {
	t.mu.Lock()
	defer t.mu.Unlock()
	now := clock.Mono()
	out := make([]SpanInfo, t.n)
	for i := range out {
		s := t.span(i)
		end := now
		if s.ended {
			end = s.end
		}
		var attrs []Attr
		if len(s.attrs) > 0 {
			attrs = make([]Attr, len(s.attrs))
			for j, a := range s.attrs {
				attrs[j] = a.export()
			}
		}
		out[i] = SpanInfo{
			ID:       int64(s.id),
			ParentID: int64(s.parentID),
			Name:     s.name,
			Start:    s.start - t.epoch,
			Duration: end - s.start,
			Attrs:    attrs,
		}
	}
	return out
}
