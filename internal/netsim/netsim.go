// Package netsim provides the simulated cluster fabric that every system
// in this reproduction runs on: an injected per-RPC network round-trip
// latency and a per-node CPU capacity model.
//
// The paper's testbed is a 53-server cluster on a 25 Gbps network. Two
// properties of that environment determine the evaluation's shapes:
//
//  1. the fixed round-trip cost of each proxy↔metadata-server RPC — path
//     resolution cost is #RTTs × RTT (Table 1 of the paper), and
//  2. the finite CPU capacity of each metadata server, which is what
//     saturates LocoFS's directory server and Mantle's IndexNode leader
//     (§6.3, §6.5) and what follower/learner reads relieve.
//
// netsim models exactly those two things:
//
//   - Fabric.RoundTrip sleeps one configured RTT, charged once per RPC.
//   - Node.Exec charges a per-request CPU service time against a fluid
//     queue with the node's aggregate service rate Workers/serviceTime:
//     each request is assigned the next available position on the node's
//     service timeline and sleeps until that position. An unsaturated node
//     adds (almost) no latency; a saturated node caps throughput at
//     exactly Workers/serviceTime and queue delay grows, as on real
//     hardware. No goroutine ever busy-spins, so the model stays accurate
//     with thousands of simulated clients on a small host.
//
// A Link is one directed (src, dst) edge resolved once: the names the
// fault hook sees and the edge's stats. rpc delivers on links cached on
// the target Node and raft holds one per peer, so a warm delivery is a
// few atomic adds; Fabric.Deliver(src, dst) resolves one per call.
//
// With RTT and costs set to zero the fabric is free, which unit tests use:
// a zero-latency delivery is counted, not timed.
package netsim

import (
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// Config parameterises a Fabric.
type Config struct {
	// RTT is the network round-trip time charged per RPC.
	RTT time.Duration
}

// FaultHook lets a fault injector intercept the fabric's message
// deliveries (see internal/faults). It is the one place a message is
// lost: a node that is down is unreachable on every edge, so nothing
// reaches it to execute. The hook is consulted only when installed, so
// fault-free runs pay a single atomic load per RPC. Implementations must
// be safe for concurrent use.
type FaultHook interface {
	// Edge is consulted once per message round trip between the named
	// endpoints ("" for callers that do not name themselves). It returns
	// extra latency to add on top of the fabric RTT, and a non-nil error
	// when the message is lost (dropped, partitioned, or an endpoint
	// blackholed) — the delivery still charges its round trip, modelling
	// the sender waiting out the loss.
	Edge(src, dst string) (extra time.Duration, err error)
}

// Fabric is the shared network. It is safe for concurrent use.
type Fabric struct {
	rtt    time.Duration
	rpcs   atomic.Int64
	faults atomic.Pointer[FaultHook]

	// edges is the per-edge delivery registry (see stats.go), keyed by
	// the (src, dst) pair → *EdgeStats.
	edgeMu sync.RWMutex
	edges  map[edgePair]*EdgeStats
}

// NewFabric builds a fabric from cfg.
func NewFabric(cfg Config) *Fabric {
	return &Fabric{rtt: cfg.RTT}
}

// RTT returns the round trip the fabric charges per RPC.
func (f *Fabric) RTT() time.Duration { return f.rtt }

// NewLocalFabric returns a zero-latency fabric, used by unit tests and by
// callers that only want RPC counting.
func NewLocalFabric() *Fabric { return NewFabric(Config{}) }

// SetFaults installs (or, with nil, removes) the fabric's fault hook.
func (f *Fabric) SetFaults(h FaultHook) {
	if h == nil {
		f.faults.Store(nil)
		return
	}
	f.faults.Store(&h)
}

// Faults returns the installed fault hook, or nil.
func (f *Fabric) Faults() FaultHook {
	if p := f.faults.Load(); p != nil {
		return *p
	}
	return nil
}

// RoundTrip charges one network round trip: it sleeps the configured RTT
// and increments the fabric-wide RPC counter. With RTT zero
// it only counts. Messages sent this way carry no endpoint names, so
// edge-scoped fault rules do not apply to them (fabric-wide rules do);
// fault-aware callers use Deliver.
func (f *Fabric) RoundTrip() {
	_ = f.Deliver("", "")
}

// Deliver charges one round trip between the named endpoints: it resolves
// their link and delivers on it. Callers that send on one edge repeatedly
// resolve the link once (Link, Node.LinkFrom) instead.
func (f *Fabric) Deliver(src, dst string) error {
	return f.Link(src, dst).Deliver()
}

// Link is one resolved (src, dst) edge of a fabric (see the package
// comment). Delivering on it probes no map, takes no lock and allocates
// nothing.
type Link struct {
	f        *Fabric
	src, dst string
	edge     *EdgeStats
}

// Link resolves the (src, dst) edge.
func (f *Fabric) Link(src, dst string) *Link {
	return &Link{f: f, src: src, dst: dst, edge: f.Edge(src, dst)}
}

// Deliver charges one round trip on the link, consulting the fault hook if
// one is installed. A lost message still sleeps the round trip — the
// sender pays at least one RTT discovering the loss — and returns a
// non-nil error wrapping types.ErrUnreachable. A zero-latency delivery is
// only counted: the edge's histogram gets its zero sample when it is read.
func (l *Link) Deliver() error {
	f, edge := l.f, l.edge
	f.rpcs.Add(1)
	edge.Trips.Add(1)
	var extra time.Duration
	var ferr error
	if p := f.faults.Load(); p != nil {
		extra, ferr = (*p).Edge(l.src, l.dst)
	}
	if ferr != nil {
		edge.Losses.Add(1)
	}
	d := f.rtt + extra
	if d <= 0 {
		return ferr
	}
	edge.Latency.Observe(d)
	time.Sleep(d)
	return ferr
}

// RPCs returns the total number of round trips charged so far.
func (f *Fabric) RPCs() int64 { return f.rpcs.Load() }

// ResetRPCs zeroes the RPC counter and returns the previous value.
func (f *Fabric) ResetRPCs() int64 { return f.rpcs.Swap(0) }

// Node models one server's CPU as a fluid queue with a bounded aggregate
// service rate. Exec(cost) reserves cost/Workers of timeline per request,
// so the node sustains at most Workers/cost requests per second; beyond
// that, requests queue and their latency grows, exactly like a saturated
// server.
type Node struct {
	name    string
	workers int

	mu   sync.Mutex
	next time.Time // next free position on the service timeline

	busy  atomic.Int64 // cumulative modelled CPU time, ns
	ops   atomic.Int64
	load  atomic.Int64 // EWMA queue delay, ns (the load hint)
	stats nodeStats
	// links holds the node's inbound links, one per (fabric, source) it
	// has been called from — one to three in a deployment. Copy-on-write,
	// so the warm lookup is an atomic load and a short scan.
	links atomic.Pointer[[]*Link]
}

// NewNode creates a node with the given number of CPU worker slots.
// workers <= 0 means unlimited capacity (no queueing, costs ignored).
func NewNode(name string, workers int) *Node {
	return &Node{name: name, workers: workers}
}

// Name returns the node's name.
func (n *Node) Name() string { return n.name }

// Workers returns the node's configured parallelism.
func (n *Node) Workers() int { return n.workers }

// LinkFrom returns the link from src to the node on f, resolving it on
// first use.
func (n *Node) LinkFrom(f *Fabric, src string) *Link {
	for {
		p := n.links.Load()
		var links []*Link
		if p != nil {
			links = *p
		}
		for _, l := range links {
			if l.f == f && l.src == src {
				return l
			}
		}
		next := append(slices.Clip(links), f.Link(src, n.name))
		if n.links.CompareAndSwap(p, &next) {
			return next[len(next)-1]
		}
	}
}

// Exec runs fn on the node after charging cost of CPU service time
// against the node's capacity. fn itself should be cheap real work (map
// and tree operations); the modelled cost dominates. The error from fn is
// returned unchanged.
func (n *Node) Exec(cost time.Duration, fn func() error) error {
	n.Charge(cost)
	return fn()
}

// Charge books cost of CPU time on the node's service timeline and blocks
// until the booked slot is reached. It is exposed separately from Exec for
// handlers that interleave several charges with real work.
func (n *Node) Charge(cost time.Duration) {
	n.ops.Add(1)
	if cost <= 0 || n.workers <= 0 {
		return
	}
	n.busy.Add(int64(cost))
	advance := cost / time.Duration(n.workers)
	n.mu.Lock()
	now := time.Now()
	if n.next.Before(now) {
		n.next = now
	}
	start := n.next
	n.next = n.next.Add(advance)
	n.mu.Unlock()
	wait := start.Sub(now)
	if wait < 0 {
		wait = 0
	}
	n.stats.queueWait.Observe(wait)
	// Fold the observed queue delay into the load-hint EWMA (α = 1/8,
	// computed in integer ns so the hot path stays lock-free): one
	// atomic load + store per charge; a torn concurrent update only
	// loses one sample of an 8-sample-smoothed estimate.
	prev := n.load.Load()
	n.load.Store(prev + (int64(wait)-prev)/8)
	// Sub-floor waits are absorbed rather than slept: OS timer
	// granularity (~1ms on stock kernels) would overshoot a short sleep
	// by far more than the wait itself, distorting the model. The
	// pacer's timeline still advances, so a saturated node's queue delay
	// grows past the floor and the throughput cap is enforced exactly.
	if wait > chargeSleepFloor {
		time.Sleep(wait)
	}
}

// chargeSleepFloor is the smallest queue delay worth sleeping for.
const chargeSleepFloor = 500 * time.Microsecond

// Ops returns the number of requests executed on the node.
func (n *Node) Ops() int64 { return n.ops.Load() }

// LoadHint returns the node's smoothed queue delay — how long a request
// arriving now can expect to wait before service. This is the load
// signal piggybacked on RPC replies for the proxy's load-aware router:
// an idle node reports ~0, a saturated node's hint grows with its
// backlog. One atomic load; safe to sample on every reply.
func (n *Node) LoadHint() time.Duration { return time.Duration(n.load.Load()) }

// BusyTime returns the cumulative modelled CPU time consumed on the node.
func (n *Node) BusyTime() time.Duration { return time.Duration(n.busy.Load()) }

// Utilization reports the node's modelled CPU utilisation over the window
// since a reference instant: busyTime / (elapsed × workers).
func (n *Node) Utilization(since time.Time) float64 {
	if n.workers <= 0 {
		return 0
	}
	elapsed := time.Since(since)
	if elapsed <= 0 {
		return 0
	}
	return float64(n.BusyTime()) / (float64(elapsed) * float64(n.workers))
}
