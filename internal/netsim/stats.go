package netsim

import (
	"sync/atomic"

	"mantle/internal/metrics"
)

// EdgeStats accumulates per-edge delivery accounting: round trips
// charged, messages lost to injected faults, and the delivery-latency
// histogram (RTT + jitter + injected extra). One EdgeStats exists per
// distinct (src, dst) pair seen on the fabric.
type EdgeStats struct {
	Trips  atomic.Int64
	Losses atomic.Int64
	// Latency observes the timed deliveries only: a zero-latency one is
	// counted in Trips, and latency adds it back as a zero sample.
	Latency metrics.Latency
}

// latency is the edge's delivery histogram as exposed: Latency plus one
// zero sample per delivery that was only counted. Count is read before
// Trips — a timed delivery adds its trip first — so the difference is
// never negative.
func (s *EdgeStats) latency() *metrics.Latency {
	timed := s.Latency.Count()
	return s.Latency.PlusZeros(s.Trips.Load() - timed)
}

// edgePair is the registry key for a (src, dst) pair — a struct, not a
// rendered string, so the Edge lookup of a by-name Deliver does no
// concatenation. Unnamed callers (client-originated RPCs) normalise to
// "client".
type edgePair struct {
	src, dst string
}

func normEdge(src, dst string) edgePair {
	if src == "" {
		src = "client"
	}
	if dst == "" {
		dst = "client"
	}
	return edgePair{src, dst}
}

// Edge returns (creating if needed) the stats of the (src, dst) edge.
// The hit path — every resolution after an edge's first — is a shared
// lock and one map probe.
func (f *Fabric) Edge(src, dst string) *EdgeStats {
	k := normEdge(src, dst)
	f.edgeMu.RLock()
	e, ok := f.edges[k]
	f.edgeMu.RUnlock()
	if ok {
		return e
	}
	f.edgeMu.Lock()
	defer f.edgeMu.Unlock()
	if e, ok = f.edges[k]; ok {
		return e
	}
	if f.edges == nil {
		f.edges = make(map[edgePair]*EdgeStats)
	}
	e = &EdgeStats{}
	f.edges[k] = e
	return e
}

// Edges snapshots the per-edge registry, keyed "src->dst" (the string
// rendering happens only here, off the delivery path).
func (f *Fabric) Edges() map[string]*EdgeStats {
	f.edgeMu.RLock()
	defer f.edgeMu.RUnlock()
	out := make(map[string]*EdgeStats, len(f.edges))
	for k, e := range f.edges {
		out[k.src+"->"+k.dst] = e
	}
	return out
}

// RegisterMetrics exposes on reg the fabric's delivery accounting
// (fabric_rpcs, and edge_trips / edge_losses / edge_latency per
// edge="src->dst") and the service accounting of nodes (node_ops /
// node_busy_us / node_queue_wait per node="<name>").
func (f *Fabric) RegisterMetrics(reg *metrics.Registry, nodes ...*Node) {
	reg.Collect(func(e *metrics.Emitter) {
		e.Int("fabric_rpcs", f.RPCs())
		for key, s := range f.Edges() {
			l := e.Label("edge", key)
			l.Int("edge_trips", s.Trips.Load())
			l.Int("edge_losses", s.Losses.Load())
			l.Latency("edge_latency", s.latency())
		}
		for _, n := range nodes {
			l := e.Label("node", n.name)
			l.Int("node_ops", n.Ops())
			l.Int("node_busy_us", n.BusyTime().Microseconds())
			l.Latency("node_queue_wait", n.QueueWait())
		}
	})
}

// nodeStats is the per-node instrumentation shared by all nodes.
type nodeStats struct {
	queueWait metrics.Latency
}

// QueueWait returns the node's queue-delay histogram: for every Charge,
// the time the request waited for its slot on the service timeline
// (zero on an unsaturated node). Tail growth here is the signature of
// a saturated metadata server (§6.3 of the paper).
func (n *Node) QueueWait() *metrics.Latency { return &n.stats.queueWait }
