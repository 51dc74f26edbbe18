// Package faults is the deterministic fault-injection fabric for netsim
// clusters. An Injector implements netsim.FaultHook: once attached to a
// Fabric (and optionally to Nodes), every simulated message delivery and
// node execution consults it, so tests can lose, delay, and partition
// traffic that the crash-stop failure model cannot express — the §6.5
// availability scenarios (leader failover, follower reads relieving a
// dead leader) plus the network splits the paper's testbed never sees.
//
// All randomness comes from one seeded source, and every injected loss
// carries the seed in its error text, so a CI failure reproduces locally
// by fixing the same seed. With no rules installed the hook is never set
// and the zero-fault fast path in netsim pays nothing.
//
// Rules:
//
//   - DropEdge(src, dst, p): each message on the directed edge src→dst is
//     lost with probability p (DropAll sets a fabric-wide floor).
//   - DelayEdge(src, dst, d): messages on the edge incur d of extra
//     latency on top of the fabric RTT.
//   - Blackhole(node): the node is unreachable in both directions and
//     refuses local execution (netsim.Node.Exec) until Restored.
//   - Partition(a, b): symmetric partition — every message between a
//     member of set a and a member of set b is lost until Heal/HealAll.
//
// Rules may be installed and removed while traffic is in flight; the
// injector is safe for concurrent use.
package faults

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"mantle/internal/netsim"
	"mantle/internal/types"
)

// edge is a directed src→dst pair. Empty strings are legal endpoint
// names (callers that do not name themselves, e.g. proxies).
type edge struct{ src, dst string }

// partition is one symmetric split: traffic between sides a and b is
// lost. Membership is by node name.
type partition struct {
	id   int
	a, b map[string]bool
}

func (p *partition) cuts(src, dst string) bool {
	return (p.a[src] && p.b[dst]) || (p.b[src] && p.a[dst])
}

// Stats are the injector's delivery counters.
type Stats struct {
	// Delivered counts messages that passed every rule.
	Delivered int64
	// Dropped counts messages lost to drop rules, blackholes, or
	// partitions.
	Dropped int64
	// Delayed counts messages that incurred extra injected latency.
	Delayed int64
}

// Injector is a deterministic fault rule set. It implements
// netsim.FaultHook. The zero value is not usable; create injectors with
// New.
type Injector struct {
	seed int64

	mu         sync.Mutex
	rng        *rand.Rand
	dropAll    float64
	drops      map[edge]float64
	delays     map[edge]time.Duration
	blackholed map[string]bool
	partitions []*partition
	nextPartID int

	delivered atomic.Int64
	dropped   atomic.Int64
	delayed   atomic.Int64
}

var _ netsim.FaultHook = (*Injector)(nil)

// New creates an injector whose probabilistic rules draw from the given
// seed. Seed zero selects a fixed default so runs are reproducible by
// default.
func New(seed int64) *Injector {
	if seed == 0 {
		seed = 42
	}
	return &Injector{
		seed:       seed,
		rng:        rand.New(rand.NewSource(seed)),
		drops:      make(map[edge]float64),
		delays:     make(map[edge]time.Duration),
		blackholed: make(map[string]bool),
	}
}

// Seed returns the seed the injector's randomness derives from; failure
// messages include it so CI runs reproduce locally.
func (i *Injector) Seed() int64 { return i.seed }

// Attach installs the injector on the fabric and on any nodes given, so
// deliveries (Fabric.RoundTrip/Deliver) and executions (Node.Exec) both
// consult it.
func (i *Injector) Attach(f *netsim.Fabric, nodes ...*netsim.Node) {
	f.SetFaults(i)
	for _, n := range nodes {
		n.SetFaults(i)
	}
}

// DropEdge loses each message on the directed edge src→dst with
// probability p (clamped to [0,1]). p = 0 removes the rule.
func (i *Injector) DropEdge(src, dst string, p float64) {
	i.mu.Lock()
	defer i.mu.Unlock()
	if p <= 0 {
		delete(i.drops, edge{src, dst})
		return
	}
	i.drops[edge{src, dst}] = min(p, 1)
}

// DropAll loses every message, on any edge, with probability p — the
// lossy-network baseline.
func (i *Injector) DropAll(p float64) {
	i.mu.Lock()
	defer i.mu.Unlock()
	i.dropAll = min(max(p, 0), 1)
}

// DelayEdge adds d of extra latency to messages on the directed edge.
// d <= 0 removes the rule.
func (i *Injector) DelayEdge(src, dst string, d time.Duration) {
	i.mu.Lock()
	defer i.mu.Unlock()
	if d <= 0 {
		delete(i.delays, edge{src, dst})
		return
	}
	i.delays[edge{src, dst}] = d
}

// Blackhole makes the named node unreachable: every message to or from
// it is lost and Node.Exec refuses work, until Restore.
func (i *Injector) Blackhole(node string) {
	i.mu.Lock()
	defer i.mu.Unlock()
	i.blackholed[node] = true
}

// Restore lifts a blackhole.
func (i *Injector) Restore(node string) {
	i.mu.Lock()
	defer i.mu.Unlock()
	delete(i.blackholed, node)
}

// Partition installs a symmetric partition between node sets a and b and
// returns its id for Heal. Nodes in neither set reach both sides.
func (i *Injector) Partition(a, b []string) int {
	p := &partition{a: make(map[string]bool, len(a)), b: make(map[string]bool, len(b))}
	for _, n := range a {
		p.a[n] = true
	}
	for _, n := range b {
		p.b[n] = true
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	p.id = i.nextPartID
	i.nextPartID++
	i.partitions = append(i.partitions, p)
	return p.id
}

// SplitAll partitions every listed node from every other listed node (a
// full mesh split: no two of them can communicate). Returns the ids of
// the installed pairwise partitions.
func (i *Injector) SplitAll(nodes []string) []int {
	ids := make([]int, 0, len(nodes)*(len(nodes)-1)/2)
	for x := 0; x < len(nodes); x++ {
		for y := x + 1; y < len(nodes); y++ {
			ids = append(ids, i.Partition([]string{nodes[x]}, []string{nodes[y]}))
		}
	}
	return ids
}

// Heal removes the partition with the given id.
func (i *Injector) Heal(id int) {
	i.mu.Lock()
	defer i.mu.Unlock()
	for k, p := range i.partitions {
		if p.id == id {
			i.partitions = append(i.partitions[:k], i.partitions[k+1:]...)
			return
		}
	}
}

// HealAll removes every partition.
func (i *Injector) HealAll() {
	i.mu.Lock()
	defer i.mu.Unlock()
	i.partitions = nil
}

// Clear removes every rule (drops, delays, blackholes, partitions),
// returning the fabric to fault-free delivery.
func (i *Injector) Clear() {
	i.mu.Lock()
	defer i.mu.Unlock()
	i.dropAll = 0
	i.drops = make(map[edge]float64)
	i.delays = make(map[edge]time.Duration)
	i.blackholed = make(map[string]bool)
	i.partitions = nil
}

// Schedule runs fn(i) after d — a convenience for scripting fault
// timelines ("partition at t=2s, heal at t=5s") inside tests. The
// returned timer may be stopped to cancel.
func (i *Injector) Schedule(d time.Duration, fn func(*Injector)) *time.Timer {
	return time.AfterFunc(d, func() { fn(i) })
}

// Stats returns the delivery counters.
func (i *Injector) Stats() Stats {
	return Stats{
		Delivered: i.delivered.Load(),
		Dropped:   i.dropped.Load(),
		Delayed:   i.delayed.Load(),
	}
}

// Edge implements netsim.FaultHook: it is consulted once per message
// round trip between src and dst, returning any extra injected latency
// and a non-nil error (wrapping types.ErrUnreachable) when the message
// is lost.
func (i *Injector) Edge(src, dst string) (time.Duration, error) {
	i.mu.Lock()
	if i.blackholed[src] || i.blackholed[dst] {
		i.mu.Unlock()
		i.dropped.Add(1)
		return 0, fmt.Errorf("faults: %s->%s blackholed (seed %d): %w",
			src, dst, i.seed, types.ErrUnreachable)
	}
	for _, p := range i.partitions {
		if p.cuts(src, dst) {
			i.mu.Unlock()
			i.dropped.Add(1)
			return 0, fmt.Errorf("faults: %s->%s partitioned (seed %d): %w",
				src, dst, i.seed, types.ErrUnreachable)
		}
	}
	p := i.dropAll
	if ep, ok := i.drops[edge{src, dst}]; ok && ep > p {
		p = ep
	}
	if p > 0 && i.rng.Float64() < p {
		i.mu.Unlock()
		i.dropped.Add(1)
		return 0, fmt.Errorf("faults: %s->%s dropped (p=%.2f, seed %d): %w",
			src, dst, p, i.seed, types.ErrUnreachable)
	}
	delay := i.delays[edge{src, dst}]
	i.mu.Unlock()
	i.delivered.Add(1)
	if delay > 0 {
		i.delayed.Add(1)
	}
	return delay, nil
}

// Down implements netsim.FaultHook: a blackholed node refuses local
// execution.
func (i *Injector) Down(node string) error {
	i.mu.Lock()
	defer i.mu.Unlock()
	if i.blackholed[node] {
		return fmt.Errorf("faults: node %s blackholed (seed %d): %w",
			node, i.seed, types.ErrUnreachable)
	}
	return nil
}
