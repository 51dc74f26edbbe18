package netsim

import (
	"bytes"
	"cmp"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"mantle/internal/metrics"
)

func TestEdgeRegistry(t *testing.T) {
	f := NewLocalFabric()
	for i := 0; i < 3; i++ {
		_ = f.Deliver("proxy", "idx-0")
	}
	_ = f.Deliver("proxy", "idx-1")
	_ = f.RoundTrip
	edges := f.Edges()
	if e := edges["proxy->idx-0"]; e == nil || e.Trips.Load() != 3 {
		t.Fatalf("edges = %v", edges)
	}
	if e := edges["proxy->idx-1"]; e == nil || e.Trips.Load() != 1 {
		t.Fatalf("edges = %v", edges)
	}
	reg := metrics.NewRegistry()
	f.RegisterMetrics(reg)
	var buf bytes.Buffer
	if err := reg.Write(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"fabric_rpcs 4", `edge_trips{edge="proxy->idx-0"} 3`, `edge_latency_p99_us{edge="proxy->idx-0"}`} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("missing %q:\n%s", want, buf.String())
		}
	}
}

// edgeLines renders reg and keeps the fabric's delivery lines: the edge
// trips, losses and latency count, p50 and max, and fabric_rpcs.
func edgeLines(t *testing.T, reg *metrics.Registry) []string {
	t.Helper()
	var buf bytes.Buffer
	if err := reg.Write(&buf); err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, line := range strings.Split(buf.String(), "\n") {
		for _, p := range []string{"fabric_rpcs", "edge_trips", "edge_losses", "edge_latency_count", "edge_latency_p50_us", "edge_latency_max_us"} {
			if strings.HasPrefix(line, p) {
				out = append(out, line)
			}
		}
	}
	return out
}

// A mix of zero-latency, hook-delayed and hook-dropped deliveries renders
// the same edge lines whether it is delivered by name or on resolved
// links, and the same as a histogram that observed every zero-latency
// delivery as a zero sample would.
func TestLinkAndZeroDeliveryAccounting(t *testing.T) {
	const delay = 200 * time.Microsecond
	hook := &hookStub{cutSrc: "p", cutDst: "lost", delayDst: "slow", delay: delay, err: errSentinel}
	// Deliveries per (src, dst): the hook loses p->lost and delays every
	// delivery to slow; the rest take zero time.
	mix := []struct {
		src, dst string
		n        int
	}{{"p", "fast", 5}, {"p", "slow", 3}, {"p", "lost", 4}, {"", "fast", 2}}
	run := func(deliver func(f *Fabric, src, dst string) error) []string {
		f := NewLocalFabric()
		var h FaultHook = hook
		f.SetFaults(h)
		for _, m := range mix {
			for i := 0; i < m.n; i++ {
				if err := deliver(f, m.src, m.dst); (err != nil) != (m.dst == "lost") {
					t.Fatalf("%s->%s: err = %v", m.src, m.dst, err)
				}
			}
		}
		reg := metrics.NewRegistry()
		f.RegisterMetrics(reg)
		return edgeLines(t, reg)
	}
	byName := run(func(f *Fabric, src, dst string) error { return f.Deliver(src, dst) })
	links := map[[2]string]*Link{}
	byLink := run(func(f *Fabric, src, dst string) error {
		k := [2]string{src, dst}
		if links[k] == nil || links[k].f != f {
			links[k] = f.Link(src, dst)
		}
		return links[k].Deliver()
	})
	if strings.Join(byName, "\n") != strings.Join(byLink, "\n") {
		t.Fatalf("by name:\n%s\nby link:\n%s", strings.Join(byName, "\n"), strings.Join(byLink, "\n"))
	}
	if !slices.Contains(byName, "fabric_rpcs 14") {
		t.Fatalf("fabric_rpcs does not count every delivery:\n%s", strings.Join(byName, "\n"))
	}

	// The reference: every zero-latency delivery observed as a zero sample.
	want := metrics.NewRegistry()
	want.Collect(func(e *metrics.Emitter) {
		e.Int("fabric_rpcs", 14)
		for _, m := range mix {
			edge := cmp.Or(m.src, "client") + "->" + m.dst
			var l metrics.Latency
			for i := 0; i < m.n; i++ {
				if m.dst == "slow" {
					l.Observe(delay)
				} else {
					l.Observe(0)
				}
			}
			lost := 0
			if m.dst == "lost" {
				lost = m.n
			}
			le := e.Label("edge", edge)
			le.Int("edge_trips", int64(m.n))
			le.Int("edge_losses", int64(lost))
			le.Latency("edge_latency", &l)
		}
	})
	if got, w := strings.Join(byName, "\n"), strings.Join(edgeLines(t, want), "\n"); got != w {
		t.Fatalf("edge lines:\n%s\nwant (zeros observed):\n%s", got, w)
	}
}

// TestDeliverAllocs: a delivery on a warm link, and the lookup of a warm
// link cached on its node, allocate nothing.
func TestDeliverAllocs(t *testing.T) {
	f := NewLocalFabric()
	n := NewNode("srv", 0)
	l := n.LinkFrom(f, "proxy")
	if got := testing.AllocsPerRun(1000, func() {
		if n.LinkFrom(f, "proxy") != l {
			t.Fatal("warm link re-resolved")
		}
		if err := l.Deliver(); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Fatalf("warm delivery allocates %.1f times, want 0", got)
	}
}

// Goroutines resolving a node's links for the first time concurrently end
// up sharing one link per source, and every delivery counts on its edge.
func TestLinkFromConcurrent(t *testing.T) {
	f := NewLocalFabric()
	n := NewNode("srv", 0)
	srcs := []string{"proxy", "", "idx-0"}
	const per = 200
	got := make([][]*Link, 8)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				l := n.LinkFrom(f, srcs[(g+i)%len(srcs)])
				got[g] = append(got[g], l)
				if err := l.Deliver(); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()
	bySrc := map[string]*Link{}
	for _, ls := range got {
		for _, l := range ls {
			if prev := bySrc[l.src]; prev != nil && prev != l {
				t.Fatalf("two links from %q", l.src)
			}
			bySrc[l.src] = l
		}
	}
	if len(bySrc) != len(srcs) || len(*n.links.Load()) != len(srcs) {
		t.Fatalf("links = %d cached, %d distinct; want %d", len(*n.links.Load()), len(bySrc), len(srcs))
	}
	var trips int64
	for _, e := range f.Edges() {
		trips += e.Trips.Load()
	}
	if want := int64(len(got) * per); trips != want || f.RPCs() != want {
		t.Fatalf("trips = %d, fabric RPCs = %d, want %d", trips, f.RPCs(), want)
	}
}

// BenchmarkDeliver is one zero-latency delivery: on a link cached on the
// target node, as rpc delivers, and by name.
func BenchmarkDeliver(b *testing.B) {
	f := NewLocalFabric()
	n := NewNode("srv", 0)
	b.Run("link", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = n.LinkFrom(f, "proxy").Deliver()
		}
	})
	b.Run("name", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = f.Deliver("proxy", "srv")
		}
	})
}

func TestNodeQueueWaitHistogram(t *testing.T) {
	// One worker, 2ms per request: the 4th concurrent arrival waits
	// ~6ms, so the queue-wait tail must be visibly non-zero.
	n := NewNode("srv", 1)
	for i := 0; i < 4; i++ {
		n.Charge(2 * time.Millisecond)
	}
	q := n.QueueWait()
	if q.Count() != 4 {
		t.Fatalf("queue wait observations = %d", q.Count())
	}
	if q.Max() < time.Millisecond {
		t.Fatalf("queue wait max = %v, want >= 1ms", q.Max())
	}
	reg := metrics.NewRegistry()
	NewLocalFabric().RegisterMetrics(reg, n)
	var buf bytes.Buffer
	if err := reg.Write(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`node_ops{node="srv"} 4`, `node_queue_wait_p99_us{node="srv"}`, `node_busy_us{node="srv"} 8000`} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("missing %q:\n%s", want, buf.String())
		}
	}
}
