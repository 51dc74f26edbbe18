package netsim

import (
	"bytes"
	"strings"
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
