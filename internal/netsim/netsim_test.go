package netsim

import (
	"sync"
	"testing"
	"time"
)

func TestZeroFabricIsFree(t *testing.T) {
	f := NewLocalFabric()
	start := time.Now()
	for i := 0; i < 1000; i++ {
		f.RoundTrip()
	}
	if elapsed := time.Since(start); elapsed > 50*time.Millisecond {
		t.Fatalf("zero-RTT fabric took %v for 1000 round trips", elapsed)
	}
	if got := f.RPCs(); got != 1000 {
		t.Fatalf("RPCs = %d, want 1000", got)
	}
	if got := f.ResetRPCs(); got != 1000 {
		t.Fatalf("ResetRPCs = %d, want 1000", got)
	}
	if got := f.RPCs(); got != 0 {
		t.Fatalf("RPCs after reset = %d, want 0", got)
	}
}

func TestRoundTripChargesRTT(t *testing.T) {
	f := NewFabric(Config{RTT: 2 * time.Millisecond})
	start := time.Now()
	for i := 0; i < 5; i++ {
		f.RoundTrip()
	}
	if elapsed := time.Since(start); elapsed < 10*time.Millisecond {
		t.Fatalf("5 round trips at 2ms took only %v", elapsed)
	}
}

func TestNodeThroughputCap(t *testing.T) {
	// 4 workers at 1ms per op => 4000 ops/s. Drive it hard from 32
	// goroutines for 200 ops and check wall time is at least the fluid
	// lower bound.
	n := NewNode("m1", 4)
	const ops = 200
	cost := time.Millisecond
	var wg sync.WaitGroup
	start := time.Now()
	for g := 0; g < 32; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < ops/32; i++ {
				if err := n.Exec(cost, func() error { return nil }); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	// 192 ops at 4/ms-per-op = 48ms minimum.
	if elapsed < 40*time.Millisecond {
		t.Fatalf("saturated node finished in %v, model not enforcing capacity", elapsed)
	}
	if n.Ops() != (ops/32)*32 {
		t.Fatalf("ops = %d", n.Ops())
	}
	if n.BusyTime() != time.Duration(n.Ops())*cost {
		t.Fatalf("busy = %v", n.BusyTime())
	}
}

func TestUnlimitedNodeIsFree(t *testing.T) {
	n := NewNode("free", 0)
	start := time.Now()
	for i := 0; i < 1000; i++ {
		_ = n.Exec(time.Millisecond, func() error { return nil })
	}
	if elapsed := time.Since(start); elapsed > 50*time.Millisecond {
		t.Fatalf("unlimited node took %v", elapsed)
	}
}

func TestUnsaturatedNodeAddsLittleLatency(t *testing.T) {
	n := NewNode("m1", 8)
	// A single sequential caller at 1ms cost on 8 workers advances the
	// timeline 125µs per op, so the first op waits ~0.
	start := time.Now()
	_ = n.Exec(time.Millisecond, func() error { return nil })
	if elapsed := time.Since(start); elapsed > 10*time.Millisecond {
		t.Fatalf("first op on idle node waited %v", elapsed)
	}
}

func TestExecPropagatesError(t *testing.T) {
	n := NewNode("m1", 1)
	sentinel := func() error { return errSentinel }
	if err := n.Exec(0, sentinel); err != errSentinel {
		t.Fatalf("err = %v", err)
	}
}

var errSentinel = &sentinelError{}

type sentinelError struct{}

func (*sentinelError) Error() string { return "sentinel" }

func TestUtilization(t *testing.T) {
	n := NewNode("u", 2)
	start := time.Now()
	for i := 0; i < 10; i++ {
		_ = n.Exec(10*time.Millisecond, func() error { return nil })
	}
	u := n.Utilization(start)
	if u <= 0 || u > 1.5 {
		t.Fatalf("utilization = %f", u)
	}
	// Unlimited nodes report zero.
	free := NewNode("free", 0)
	_ = free.Exec(time.Millisecond, func() error { return nil })
	if free.Utilization(start) != 0 {
		t.Fatal("unlimited node utilization")
	}
	if free.Utilization(time.Now().Add(time.Hour)) != 0 {
		t.Fatal("future reference instant")
	}
}

// hookStub is a minimal FaultHook: it cuts one directed edge and adds a
// fixed delay on another.
type hookStub struct {
	cutSrc, cutDst string
	delayDst       string
	delay          time.Duration
	err            error
}

func (h *hookStub) Edge(src, dst string) (time.Duration, error) {
	if src == h.cutSrc && dst == h.cutDst {
		return 0, h.err
	}
	if dst == h.delayDst {
		return h.delay, nil
	}
	return 0, nil
}

func TestDeliverConsultsHook(t *testing.T) {
	f := NewLocalFabric()
	stub := &hookStub{cutSrc: "a", cutDst: "b", err: errSentinel}
	var hook FaultHook = stub
	f.SetFaults(hook)
	if err := f.Deliver("a", "b"); err != errSentinel {
		t.Fatalf("cut edge delivered: %v", err)
	}
	if err := f.Deliver("b", "a"); err != nil {
		t.Fatalf("open edge failed: %v", err)
	}
	// Lost messages still count as round trips.
	if got := f.RPCs(); got != 2 {
		t.Fatalf("RPCs = %d, want 2", got)
	}
	// Removing the hook restores unconditional delivery.
	f.SetFaults(nil)
	if f.Faults() != nil {
		t.Fatal("Faults() non-nil after removal")
	}
	if err := f.Deliver("a", "b"); err != nil {
		t.Fatalf("hookless delivery failed: %v", err)
	}
}

func TestDeliverAddsHookDelay(t *testing.T) {
	f := NewLocalFabric() // zero RTT: only the injected delay is charged
	var hook FaultHook = &hookStub{delayDst: "slow", delay: 5 * time.Millisecond}
	f.SetFaults(hook)
	start := time.Now()
	if err := f.Deliver("x", "slow"); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 5*time.Millisecond {
		t.Fatalf("delayed delivery took only %v", elapsed)
	}
	start = time.Now()
	_ = f.Deliver("x", "fast")
	if elapsed := time.Since(start); elapsed > 2*time.Millisecond {
		t.Fatalf("undelayed delivery took %v", elapsed)
	}
}
