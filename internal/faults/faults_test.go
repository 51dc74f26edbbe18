package faults

import (
	"errors"
	"strings"
	"testing"
	"time"

	"mantle/internal/netsim"
	"mantle/internal/rpc"
	"mantle/internal/types"
)

func TestDropEdgeIsDeterministic(t *testing.T) {
	// Two injectors with the same seed lose exactly the same messages.
	outcomes := func(seed int64) []bool {
		inj := New(seed)
		inj.DropEdge("a", "b", 0.5)
		out := make([]bool, 200)
		for k := range out {
			_, err := inj.Edge("a", "b")
			out[k] = err != nil
		}
		return out
	}
	x, y := outcomes(7), outcomes(7)
	drops := 0
	for k := range x {
		if x[k] != y[k] {
			t.Fatalf("seed 7 diverged at message %d", k)
		}
		if x[k] {
			drops++
		}
	}
	if drops < 50 || drops > 150 {
		t.Fatalf("p=0.5 dropped %d/200 (seed 7)", drops)
	}
	// The reverse direction has no rule.
	if _, err := New(7).Edge("b", "a"); err != nil {
		t.Fatalf("unruled edge dropped: %v", err)
	}
}

func TestLossErrorsCarrySeedAndUnreachable(t *testing.T) {
	inj := New(1234)
	inj.Blackhole("n1")
	_, err := inj.Edge("n0", "n1")
	if !errors.Is(err, types.ErrUnreachable) {
		t.Fatalf("blackhole err = %v", err)
	}
	if !strings.Contains(err.Error(), "seed 1234") {
		t.Fatalf("error does not name the seed: %v", err)
	}
	if _, err := inj.Edge("n1", "n0"); !errors.Is(err, types.ErrUnreachable) {
		t.Fatalf("blackhole outbound err = %v", err)
	}
	inj.Restore("n1")
	if _, err := inj.Edge("n0", "n1"); err != nil {
		t.Fatalf("post-restore edge: %v", err)
	}
	if _, err := inj.Edge("n1", "n0"); err != nil {
		t.Fatalf("post-restore outbound edge: %v", err)
	}
}

func TestPartitionIsSymmetricAndHeals(t *testing.T) {
	inj := New(0)
	id := inj.Partition([]string{"a", "b"}, []string{"c"})
	for _, e := range [][2]string{{"a", "c"}, {"c", "a"}, {"b", "c"}, {"c", "b"}} {
		if _, err := inj.Edge(e[0], e[1]); !errors.Is(err, types.ErrUnreachable) {
			t.Fatalf("edge %v not cut: %v", e, err)
		}
	}
	// Same-side and outside traffic flows.
	for _, e := range [][2]string{{"a", "b"}, {"proxy", "a"}, {"proxy", "c"}, {"", "c"}} {
		if _, err := inj.Edge(e[0], e[1]); err != nil {
			t.Fatalf("edge %v cut: %v", e, err)
		}
	}
	inj.Heal(id)
	if _, err := inj.Edge("a", "c"); err != nil {
		t.Fatalf("healed edge still cut: %v", err)
	}
}

func TestSplitAllCutsEveryPair(t *testing.T) {
	inj := New(0)
	ids := inj.SplitAll([]string{"x", "y", "z"})
	if len(ids) != 3 {
		t.Fatalf("SplitAll installed %d partitions", len(ids))
	}
	for _, e := range [][2]string{{"x", "y"}, {"y", "z"}, {"z", "x"}} {
		if _, err := inj.Edge(e[0], e[1]); !errors.Is(err, types.ErrUnreachable) {
			t.Fatalf("pair %v not cut", e)
		}
	}
	inj.HealAll()
	if _, err := inj.Edge("x", "z"); err != nil {
		t.Fatalf("HealAll left %v", err)
	}
}

func TestDelayEdgeAddsLatency(t *testing.T) {
	inj := New(0)
	inj.DelayEdge("a", "b", 3*time.Millisecond)
	extra, err := inj.Edge("a", "b")
	if err != nil || extra != 3*time.Millisecond {
		t.Fatalf("extra = %v err = %v", extra, err)
	}
	if extra, _ := inj.Edge("b", "a"); extra != 0 {
		t.Fatalf("reverse edge delayed by %v", extra)
	}
	s := inj.Stats()
	if s.Delayed != 1 || s.Delivered != 2 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestAttachGovernsFabricAndNodes(t *testing.T) {
	fabric := netsim.NewFabric(netsim.Config{})
	inj := New(0)
	inj.Attach(fabric)
	inj.Blackhole("srv")
	// A blackholed node is cut in both directions: nothing reaches it,
	// and nothing it sends arrives.
	if err := fabric.Deliver("proxy", "srv"); !errors.Is(err, types.ErrUnreachable) {
		t.Fatalf("fabric delivered to blackholed node: %v", err)
	}
	if err := fabric.Deliver("srv", "proxy"); !errors.Is(err, types.ErrUnreachable) {
		t.Fatalf("fabric delivered from blackholed node: %v", err)
	}
	inj.Restore("srv")
	for _, e := range [][2]string{{"proxy", "srv"}, {"srv", "proxy"}} {
		if err := fabric.Deliver(e[0], e[1]); err != nil {
			t.Fatalf("restored edge %v refused: %v", e, err)
		}
	}
	// Dropped deliveries still count a fabric round trip: the sender
	// waits out the loss.
	before := fabric.RPCs()
	inj.Blackhole("srv")
	_ = fabric.Deliver("proxy", "srv")
	if fabric.RPCs() != before+1 {
		t.Fatalf("lost delivery did not charge a round trip")
	}
}

func TestDropAllAndClear(t *testing.T) {
	inj := New(99)
	inj.DropAll(1)
	if _, err := inj.Edge("", ""); !errors.Is(err, types.ErrUnreachable) {
		t.Fatal("DropAll(1) delivered")
	}
	inj.Clear()
	if _, err := inj.Edge("", ""); err != nil {
		t.Fatalf("Clear left rules: %v", err)
	}
}

func TestScheduleRunsRule(t *testing.T) {
	inj := New(0)
	done := make(chan struct{})
	inj.Schedule(time.Millisecond, func(i *Injector) {
		i.Blackhole("late")
		close(done)
	})
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("scheduled rule never ran")
	}
	if _, err := inj.Edge("", "late"); !errors.Is(err, types.ErrUnreachable) {
		t.Fatal("scheduled blackhole not installed")
	}
}

// fakeProc is a Crashable whose restart can be made to fail.
type fakeProc struct {
	id         string
	up         bool
	restartErr error
}

func (p *fakeProc) ID() string { return p.id }
func (p *fakeProc) Crash()     { p.up = false }
func (p *fakeProc) Restart() error {
	if p.restartErr != nil {
		return p.restartErr
	}
	p.up = true
	return nil
}

// TestCrashIsDownAtTheFabricEdge: after Crash a call to the process's
// node is lost at the edge and never executes; a failed Restart leaves
// it blackholed, a successful one lifts the blackhole.
func TestCrashIsDownAtTheFabricEdge(t *testing.T) {
	fabric := netsim.NewLocalFabric()
	inj := New(5)
	inj.Attach(fabric)
	node := netsim.NewNode("shard-0", 0)
	caller := rpc.NewCaller(fabric)
	p := &fakeProc{id: node.Name(), up: true}
	executed := 0
	call := func() error { return caller.Call(node, 0, func() error { executed++; return nil }) }

	inj.Crash(p)
	if p.up {
		t.Fatal("Crash did not crash the process")
	}
	if err := call(); !errors.Is(err, types.ErrUnreachable) || executed != 0 {
		t.Fatalf("call to a crashed process = %v, executed %d times", err, executed)
	}
	p.restartErr = errors.New("no log")
	if err := inj.Restart(p); err == nil {
		t.Fatal("failed restart reported success")
	}
	if err := call(); !errors.Is(err, types.ErrUnreachable) || executed != 0 {
		t.Fatalf("call after a failed restart = %v, executed %d times", err, executed)
	}
	p.restartErr = nil
	if err := inj.Restart(p); err != nil || !p.up {
		t.Fatalf("restart = %v (up=%v)", err, p.up)
	}
	if err := call(); err != nil || executed != 1 {
		t.Fatalf("call after restart = %v, executed %d times", err, executed)
	}
}
