package api

import (
	"testing"
	"time"

	"mantle/internal/clock"
	"mantle/internal/netsim"
	"mantle/internal/rpc"
	"mantle/internal/types"
)

func TestTimerPhases(t *testing.T) {
	start := clock.Mono()
	tm := NewTimer()
	time.Sleep(2 * time.Millisecond)
	tm.Phase(types.PhaseLookup)
	// A late wake-up on a loaded host can stretch the 2 ms sleep past the
	// 4 ms one. Keep the execute phase running until it has outlasted the
	// whole lookup window, so the attribution check does not depend on
	// the scheduler.
	lookupMax := clock.Mono() - start
	execStart := clock.Mono()
	time.Sleep(4 * time.Millisecond)
	for clock.Mono()-execStart <= lookupMax {
		time.Sleep(time.Millisecond)
	}
	tm.Phase(types.PhaseExecute)

	caller := rpc.NewCaller(netsim.NewLocalFabric())
	op := caller.Begin()
	_ = op.Call(netsim.NewNode("n", 0), 0, func() error { return nil })

	res := tm.Done(op, 3, types.Entry{ID: 7})
	if res.Phases[types.PhaseLookup] < time.Millisecond {
		t.Fatalf("lookup phase = %v", res.Phases[types.PhaseLookup])
	}
	if res.Phases[types.PhaseExecute] < 2*time.Millisecond {
		t.Fatalf("execute phase = %v", res.Phases[types.PhaseExecute])
	}
	if res.Phases[types.PhaseExecute] <= res.Phases[types.PhaseLookup] {
		t.Fatal("phase attribution wrong")
	}
	if res.RTTs != 1 || res.Retries != 3 || res.Entry.ID != 7 {
		t.Fatalf("res = %+v", res)
	}
	// Total is the sum of phases.
	if res.Phases.Total() != res.Phases[types.PhaseLookup]+res.Phases[types.PhaseExecute] {
		t.Fatal("total mismatch")
	}
}
