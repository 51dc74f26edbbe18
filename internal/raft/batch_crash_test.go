package raft

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"mantle/internal/types"
)

// TestFollowerCrashMidBatchAtomic crashes a follower while batched,
// pipelined replication is streaming log batches at it. The batch is
// the replication unit, so the crash must never split one: with the
// other follower alive the leader re-replicates whole batches to the
// quorum, every in-flight proposal commits, and the two survivors apply
// an identical sequence with no holes and no duplicates.
func TestFollowerCrashMidBatchAtomic(t *testing.T) { crashMidBatch(t, false) }

// TestFollowerCrashMidBatchAtomicRestart is the same storm with the
// crashed follower restarted from its log while the storm still runs:
// it rejoins, and all three replicas apply the identical sequence, every
// proposal exactly once.
func TestFollowerCrashMidBatchAtomicRestart(t *testing.T) { crashMidBatch(t, true) }

func crashMidBatch(t *testing.T, restart bool) {
	rs, recs := newTestGroup(t, 3, 0, func(c *Config) {
		c.BatchEnabled = true
		c.Pipeline = true
		c.FsyncCost = 100 * time.Microsecond
	})
	leader, err := WaitLeader(rs, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}

	const goroutines, each = 8, 30
	var wg sync.WaitGroup
	crashed := make(chan struct{})
	go func() {
		// Crash one follower while the proposal storm is mid-flight.
		time.Sleep(3 * time.Millisecond)
		for _, r := range rs {
			if r != leader {
				r.Crash()
				if restart {
					time.Sleep(2 * time.Millisecond)
					if err := r.Restart(); err != nil {
						t.Error(err)
					}
				}
				break
			}
		}
		close(crashed)
	}()
	errCh := make(chan error, goroutines*each)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if _, err := leader.ProposeTimeout([]byte(fmt.Sprintf("c%d-%d", g, i)), 5*time.Second); err != nil {
					errCh <- fmt.Errorf("proposal g%d-%d: %w", g, i, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	<-crashed
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	// Every proposal committed; survivors applied identical sequences.
	want := map[string]bool{}
	for g := 0; g < goroutines; g++ {
		for i := 0; i < each; i++ {
			want[fmt.Sprintf("c%d-%d", g, i)] = true
		}
	}
	live := 2
	if restart {
		live = 3
	}
	var survivors [][]string
	deadline := time.Now().Add(3 * time.Second)
	for {
		survivors = survivors[:0]
		for i, r := range rs {
			if !r.Stopped() {
				survivors = append(survivors, recs[i].snapshot())
			}
		}
		done := len(survivors) == live
		for _, ap := range survivors {
			if len(ap) < len(want) {
				done = false
			}
		}
		if done || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if len(survivors) != live {
		t.Fatalf("survivors = %d, want %d", len(survivors), live)
	}
	for si, ap := range survivors {
		seen := map[string]int{}
		for _, cmd := range ap {
			seen[cmd]++
		}
		for cmd := range want {
			if seen[cmd] != 1 {
				t.Fatalf("survivor %d applied %q %d times, want exactly once (applied %d total)",
					si, cmd, seen[cmd], len(ap))
			}
		}
	}
	for _, ap := range survivors[1:] {
		if fmt.Sprint(survivors[0]) != fmt.Sprint(ap) {
			t.Fatal("survivors applied different sequences")
		}
	}
}

// TestQuorumLossFailsWholeBatch kills both followers, then fires a
// concurrent burst of proposals at the batching, pipelined leader. With
// no quorum the whole batch must fail together — every proposal returns
// an error and none of the burst's commands is ever applied.
func TestQuorumLossFailsWholeBatch(t *testing.T) {
	rs, recs := newTestGroup(t, 3, 0, func(c *Config) {
		c.BatchEnabled = true
		c.Pipeline = true
		c.FsyncCost = 100 * time.Microsecond
	})
	leader, err := WaitLeader(rs, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	// Commit one marker so the leader has post-election state.
	if _, err := leader.ProposeTimeout([]byte("marker"), 2*time.Second); err != nil {
		t.Fatal(err)
	}
	var leaderRec *recorder
	for i, r := range rs {
		if r == leader {
			leaderRec = recs[i]
		} else {
			r.Stop()
		}
	}

	const burst = 24
	var wg sync.WaitGroup
	errs := make([]error, burst)
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = leader.ProposeTimeout([]byte(fmt.Sprintf("lost-%d", i)), 300*time.Millisecond)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err == nil {
			t.Fatalf("proposal %d committed without a quorum", i)
		}
		if !errors.Is(err, types.ErrTimeout) && !errors.Is(err, types.ErrNotLeader) {
			t.Fatalf("proposal %d error = %v, want timeout or not-leader", i, err)
		}
	}
	// Give any stray apply a moment, then check nothing from the burst
	// reached the state machine.
	time.Sleep(50 * time.Millisecond)
	for _, cmd := range leaderRec.snapshot() {
		if strings.HasPrefix(cmd, "lost-") {
			t.Fatalf("quorum-less proposal %q was applied", cmd)
		}
	}
}
