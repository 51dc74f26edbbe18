package raft

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"mantle/internal/faults"
	"mantle/internal/netsim"
	"mantle/internal/types"
)

// faultGroup is newTestGroup on a fabric with inj attached.
func faultGroup(t *testing.T, inj *faults.Injector, voters, learners int, mutate func(*Config)) ([]*Raft, []*recorder) {
	t.Helper()
	fabric := netsim.NewLocalFabric()
	inj.Attach(fabric)
	return newTestGroup(t, voters, learners, func(c *Config) {
		c.Fabric = fabric
		mutate(c)
	})
}

// newPartitionGroup builds a 3-voter group on a fabric with the given
// fault injector attached. Raft IDs are r0..r2.
func newPartitionGroup(t *testing.T, inj *faults.Injector) ([]*Raft, []*recorder) {
	t.Helper()
	return faultGroup(t, inj, 3, 0, func(c *Config) { c.ElectionTimeout = 40 * time.Millisecond })
}

func ids(rs []*Raft, except *Raft) []string {
	var out []string
	for _, r := range rs {
		if r != except {
			out = append(out, r.ID())
		}
	}
	return out
}

// TestIsolatedLeaderStepsDown exercises what the crash-only suite cannot:
// a leader cut off from the quorum (but still running) must step down via
// check-quorum, the majority side must elect a fresh leader, and after the
// partition heals the group must converge on a single log.
func TestIsolatedLeaderStepsDown(t *testing.T) {
	inj := faults.New(1)
	rs, recs := newPartitionGroup(t, inj)
	leader, err := WaitLeader(rs, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := leader.Propose([]byte("pre")); err != nil {
		t.Fatal(err)
	}

	// Cut the leader away from both followers.
	pid := inj.Partition([]string{leader.ID()}, ids(rs, leader))

	// The old leader must notice it cannot reach a quorum and step down
	// within the check-quorum window (2× election timeout) plus slack.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if role, _, _ := leader.Status(); role != Leader {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("isolated leader still leader (injector seed %d)", inj.Seed())
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The majority side elects a new leader that accepts writes.
	var majority []*Raft
	for _, r := range rs {
		if r != leader {
			majority = append(majority, r)
		}
	}
	newLeader, err := WaitLeader(majority, 2*time.Second)
	if err != nil {
		t.Fatalf("majority did not elect (injector seed %d): %v", inj.Seed(), err)
	}
	if _, err := newLeader.Propose([]byte("during")); err != nil {
		t.Fatalf("majority write failed (injector seed %d): %v", inj.Seed(), err)
	}

	// Writes on the deposed leader fail fast with a typed error rather
	// than hanging.
	if _, err := leader.ProposeTimeout([]byte("minority"), 100*time.Millisecond); err == nil {
		t.Fatalf("minority write succeeded (injector seed %d)", inj.Seed())
	} else if !errors.Is(err, types.ErrNotLeader) && !errors.Is(err, types.ErrTimeout) {
		t.Fatalf("minority write err = %v", err)
	}

	// Heal: the group converges — one leader, all replicas apply both
	// committed entries in order.
	inj.Heal(pid)
	if _, err := WaitLeader(rs, 3*time.Second); err != nil {
		t.Fatalf("no leader after heal (injector seed %d): %v", inj.Seed(), err)
	}
	deadline = time.Now().Add(3 * time.Second)
	for i, rec := range recs {
		for {
			got := rec.snapshot()
			if len(got) >= 2 && got[0] == "pre" && got[1] == "during" {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("replica %d state %v after heal (injector seed %d)",
					i, got, inj.Seed())
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
}

// TestDeposedLeaderFailsDiscardedProposal: a leader cut off from the
// quorum accepts a proposal it can never commit; the majority's new leader
// commits its own entries over the same indices. Once the partition heals
// and the old leader's log is overwritten, the proposal must fail — not
// be acknowledged as committed because some entry applied at its index.
func TestDeposedLeaderFailsDiscardedProposal(t *testing.T) {
	inj := faults.New(4)
	rs, recs := newPartitionGroup(t, inj)
	leader, err := WaitLeader(rs, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := leader.Propose([]byte("pre")); err != nil {
		t.Fatal(err)
	}
	pid := inj.Partition([]string{leader.ID()}, ids(rs, leader))
	minority := make(chan error, 1)
	go func() {
		_, err := leader.ProposeTimeout([]byte("minority"), 5*time.Second)
		minority <- err
	}()

	var majority []*Raft
	for _, r := range rs {
		if r != leader {
			majority = append(majority, r)
		}
	}
	newLeader, err := WaitLeader(majority, 2*time.Second)
	if err != nil {
		t.Fatalf("majority did not elect (injector seed %d): %v", inj.Seed(), err)
	}
	if _, err := newLeader.Propose([]byte("during")); err != nil {
		t.Fatalf("majority write failed (injector seed %d): %v", inj.Seed(), err)
	}
	inj.Heal(pid)

	if err := <-minority; !errors.Is(err, types.ErrNotLeader) {
		t.Fatalf("discarded proposal returned %v, want ErrNotLeader (injector seed %d)", err, inj.Seed())
	}
	deadline := time.Now().Add(3 * time.Second)
	for i, rec := range recs {
		for {
			got := rec.snapshot()
			if fmt.Sprint(got) == "[pre during]" {
				break
			}
			if len(got) > 2 || time.Now().After(deadline) {
				t.Fatalf("replica %d applied %v, want [pre during] (injector seed %d)", i, got, inj.Seed())
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
}

// TestNoQuorumProposalsFailFast: with every voter partitioned from every
// other, no writes can commit anywhere; bounded proposals must fail with
// ErrTimeout (or ErrNotLeader once the leader steps down) instead of
// hanging, and healing restores write availability.
func TestNoQuorumProposalsFailFast(t *testing.T) {
	inj := faults.New(2)
	rs, _ := newPartitionGroup(t, inj)
	leader, err := WaitLeader(rs, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	inj.SplitAll(ids(rs, nil))

	start := time.Now()
	_, perr := leader.ProposeTimeout([]byte("x"), 150*time.Millisecond)
	elapsed := time.Since(start)
	if perr == nil {
		t.Fatalf("quorum-less proposal committed (injector seed %d)", inj.Seed())
	}
	if !errors.Is(perr, types.ErrTimeout) && !errors.Is(perr, types.ErrNotLeader) {
		t.Fatalf("proposal err = %v (injector seed %d)", perr, inj.Seed())
	}
	if elapsed > 2*time.Second {
		t.Fatalf("proposal hung %v before failing (injector seed %d)", elapsed, inj.Seed())
	}

	// Every leader eventually steps down (check-quorum).
	deadline := time.Now().Add(2 * time.Second)
	for {
		leaders := 0
		for _, r := range rs {
			if role, _, _ := r.Status(); role == Leader {
				leaders++
			}
		}
		if leaders == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d leader(s) survive total partition (injector seed %d)",
				leaders, inj.Seed())
		}
		time.Sleep(5 * time.Millisecond)
	}

	inj.HealAll()
	nl, err := WaitLeader(rs, 3*time.Second)
	if err != nil {
		t.Fatalf("no leader after heal (injector seed %d): %v", inj.Seed(), err)
	}
	if _, err := nl.ProposeTimeout([]byte("post-heal"), 2*time.Second); err != nil {
		t.Fatalf("post-heal write failed (injector seed %d): %v", inj.Seed(), err)
	}
}

// TestLossyFabricStillCommits: under heavy seeded message loss (30% on
// every edge) the group stays available — elections and replication
// retry through the drops — and the result is deterministic enough to
// commit every proposal.
func TestLossyFabricStillCommits(t *testing.T) {
	inj := faults.New(3)
	inj.DropAll(0.3)
	rs, recs := newPartitionGroup(t, inj)
	if _, err := WaitLeader(rs, 5*time.Second); err != nil {
		t.Fatalf("no leader on lossy fabric (injector seed %d): %v", inj.Seed(), err)
	}
	const n = 20
	committed := 0
	for i := 0; i < n; i++ {
		// Leadership may churn under loss; chase it like the proxy layer.
		for attempt := 0; attempt < 200; attempt++ {
			l, err := WaitLeader(rs, time.Second)
			if err != nil {
				continue
			}
			if _, err := l.ProposeTimeout([]byte(fmt.Sprintf("c%d", i)), time.Second); err == nil {
				committed++
				break
			}
			time.Sleep(time.Millisecond)
		}
	}
	if committed != n {
		t.Fatalf("committed %d/%d on lossy fabric (injector seed %d)", committed, n, inj.Seed())
	}
	// Clear the faults; every replica converges on at least n applied
	// commands (duplicates possible — proposals retried across churn).
	inj.Clear()
	deadline := time.Now().Add(5 * time.Second)
	for i, rec := range recs {
		for len(rec.snapshot()) < n && time.Now().Before(deadline) {
			time.Sleep(5 * time.Millisecond)
		}
		if got := len(rec.snapshot()); got < n {
			t.Fatalf("replica %d applied %d < %d (injector seed %d)", i, got, n, inj.Seed())
		}
	}
}
