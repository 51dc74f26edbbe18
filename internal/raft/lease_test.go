package raft

import (
	"errors"
	"fmt"
	"slices"
	"testing"
	"time"

	"mantle/internal/clock"
	"mantle/internal/faults"
)

func noopRead() error { return nil }

// A leader cut off from the majority must not serve a read that misses a
// write the majority has since committed and acknowledged: its read
// either fails or sees the write. The old leader has served reads, so it
// holds a lease when the cut comes; the majority elects as soon as its
// voters will vote (a campaign forced every millisecond), long before
// check-quorum (2× the election timeout) steps the old leader down.
// Without leases the old leader answered from its own commit index.
func TestMinorityLeaderReadSeesAckedWrites(t *testing.T) {
	inj := faults.New(1)
	rs, recs := faultGroup(t, inj, 3, 0, func(c *Config) {
		c.ElectionTimeout = 200 * time.Millisecond
		c.HeartbeatInterval = 20 * time.Millisecond
	})
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("%s (injector seed %d)", fmt.Sprintf(format, args...), inj.Seed())
	}
	old, err := WaitLeader(rs, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := old.Propose([]byte("pre")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := old.ConsistentRead(noopRead); err != nil {
			fail("read on the leader before the cut: %v", err)
		}
	}
	oldRec := recs[slices.Index(rs, old)]
	var majority []*Raft
	for _, r := range rs {
		if r != old {
			majority = append(majority, r)
		}
	}

	cut := inj.Partition([]string{old.ID()}, ids(majority, nil))
	var next *Raft
	if !waitUntil(5*time.Second, func() bool { next = hurryElection(majority); return next != nil }) {
		fail("the majority never elected")
	}
	if _, err := next.Propose([]byte("post")); err != nil {
		fail("majority write: %v", err)
	}

	errStale := errors.New("stale")
	err = old.ConsistentRead(func() error {
		if !slices.Contains(oldRec.snapshot(), "post") {
			return errStale
		}
		return nil
	})
	if errors.Is(err, errStale) {
		fail("the cut-off leader (role %v) served a read that misses the majority's acknowledged write", old.Role())
	}
	inj.Heal(cut)
	if !waitUntil(3*time.Second, func() bool { return slices.Contains(oldRec.snapshot(), "post") }) {
		fail("the old leader never caught up after the heal")
	}
}

// hurryElection returns the leader among voters, if one of them leads;
// otherwise it has the first campaign now, which it does as soon as it
// will vote (startElectionLocked), and returns nil.
func hurryElection(voters []*Raft) *Raft {
	for _, r := range voters {
		if r.Role() == Leader {
			return r
		}
	}
	c := voters[0]
	c.mu.Lock()
	c.startElectionLocked()
	c.mu.Unlock()
	return nil
}

// The warm-lease contract: a follower or learner inside its read grant
// serves ConsistentRead with no message to the leader and no allocation.
// The first read's ReadIndex reply carries the grant; the next thousand
// reads move the replica's edge to the leader by nothing.
func TestWarmLeaseReadNoTripNoAllocs(t *testing.T) {
	rs, _ := newTestGroup(t, 3, 1, slowHeartbeat)
	leader, err := WaitLeader(rs, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := leader.Propose([]byte("w")); err != nil {
		t.Fatal(err)
	}
	for _, r := range rs {
		if r == leader {
			continue
		}
		if !waitUntil(time.Second, func() bool { return knowsLeader(r, leader) }) {
			t.Fatalf("%s never heard from the leader", r.ID())
		}
		if err := r.ConsistentRead(noopRead); err != nil {
			t.Fatalf("%s: first read: %v", r.ID(), err)
		}
		edge := r.cfg.Fabric.Edge(r.ID(), leader.ID())
		trips := edge.Trips.Load()
		leased, rounds := r.metrics.Reads()
		const reads = 1000
		allocs := testing.AllocsPerRun(reads, func() {
			if err := r.ConsistentRead(noopRead); err != nil {
				t.Fatal(err)
			}
		})
		if got := edge.Trips.Load() - trips; got != 0 {
			t.Errorf("%s: %d warm reads took %d trips to the leader, want 0", r.ID(), reads, got)
		}
		if allocs != 0 {
			t.Errorf("%s: a warm lease read allocates %.1f times, want 0", r.ID(), allocs)
		}
		// AllocsPerRun makes one warm-up call.
		if l, n := r.metrics.Reads(); l-leased != reads+1 || n != rounds {
			t.Errorf("%s: %d lease reads and %d rounds, want %d and 0", r.ID(), l-leased, n-rounds, reads+1)
		}
	}
}

// The commit rule: while a read grant is live the leader commits nothing
// its holder has not acked, so a holder that goes silent holds a write
// back until its grant expires, and no longer: one lease at most.
func TestSilentLeaseHolderDelaysCommitOneLease(t *testing.T) {
	inj := faults.New(1)
	rs, recs := faultGroup(t, inj, 3, 1, func(c *Config) {
		c.ElectionTimeout = 200 * time.Millisecond
		c.HeartbeatInterval = 20 * time.Millisecond
	})
	leader, err := WaitLeader(rs, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := leader.Propose([]byte("w")); err != nil {
		t.Fatal(err)
	}
	learner := rs[3]
	// Reads make the learner ask for grants; wait until it holds one.
	if !waitUntil(2*time.Second, func() bool {
		if err := learner.ConsistentRead(noopRead); err != nil {
			t.Fatal(err)
		}
		leader.mu.Lock()
		defer leader.mu.Unlock()
		return leader.peers[learner.ID()].granted > clock.Mono()
	}) {
		t.Fatal("the learner never got a read grant")
	}
	inj.Partition([]string{learner.ID()}, ids(rs, learner))
	time.Sleep(2 * leader.cfg.HeartbeatInterval) // the last grant in flight is sent or lost
	leader.mu.Lock()
	until := leader.peers[learner.ID()].granted
	leader.mu.Unlock()

	start := time.Now()
	if _, err := leader.Propose([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if now := clock.Mono(); now < until {
		t.Fatalf("the write committed %v before the silent holder's grant expired", until-now)
	}
	if d, most := time.Since(start), leader.leaseLen()+time.Second; d > most {
		t.Fatalf("the write took %v to commit past a silent holder, want at most %v", d, most)
	}
	if slices.Contains(recs[3].snapshot(), "x") {
		t.Fatal("the cut-off learner applied the write")
	}
}
