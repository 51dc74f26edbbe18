package raft

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"sync"
	"testing"
	"time"

	"mantle/internal/faults"
	"mantle/internal/netsim"
)

// snapRecorder is a Snapshotter state machine: an append-only string list.
type snapRecorder struct {
	recorder
	restores int
}

func (s *snapRecorder) Snapshot() []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(s.applied); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

func (s *snapRecorder) Restore(data []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var applied []string
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&applied); err != nil {
		panic(err)
	}
	s.applied = applied
	s.restores++
}

func newSnapGroup(t *testing.T, voters int, threshold int) ([]*Raft, []*snapRecorder) {
	t.Helper()
	recs := make([]*snapRecorder, voters)
	cfgs := make([]Config, voters)
	for i := 0; i < voters; i++ {
		recs[i] = &snapRecorder{}
		cfgs[i] = Config{
			ID:                fmt.Sprintf("r%d", i),
			ElectionTimeout:   30 * time.Millisecond,
			HeartbeatInterval: 10 * time.Millisecond,
			SnapshotThreshold: threshold,
			BatchEnabled:      true,
			SM:                recs[i],
		}
	}
	rs := NewGroup(cfgs)
	t.Cleanup(func() {
		for _, r := range rs {
			r.Stop()
		}
	})
	checkAtEnd(t, rs, recs)
	return rs, recs
}

func TestLogCompaction(t *testing.T) {
	rs, recs := newSnapGroup(t, 1, 10)
	leader, err := WaitLeader(rs, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if _, err := leader.Propose([]byte(fmt.Sprintf("cmd%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if leader.SnapshotIndex() == 0 {
		t.Fatal("no compaction happened")
	}
	if n := leader.LogLen(); n > 30 {
		t.Fatalf("log holds %d entries after compaction (threshold 10)", n)
	}
	// State machine saw everything exactly once, in order.
	got := recs[0].snapshot()
	if len(got) != 100 {
		t.Fatalf("applied %d commands", len(got))
	}
	for i, cmd := range got {
		if cmd != fmt.Sprintf("cmd%d", i) {
			t.Fatalf("order broken at %d: %s", i, cmd)
		}
	}
	// The group still accepts proposals after compaction.
	if _, err := leader.Propose([]byte("after")); err != nil {
		t.Fatal(err)
	}
}

func TestSnapshotInstallOnLaggingFollower(t *testing.T) {
	rs, recs := newSnapGroup(t, 3, 10)
	leader, err := WaitLeader(rs, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	// Stop one follower, write enough to compact past its position,
	// then "restart" it by... we cannot restart a stopped replica, so
	// instead: pick the follower, let it fall behind by pausing via
	// network? Simplest deterministic route: create a fresh group where
	// one follower joins late is not supported either. Instead verify
	// the snapshot path directly: drive the leader past the threshold,
	// then force a follower's nextIndex below the leader's first index
	// by resetting it, and check the follower converges via
	// InstallSnapshot.
	var follower *Raft
	var followerRec *snapRecorder
	for i, r := range rs {
		if r != leader {
			follower = r
			followerRec = recs[i]
			break
		}
	}
	for i := 0; i < 120; i++ {
		if _, err := leader.Propose([]byte(fmt.Sprintf("cmd%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if leader.SnapshotIndex() == 0 {
		t.Fatal("leader never compacted")
	}
	// Simulate a follower that lost its log: wipe it back to genesis and
	// force the leader to re-replicate from index 1 (now compacted). The
	// wipe holds applyMu, as a snapshot install does: the follower's
	// applier may be between reading an entry and recording it applied,
	// or between the two halves of a compaction, and must not see the log
	// vanish under it.
	follower.applyMu.Lock()
	follower.mu.Lock()
	follower.log = []Entry{{}}
	follower.commitIndex = 0
	follower.lastApplied = 0
	follower.durableIndex = 0
	follower.view = leaderView{}
	follower.mu.Unlock()
	followerRec.mu.Lock()
	followerRec.applied = nil
	followerRec.mu.Unlock()
	follower.applyMu.Unlock()
	leader.mu.Lock()
	leader.nextIndex[follower.id] = 1
	leader.matchIndex[follower.id] = 0
	leader.mu.Unlock()

	// Trigger replication and wait for convergence.
	if _, err := leader.Propose([]byte("poke")); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if len(followerRec.snapshot()) >= 121 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	got := followerRec.snapshot()
	if len(got) < 121 {
		t.Fatalf("follower recovered only %d commands", len(got))
	}
	followerRec.mu.Lock()
	restores := followerRec.restores
	followerRec.mu.Unlock()
	if restores == 0 {
		t.Fatal("follower converged without InstallSnapshot")
	}
	// Suffix order intact: last commands match.
	if got[len(got)-1] != "poke" {
		t.Fatalf("last applied = %s", got[len(got)-1])
	}
}

func TestCompactionPreservesFollowerReads(t *testing.T) {
	rs, _ := newSnapGroup(t, 3, 8)
	leader, err := WaitLeader(rs, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 60; i++ {
		if _, err := leader.Propose([]byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range rs {
		if r == leader {
			continue
		}
		// Right after an election a follower may not know the leader yet;
		// retry as the proxy layer does.
		var err error
		for attempt := 0; attempt < 100; attempt++ {
			if err = r.ConsistentRead(func() error { return nil }); err == nil {
				break
			}
			time.Sleep(5 * time.Millisecond)
		}
		if err != nil {
			t.Fatalf("follower read after compaction: %v", err)
		}
	}
}

// gatedRecorder is a snapRecorder whose Apply parks until the gate is
// closed, so a test can hold a replica's applier in the middle of an
// entry.
type gatedRecorder struct {
	snapRecorder
	entered chan struct{} // signalled (once is enough) when Apply is reached
	gate    chan struct{}
}

func (g *gatedRecorder) Apply(index uint64, cmd []byte) {
	select {
	case g.entered <- struct{}{}:
	default:
	}
	<-g.gate
	g.snapRecorder.Apply(index, cmd)
}

// TestSnapshotInstallDoesNotRaceApplier holds a learner's applier inside
// Apply, partitions the learner until the leader has compacted past it,
// then heals under continuous proposals so an InstallSnapshot arrives
// while the applier is still mid-entry. The install must wait for that
// entry: otherwise the applier rewinds lastApplied below the restored
// log's first index (index out of range) and re-applies a command the
// snapshot already contains.
func TestSnapshotInstallDoesNotRaceApplier(t *testing.T) {
	const threshold = 8
	inj := faults.New(1)
	fabric := netsim.NewLocalFabric()
	inj.Attach(fabric)
	held := &gatedRecorder{entered: make(chan struct{}, 1), gate: make(chan struct{})}
	sms := []Snapshotter{&snapRecorder{}, &snapRecorder{}, &snapRecorder{}, held}
	cfgs := make([]Config, len(sms))
	for i, sm := range sms {
		cfgs[i] = Config{
			ID:                fmt.Sprintf("r%d", i),
			Learner:           i == 3,
			Fabric:            fabric,
			ElectionTimeout:   30 * time.Millisecond,
			HeartbeatInterval: 10 * time.Millisecond,
			SnapshotThreshold: threshold,
			BatchEnabled:      true,
			SM:                sm,
		}
	}
	rs := NewGroup(cfgs)
	var openGate sync.Once
	t.Cleanup(func() {
		openGate.Do(func() { close(held.gate) })
		for _, r := range rs {
			r.Stop()
		}
	})
	leader, err := WaitLeader(rs, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	var leaderRec *snapRecorder
	for i, r := range rs {
		if r == leader {
			leaderRec = sms[i].(*snapRecorder)
		}
	}
	learner := rs[3]

	if _, err := leader.Propose([]byte("cmd0")); err != nil {
		t.Fatal(err)
	}
	select {
	case <-held.entered:
	case <-time.After(2 * time.Second):
		t.Fatal("learner never started applying cmd0")
	}
	pid := inj.Partition([]string{learner.ID()}, ids(rs, learner))

	stop := make(chan struct{})
	proposed := make(chan int, 1) // buffered: an early t.Fatal never reads it
	go func() {
		n := 1
		for {
			select {
			case <-stop:
				proposed <- n
				return
			default:
			}
			if _, err := leader.Propose([]byte(fmt.Sprintf("cmd%d", n))); err != nil {
				t.Errorf("propose cmd%d: %v", n, err)
				proposed <- n
				return
			}
			n++
		}
	}()
	if !waitUntil(5*time.Second, func() bool { return leader.SnapshotIndex() > learner.CommitIndex()+threshold }) {
		t.Fatal("leader never compacted past the partitioned learner")
	}
	restores := func() int {
		held.mu.Lock()
		defer held.mu.Unlock()
		return held.restores
	}

	// Heal with the applier still parked. Without the apply mutex the
	// install lands within a heartbeat or two; with it, it cannot land
	// until the gate opens, so this wait runs out.
	inj.Heal(pid)
	waitUntil(100*time.Millisecond, func() bool { return restores() > 0 })
	openGate.Do(func() { close(held.gate) })

	if !waitUntil(5*time.Second, func() bool { return restores() > 0 }) {
		t.Fatal("learner caught up without InstallSnapshot")
	}
	close(stop)
	n := <-proposed
	if !waitUntil(5*time.Second, func() bool { return learner.AppliedIndex() == leader.AppliedIndex() }) {
		t.Fatalf("learner applied %d, leader %d", learner.AppliedIndex(), leader.AppliedIndex())
	}
	want, got := leaderRec.snapshot(), held.snapshot()
	if len(want) != n {
		t.Fatalf("leader applied %d commands, proposed %d", len(want), n)
	}
	if len(got) != len(want) {
		t.Fatalf("learner holds %d commands, leader %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("learner diverges at %d: %s vs %s", i, got[i], want[i])
		}
	}
}
