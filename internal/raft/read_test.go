package raft

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"testing"
	"time"

	"mantle/internal/faults"
	"mantle/internal/types"
)

// waitUntil polls cond until it holds or the timeout passes.
func waitUntil(timeout time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
	return true
}

// knowsLeader reports whether r names leader as its leader.
func knowsLeader(r, leader *Raft) bool {
	_, _, l := r.Status()
	return l == leader.ID()
}

// slowHeartbeat makes the heartbeat too slow to help any read in a test:
// whatever a follower learns in time, it learns from the ReadIndex reply
// or from the AppendEntries that carries the entries themselves.
func slowHeartbeat(c *Config) {
	c.ElectionTimeout = 10 * time.Second
	c.HeartbeatInterval = 2 * time.Second
}

// A read on a follower or learner that follows a write sees it after one
// round trip to the leader: the replica already holds the entry, and the
// ReadIndex reply tells it the entry is committed. At the parent commit
// the reader sat in the apply wait until the next heartbeat.
func TestFollowerReadAfterWriteNeedsNoHeartbeat(t *testing.T) {
	rs, recs := newTestGroup(t, 3, 1, slowHeartbeat)
	leader, err := WaitLeader(rs, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	// The first proposal's AppendEntries introduces the leader.
	if _, err := leader.Propose([]byte("w0")); err != nil {
		t.Fatal(err)
	}
	for _, r := range rs {
		if r != leader && !waitUntil(time.Second, func() bool { return knowsLeader(r, leader) }) {
			t.Fatalf("%s never heard from the leader", r.ID())
		}
	}
	const bound = 250 * time.Millisecond // ≪ the 2 s heartbeat
	for round := 1; round <= 3; round++ {
		want := fmt.Sprintf("w%d", round)
		if _, err := leader.Propose([]byte(want)); err != nil {
			t.Fatal(err)
		}
		for i, r := range rs {
			if r == leader {
				continue
			}
			start := time.Now()
			err := r.ConsistentRead(func() error {
				if !slices.Contains(recs[i].snapshot(), want) {
					return fmt.Errorf("%s not applied at the read point", want)
				}
				return nil
			})
			if err != nil {
				t.Fatalf("round %d: ConsistentRead on %s: %v", round, r.ID(), err)
			}
			if d := time.Since(start); d > bound {
				t.Fatalf("round %d: read-after-write on %s took %v (heartbeat %v): waited for a heartbeat",
					round, r.ID(), d, r.cfg.HeartbeatInterval)
			}
		}
	}
}

// An uncontended follower ReadIndex is one fabric round trip made by the
// caller: no goroutine, no channel, no timer, no allocation.
func TestReadIndexUncontendedIsInline(t *testing.T) {
	rs, _ := newTestGroup(t, 3, 1, slowHeartbeat)
	leader, err := WaitLeader(rs, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := leader.Propose([]byte("w")); err != nil {
		t.Fatal(err)
	}
	// Every replica has the entry: no AppendEntries is still in flight to
	// disturb the round-trip count below.
	for _, r := range rs {
		if !waitUntil(time.Second, func() bool { return slices.Contains(logCmds(r), "w") }) {
			t.Fatalf("%s never received the entry", r.ID())
		}
	}
	for _, r := range rs {
		if r == leader {
			continue
		}
		// The reads below run on this goroutine only, so any goroutine the
		// read path started shows up in the count taken inside the read.
		before := runtime.NumGoroutine()
		during := 0
		rpcs := r.cfg.Fabric.RPCs()
		const reads = 200
		allocs := testing.AllocsPerRun(reads, func() {
			if _, err := r.ReadIndex(); err != nil {
				t.Fatal(err)
			}
			during = max(during, runtime.NumGoroutine())
		})
		if allocs != 0 {
			t.Errorf("%s: ReadIndex allocates %.1f times per call, want 0", r.ID(), allocs)
		}
		if during > before {
			t.Errorf("%s: goroutines grew from %d to %d across ReadIndex", r.ID(), before, during)
		}
		// AllocsPerRun makes one warm-up call.
		if got := r.cfg.Fabric.RPCs() - rpcs; got != reads+1 {
			t.Errorf("%s: %d reads took %d round trips, want one each", r.ID(), reads+1, got)
		}
	}
}

// A reader that cannot be served in time gets a typed, retryable timeout
// and leaves nothing behind: no goroutine parked on an apply index that
// a cut-off follower will never reach.
func TestConsistentReadTimeoutLeavesNoGoroutine(t *testing.T) {
	old := readWaitTimeout
	readWaitTimeout = 50 * time.Millisecond
	defer func() { readWaitTimeout = old }()

	inj := faults.New(1)
	rs, _ := faultGroup(t, inj, 3, 0, slowHeartbeat)
	leader, err := WaitLeader(rs, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := leader.Propose([]byte("pre")); err != nil {
		t.Fatal(err)
	}
	var follower *Raft
	for _, r := range rs {
		if r != leader {
			follower = r
			break
		}
	}
	if !waitUntil(time.Second, func() bool { return knowsLeader(follower, leader) }) {
		t.Fatal("follower never heard from the leader")
	}
	// Everything the leader sends the follower is lost, but the
	// follower's own ReadIndex query gets through: it learns of an index
	// it cannot reach. (Cut both ways, the query itself would fail with
	// ErrUnreachable and never get as far as the apply wait.)
	inj.DropEdge(leader.ID(), follower.ID(), 1)
	if _, err := leader.Propose([]byte("unseen")); err != nil {
		t.Fatal(err)
	}

	before := runtime.NumGoroutine()
	err = follower.ConsistentRead(func() error {
		t.Error("read served although the follower cannot have applied the read index")
		return nil
	})
	if !errors.Is(err, types.ErrTimeout) {
		t.Fatalf("ConsistentRead on a cut-off follower: err = %v, want ErrTimeout", err)
	}
	// The deadline's wake-up runs on a timer goroutine that exits at once.
	if !waitUntil(time.Second, func() bool { return runtime.NumGoroutine() <= before }) {
		t.Fatalf("goroutines: %d before the timed-out read, %d after", before, runtime.NumGoroutine())
	}
}

// logCmds returns the commands in r's log (no-op barriers skipped).
func logCmds(r *Raft) []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []string
	for _, e := range r.log[1:] {
		if len(e.Cmd) > 0 {
			out = append(out, string(e.Cmd))
		}
	}
	return out
}

// isPrefix reports whether got is a prefix of want.
func isPrefix(got, want []string) bool {
	return len(got) <= len(want) && slices.Equal(got, want[:len(got)])
}

// A ReadIndex reply from a leader of another term must not advance the
// follower. The learner below holds an uncommitted entry that its old
// leader replicated to it in term T and that the majority has since
// replaced; the prefix it verified covers that entry. When the same
// replica, re-elected in a later term, answers the learner's ReadIndex
// with a commit index past that entry, raising the learner's
// commitIndex to min(reply, verified) would apply the dead entry.
func TestReadIndexReplyFromOtherTermAdvancesNothing(t *testing.T) {
	inj := faults.New(1)
	rs, recs := faultGroup(t, inj, 3, 1, func(c *Config) { c.ElectionTimeout = 40 * time.Millisecond })
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("%s (injector seed %d)", fmt.Sprintf(format, args...), inj.Seed())
	}
	learner := rs[3]
	old, err := WaitLeader(rs, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := old.Propose([]byte("pre")); err != nil {
		t.Fatal(err)
	}
	var majority []*Raft
	for _, r := range rs[:3] {
		if r != old {
			majority = append(majority, r)
		}
	}
	if !waitUntil(2*time.Second, func() bool { return learner.AppliedIndex() == old.CommitIndex() }) {
		fail("learner never caught up")
	}
	_, termT, _ := learner.Status()
	safeCommit := learner.CommitIndex()

	// Isolate the leader with the learner. Its next entry reaches the
	// learner (which verifies it against the leader's log) but no quorum.
	cut := inj.Partition([]string{old.ID(), learner.ID()}, ids(majority, nil))
	if _, err := old.ProposeTimeout([]byte("minority"), 50*time.Millisecond); err == nil {
		fail("minority-side proposal committed")
	}
	if !waitUntil(time.Second, func() bool { return slices.Contains(logCmds(learner), "minority") }) {
		fail("learner never received the minority-side entry")
	}

	// The majority elects in a higher term and commits over that index.
	next, err := WaitLeader(majority, 3*time.Second)
	if err != nil {
		fail("majority did not elect: %v", err)
	}
	for _, cmd := range []string{"majority-1", "majority-2"} {
		if _, err := next.Propose([]byte(cmd)); err != nil {
			fail("majority write: %v", err)
		}
	}

	// Re-join the old leader to the voters but keep the learner where it
	// is: it hears from nobody (entries from the old leader are dropped,
	// the other voters are partitioned away) while its own ReadIndex
	// queries to the old leader still get through.
	inj.DropEdge(old.ID(), learner.ID(), 1)
	inj.Partition([]string{learner.ID()}, ids(majority, nil))
	inj.Heal(cut)
	if !waitUntil(3*time.Second, func() bool {
		return slices.Contains(logCmds(old), "majority-2") && old.AppliedIndex() >= next.CommitIndex()
	}) {
		fail("old leader never caught up after heal")
	}
	// The learner still names the old leader and is still in term T.
	if _, lt, l := learner.Status(); lt != termT || l != old.ID() {
		fail("learner at term %d naming %q, want term %d naming %s", lt, l, termT, old.ID())
	}
	// Make the old leader the leader again, in a later term, by having
	// it campaign as NewGroup's bootstrap kick-start does, and have the
	// learner ask it for a read index. Elections this tight can depose it
	// again at any point; go round until one reply gets through.
	var idx, finalTerm uint64
	for attempt := 0; ; attempt++ {
		if attempt == 50 {
			fail("no ReadIndex reply from the re-elected old leader")
		}
		old.mu.Lock()
		if old.role != Leader {
			old.startElectionLocked()
		}
		old.mu.Unlock()
		if !waitUntil(100*time.Millisecond, func() bool { return old.Role() == Leader }) {
			continue
		}
		if _, err := old.ProposeTimeout([]byte("final"), time.Second); err != nil {
			continue
		}
		_, finalTerm, _ = old.Status()
		if idx, err = learner.ReadIndex(); err == nil {
			break
		}
	}
	if finalTerm <= termT {
		fail("final term %d not above the learner's term %d", finalTerm, termT)
	}
	if idx <= safeCommit+1 {
		fail("read index %d does not cover the final-term commits", idx)
	}
	if got := learner.CommitIndex(); got != safeCommit {
		fail("a reply from term %d moved the learner's commitIndex %d -> %d; its term-%d AppendEntries verified a prefix holding a replaced entry",
			finalTerm, safeCommit, got, termT)
	}

	// Let the leader's entries through: the learner drops the dead entry
	// and converges, and nobody ever applied anything but a prefix of
	// the final leader's log.
	inj.Clear()
	var final []string
	if !waitUntil(3*time.Second, func() bool {
		final = logCmds(old)
		return slices.Equal(recs[3].snapshot(), final)
	}) {
		fail("learner applied %v, final log %v", recs[3].snapshot(), final)
	}
	if slices.Contains(final, "minority") {
		fail("uncommitted minority entry survived in the final log %v", final)
	}
	for i, rec := range recs {
		if got := rec.snapshot(); !isPrefix(got, final) {
			fail("replica %d applied %v, not a prefix of the final log %v", i, got, final)
		}
	}
}

// A freshly elected leader refuses ReadIndex until an entry of its own
// term commits: before that its commit index may lag its predecessor's
// (Raft dissertation §6.4 step 1). It then serves without waiting for a
// heartbeat, because it ships its no-op at once.
func TestFreshLeaderRefusesReadIndexUntilNoopCommits(t *testing.T) {
	rs, _ := newTestGroup(t, 3, 0, func(c *Config) {
		slowHeartbeat(c)
		c.FsyncCost = time.Microsecond // fsyncs take the disk lock
	})
	old, err := WaitLeader(rs, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := old.Propose([]byte("w")); err != nil {
		t.Fatal(err)
	}
	prior := old.CommitIndex()
	next := rs[0]
	if next == old {
		next = rs[1]
	}
	if !waitUntil(time.Second, func() bool { return slices.Contains(logCmds(next), "w") }) {
		t.Fatal("the next leader never received the entry")
	}
	// Hold next's disk: elected, it appends its no-op and parks in that
	// entry's fsync, before any replicator starts, so the no-op cannot
	// commit.
	next.disk.Lock()
	next.mu.Lock()
	next.startElectionLocked()
	next.mu.Unlock()
	if !waitUntil(time.Second, func() bool { return next.Role() == Leader }) {
		next.disk.Unlock()
		t.Fatal("next never won its election")
	}
	_, err = next.ReadIndex()
	_, _, ok := next.handleReadIndex()
	next.disk.Unlock()
	if !errors.Is(err, types.ErrNotLeader) {
		t.Fatalf("ReadIndex before the no-op commits: err = %v, want ErrNotLeader", err)
	}
	if ok {
		t.Fatal("handleReadIndex answered a follower before the leader's no-op committed")
	}
	var idx uint64
	const bound = time.Second // half the 2 s heartbeat
	if !waitUntil(bound, func() bool { idx, err = next.ReadIndex(); return err == nil }) {
		t.Fatalf("ReadIndex still refused %v after the disk was released: %v", bound, err)
	}
	if idx <= prior {
		t.Fatalf("read index %d does not pass the predecessor's commit index %d", idx, prior)
	}
}
