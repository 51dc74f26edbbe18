package raft

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mantle/internal/netsim"
	"mantle/internal/types"
)

// recorder is a test state machine that records applied commands.
type recorder struct {
	mu      sync.Mutex
	applied []string
	indices []uint64
}

func (r *recorder) Apply(index uint64, cmd []byte) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.applied = append(r.applied, string(cmd))
	r.indices = append(r.indices, index)
}

func (r *recorder) snapshot() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.applied...)
}

func newTestGroup(t *testing.T, voters, learners int, mutate func(*Config)) ([]*Raft, []*recorder) {
	t.Helper()
	fabric := netsim.NewLocalFabric()
	n := voters + learners
	cfgs := make([]Config, n)
	recs := make([]*recorder, n)
	for i := 0; i < n; i++ {
		recs[i] = &recorder{}
		cfgs[i] = Config{
			ID:                fmt.Sprintf("r%d", i),
			Learner:           i >= voters,
			Fabric:            fabric,
			ElectionTimeout:   30 * time.Millisecond,
			HeartbeatInterval: 10 * time.Millisecond,
			SM:                recs[i],
		}
		if mutate != nil {
			mutate(&cfgs[i])
		}
	}
	rs := NewGroup(cfgs)
	t.Cleanup(func() {
		for _, r := range rs {
			r.Stop()
		}
	})
	return rs, recs
}

func TestElectsSingleLeader(t *testing.T) {
	rs, _ := newTestGroup(t, 3, 0, nil)
	if _, err := WaitLeader(rs, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	// Give the group a moment to settle (early elections can churn once
	// or twice), then check that exactly one leader remains.
	time.Sleep(150 * time.Millisecond)
	leaders := 0
	for _, r := range rs {
		if role, _, _ := r.Status(); role == Leader {
			leaders++
		}
	}
	if leaders != 1 {
		t.Fatalf("leaders = %d", leaders)
	}
}

// The leader recomputes its commit index on every replicator reply and
// every log sync; the quorum computation allocates nothing.
func TestQuorumCommitAllocs(t *testing.T) {
	rs, _ := newTestGroup(t, 3, 0, func(c *Config) { c.ElectionTimeout = time.Second })
	leader, err := WaitLeader(rs, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := leader.Propose([]byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	_, term, _ := leader.Status()
	if n := testing.AllocsPerRun(1000, func() { leader.maybeAdvanceCommit(term) }); n != 0 {
		t.Fatalf("maybeAdvanceCommit allocates %.1f times", n)
	}
	if got := leader.CommitIndex(); got < idx {
		t.Fatalf("commit index %d below the applied proposal %d", got, idx)
	}
}

func TestProposeAppliesEverywhere(t *testing.T) {
	rs, recs := newTestGroup(t, 3, 0, nil)
	leader, err := WaitLeader(rs, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		idx, err := leader.Propose([]byte(fmt.Sprintf("cmd%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		if idx == 0 {
			t.Fatal("zero index")
		}
	}
	// All replicas converge.
	deadline := time.Now().Add(2 * time.Second)
	for _, rec := range recs {
		for len(rec.snapshot()) < 10 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		got := rec.snapshot()
		if len(got) != 10 {
			t.Fatalf("replica applied %d entries: %v", len(got), got)
		}
		for i, cmd := range got {
			if cmd != fmt.Sprintf("cmd%d", i) {
				t.Fatalf("order mismatch at %d: %v", i, got)
			}
		}
	}
}

func TestProposeOnFollowerFails(t *testing.T) {
	rs, _ := newTestGroup(t, 3, 0, nil)
	leader, err := WaitLeader(rs, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rs {
		if r == leader {
			continue
		}
		if _, err := r.Propose([]byte("x")); !errors.Is(err, types.ErrNotLeader) {
			t.Fatalf("follower Propose err = %v", err)
		}
	}
}

func TestLearnerReplicatesButDoesNotVote(t *testing.T) {
	rs, recs := newTestGroup(t, 3, 2, nil)
	leader, err := WaitLeader(rs, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if leader.IsLearner() {
		t.Fatal("learner became leader")
	}
	if _, err := leader.Propose([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for i := 3; i < 5; i++ {
		for len(recs[i].snapshot()) < 1 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if got := recs[i].snapshot(); len(got) != 1 || got[0] != "hello" {
			t.Fatalf("learner %d applied %v", i, got)
		}
	}
}

func TestLeaderFailover(t *testing.T) {
	rs, recs := newTestGroup(t, 3, 0, nil)
	leader, err := WaitLeader(rs, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := leader.Propose([]byte("before")); err != nil {
		t.Fatal(err)
	}
	leader.Stop()
	survivors := make([]*Raft, 0, 2)
	for _, r := range rs {
		if r != leader {
			survivors = append(survivors, r)
		}
	}
	newLeader, err := WaitLeader(survivors, 3*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := newLeader.Propose([]byte("after")); err != nil {
		t.Fatal(err)
	}
	// Both survivors apply both entries in order.
	deadline := time.Now().Add(2 * time.Second)
	for i, r := range rs {
		if r == leader {
			continue
		}
		for len(recs[i].snapshot()) < 2 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		got := recs[i].snapshot()
		if len(got) != 2 || got[0] != "before" || got[1] != "after" {
			t.Fatalf("survivor %d applied %v", i, got)
		}
	}
}

func TestConcurrentProposals(t *testing.T) {
	rs, recs := newTestGroup(t, 3, 0, func(c *Config) { c.BatchEnabled = true })
	leader, err := WaitLeader(rs, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	const goroutines, each = 8, 50
	var wg sync.WaitGroup
	var failures atomic.Int32
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if _, err := leader.Propose([]byte(fmt.Sprintf("g%d-%d", g, i))); err != nil {
					failures.Add(1)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if failures.Load() > 0 {
		t.Fatalf("%d proposal failures", failures.Load())
	}
	deadline := time.Now().Add(3 * time.Second)
	for len(recs[0].snapshot()) < goroutines*each && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := len(recs[0].snapshot()); got != goroutines*each {
		t.Fatalf("leader applied %d", got)
	}
	// All replicas apply the same sequence.
	a := recs[0].snapshot()
	for i := 1; i < 3; i++ {
		for len(recs[i].snapshot()) < len(a) && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		b := recs[i].snapshot()
		if len(a) != len(b) {
			t.Fatalf("replica %d applied %d vs %d", i, len(b), len(a))
		}
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("divergence at %d: %s vs %s", j, a[j], b[j])
			}
		}
	}
}

func TestBatchingReducesSyncs(t *testing.T) {
	run := func(batch bool) int64 {
		rs, _ := newTestGroup(t, 1, 0, func(c *Config) {
			c.BatchEnabled = batch
			c.FsyncCost = 100 * time.Microsecond
		})
		leader, err := WaitLeader(rs, 2*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		const goroutines, each = 16, 30
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < each; i++ {
					if _, err := leader.Propose([]byte("x")); err != nil {
						t.Error(err)
						return
					}
				}
			}()
		}
		wg.Wait()
		syncs, _, proposals, _ := leader.MetricsRef().Snapshot()
		if proposals != goroutines*each {
			t.Fatalf("proposals = %d", proposals)
		}
		return syncs
	}
	unbatched := run(false)
	batched := run(true)
	if batched >= unbatched {
		t.Fatalf("batched syncs %d >= unbatched %d", batched, unbatched)
	}
}

func TestReadIndexOnFollowerSeesWrites(t *testing.T) {
	rs, recs := newTestGroup(t, 3, 1, nil)
	leader, err := WaitLeader(rs, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := leader.Propose([]byte("w1"))
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range rs {
		if r == leader {
			continue
		}
		// Retry: right after election a replica may not know the leader.
		var rerr error
		for attempt := 0; attempt < 100; attempt++ {
			rerr = r.ConsistentRead(func() error {
				if r.AppliedIndex() < idx {
					return fmt.Errorf("replica %d applied %d < %d", i, r.AppliedIndex(), idx)
				}
				if got := recs[i].snapshot(); len(got) < 1 || got[0] != "w1" {
					return fmt.Errorf("replica %d state %v", i, got)
				}
				return nil
			})
			if rerr == nil || !errors.Is(rerr, types.ErrNotLeader) {
				break
			}
			time.Sleep(5 * time.Millisecond)
		}
		if rerr != nil {
			t.Fatalf("ConsistentRead on %s: %v", r.ID(), rerr)
		}
	}
}

func TestReadIndexBatching(t *testing.T) {
	fabric := netsim.NewFabric(netsim.Config{RTT: time.Millisecond})
	cfgs := []Config{
		{ID: "a", Fabric: fabric, ElectionTimeout: 50 * time.Millisecond, SM: &recorder{}},
		{ID: "b", Fabric: fabric, ElectionTimeout: 50 * time.Millisecond, SM: &recorder{}},
		{ID: "c", Fabric: fabric, ElectionTimeout: 50 * time.Millisecond, SM: &recorder{}},
	}
	rs := NewGroup(cfgs)
	defer func() {
		for _, r := range rs {
			r.Stop()
		}
	}()
	leader, err := WaitLeader(rs, 3*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	var follower *Raft
	for _, r := range rs {
		if r != leader {
			follower = r
			break
		}
	}
	// Wait for the follower to learn the leader.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if _, _, l := follower.Status(); l != "" || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	// 64 concurrent reads on the follower should need far fewer than 64
	// leader round trips thanks to batching.
	before := fabric.RPCs()
	var wg sync.WaitGroup
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := follower.ReadIndex(); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	used := fabric.RPCs() - before
	if used >= 48 {
		t.Fatalf("64 concurrent follower reads used %d RPCs; batching ineffective", used)
	}
}

func TestApplyIndicesAreSequential(t *testing.T) {
	rs, recs := newTestGroup(t, 3, 0, func(c *Config) { c.BatchEnabled = true })
	leader, err := WaitLeader(rs, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		if _, err := leader.Propose([]byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	rec := recs[0]
	rec.mu.Lock()
	defer rec.mu.Unlock()
	// Indices are strictly increasing; gaps are the no-op entries
	// leaders append on election.
	for i := 1; i < len(rec.indices); i++ {
		if rec.indices[i] <= rec.indices[i-1] {
			t.Fatalf("apply indices not increasing at %d: %v", i, rec.indices[i-1:i+1])
		}
	}
	if len(rec.indices) != 30 {
		t.Fatalf("applied %d commands", len(rec.indices))
	}
}

func TestProposalsAcrossLeadershipTransfer(t *testing.T) {
	rs, recs := newTestGroup(t, 3, 0, func(c *Config) { c.BatchEnabled = true })
	leader, err := WaitLeader(rs, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	var target *Raft
	for _, r := range rs {
		if r != leader {
			target = r
			break
		}
	}
	// Proposals flow continuously; mid-stream the leadership moves.
	// Writers retry ErrNotLeader against the current leader, as the
	// proxy layer does; every accepted proposal must be applied exactly
	// once on every replica.
	var accepted atomic.Int32
	var wg sync.WaitGroup
	propose := func(cmd string) {
		for attempt := 0; attempt < 2000; attempt++ {
			l, err := WaitLeader(rs, time.Second)
			if err != nil {
				continue
			}
			if _, err := l.Propose([]byte(cmd)); err == nil {
				accepted.Add(1)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				propose(fmt.Sprintf("g%d-%d", g, i))
			}
		}(g)
	}
	time.Sleep(20 * time.Millisecond)
	target.mu.Lock()
	target.startElectionLocked() // campaign now: the old leader steps down
	target.mu.Unlock()
	wg.Wait()
	if accepted.Load() != 100 {
		t.Fatalf("accepted = %d", accepted.Load())
	}
	// Convergence: every replica applied exactly the accepted set, no
	// duplicates.
	deadline := time.Now().Add(3 * time.Second)
	for i, rec := range recs {
		for len(rec.snapshot()) < 100 && time.Now().Before(deadline) {
			time.Sleep(2 * time.Millisecond)
		}
		got := rec.snapshot()
		seen := map[string]bool{}
		for _, cmd := range got {
			if seen[cmd] {
				t.Fatalf("replica %d applied %q twice", i, cmd)
			}
			seen[cmd] = true
		}
		if len(got) != 100 {
			t.Fatalf("replica %d applied %d commands", i, len(got))
		}
	}
}
