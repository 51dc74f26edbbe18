package raft

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mantle/internal/faults"
	"mantle/internal/netsim"
	"mantle/internal/types"
)

// inlineRounds sums the proposals that ran their round on the proposer's
// goroutine, over the group.
func inlineRounds(rs []*Raft) int64 {
	var n int64
	for _, r := range rs {
		n += r.MetricsRef().Batch().FlushInline
	}
	return n
}

// quietGroup is a 3-voter zero-cost group whose leader sends nothing on
// its own for the length of a test: no heartbeat, no election. It
// returns the leader with both followers holding its whole log.
func quietGroup(t *testing.T) (rs []*Raft, leader *Raft, followers []*Raft) {
	t.Helper()
	rs, _ = newTestGroup(t, 3, 0, func(c *Config) {
		c.ElectionTimeout = 2 * time.Second
		c.HeartbeatInterval = time.Minute
	})
	leader, err := WaitLeader(rs, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := leader.Propose([]byte("warm"))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rs {
		if r != leader {
			followers = append(followers, r)
		}
	}
	caughtUp := func() bool {
		leader.mu.Lock()
		defer leader.mu.Unlock()
		for _, f := range followers {
			if leader.matchIndex[f.id] < idx {
				return false
			}
		}
		return true
	}
	if !waitUntil(2*time.Second, caughtUp) {
		t.Fatal("followers did not catch up with the leader")
	}
	return rs, leader, followers
}

// A proposal commits in line with one follower crashed: the leader and
// the other follower are a quorum.
func TestInlineProposeCommitsWithFollowerCrashed(t *testing.T) {
	rs, leader, followers := quietGroup(t)
	followers[0].Crash()
	before := inlineRounds(rs)
	idx, err := leader.ProposeTimeout([]byte("x"), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if got := inlineRounds(rs) - before; got != 1 {
		t.Fatalf("%d in-line rounds, want 1", got)
	}
	if got := leader.AppliedIndex(); got < idx {
		t.Fatalf("leader applied %d, below the acknowledged %d", got, idx)
	}
	if got := logCmds(followers[1]); got[len(got)-1] != "x" {
		t.Fatalf("live follower's log %v does not end with the proposal", got)
	}
}

// With both followers crashed the in-line round cannot commit; the
// entry parks in r.pending and the call fails with ErrTimeout once its
// bound is spent, as a queued proposal does.
func TestInlineProposeTimesOutWithoutQuorum(t *testing.T) {
	rs, leader, followers := quietGroup(t)
	for _, f := range followers {
		f.Crash()
	}
	before := inlineRounds(rs)
	const d = 100 * time.Millisecond
	start := time.Now()
	_, err := leader.ProposeTimeout([]byte("x"), d)
	took := time.Since(start)
	if !errors.Is(err, types.ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	if took < d || took > d+400*time.Millisecond {
		t.Fatalf("failed after %s, want about %s", took, d)
	}
	if got := inlineRounds(rs) - before; got != 1 {
		t.Fatalf("%d in-line rounds, want 1", got)
	}
}

// A leader deposed mid-round — a follower answers its AppendEntries from
// a higher term — fails the proposal with ErrNotLeader.
func TestInlineProposeDeposedMidRound(t *testing.T) {
	_, leader, followers := quietGroup(t)
	f := followers[0]
	f.mu.Lock()
	f.term++
	f.mu.Unlock()
	if _, err := leader.ProposeTimeout([]byte("x"), time.Second); !errors.Is(err, types.ErrNotLeader) {
		t.Fatalf("err = %v, want ErrNotLeader", err)
	}
	if got := logCmds(leader); got[len(got)-1] != "x" {
		t.Fatalf("leader log %v does not end with the proposal: the round never started", got)
	}
	if role, _, _ := leader.Status(); role == Leader {
		t.Fatal("leader kept its role after a higher-term reply")
	}
}

// A peer whose nextIndex is not the new entry is left to its replicator:
// the proposer never sends to it (a send would block on the peer's lock,
// held here), and the kick catches it up with no heartbeat due.
func TestInlineLaggingPeerLeftToReplicator(t *testing.T) {
	rs, leader, followers := quietGroup(t)
	lag := followers[0]
	leader.mu.Lock()
	leader.nextIndex[lag.id] = 1
	leader.mu.Unlock()
	before := inlineRounds(rs)

	lag.mu.Lock()
	done := make(chan error, 1)
	go func() {
		_, err := leader.ProposeTimeout([]byte("x"), time.Second)
		done <- err
	}()
	var err error
	select {
	case err = <-done:
	case <-time.After(2 * time.Second):
		lag.mu.Unlock()
		t.Fatal("the proposal waited on the lagging peer")
	}
	lag.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if got := inlineRounds(rs) - before; got != 1 {
		t.Fatalf("%d in-line rounds, want 1", got)
	}
	if !waitUntil(time.Second, func() bool { return slices.Contains(logCmds(lag), "x") }) {
		t.Fatal("the lagging peer never received the proposal")
	}
}

// Where some step can park — a log sync, a fabric round trip, a fault
// hook — proposals keep the batching path.
func TestInlineOnlyWhereNothingParks(t *testing.T) {
	hooked := netsim.NewLocalFabric()
	faults.New(1).Attach(hooked)
	cases := []struct {
		name   string
		inline bool
		fabric *netsim.Fabric
		fsync  time.Duration
	}{
		{"free", true, netsim.NewLocalFabric(), 0},
		{"fsync", false, netsim.NewLocalFabric(), 200 * time.Microsecond},
		{"rtt", false, netsim.NewFabric(netsim.Config{RTT: 200 * time.Microsecond}), 0},
		{"faults", false, hooked, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rs, _ := newTestGroup(t, 3, 0, func(c *Config) { c.Fabric, c.FsyncCost = tc.fabric, tc.fsync })
			leader, err := WaitLeader(rs, 2*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 5; i++ {
				if _, err := leader.ProposeTimeout([]byte(fmt.Sprint(i)), 2*time.Second); err != nil {
					t.Fatal(err)
				}
			}
			if got := inlineRounds(rs) > 0; got != tc.inline {
				t.Fatalf("in-line rounds ran: %v, want %v", got, tc.inline)
			}
		})
	}
}

// An in-line proposal on an SM-less 3-voter group allocates nothing:
// no proposal, no done channel, no timer, and the one-entry
// AppendEntries is copied to the stack (log growth amortises to zero).
func TestInlineProposeAllocs(t *testing.T) {
	rs, _ := newTestGroup(t, 3, 0, func(c *Config) {
		c.ElectionTimeout = time.Second
		c.SM = nil
	})
	leader, err := WaitLeader(rs, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	cmd := []byte("x")
	if _, err := leader.Propose(cmd); err != nil {
		t.Fatal(err)
	}
	before := inlineRounds(rs)
	n := testing.AllocsPerRun(1000, func() {
		if _, err := leader.ProposeTimeout(cmd, time.Second); err != nil {
			t.Fatal(err)
		}
	})
	if inlineRounds(rs) == before {
		t.Fatal("no proposal ran in line")
	}
	if n != 0 {
		t.Fatalf("an in-line proposal allocates %.1f times, want 0", n)
	}
}

// The invariant hook sampled throughout a run in which concurrent
// proposers take both the in-line and the queued path and the leader
// crashes midway; at the end every acknowledged index holds its
// proposer's command on every live replica.
func TestInlineInvariantsSampledDuringRun(t *testing.T) {
	gate := make(chan struct{})
	rs, recs := newTestGroup(t, 3, 0, func(c *Config) {
		c.SM = &stallRecorder{recorder: c.SM.(*recorder), gate: gate}
	})
	if _, err := WaitLeader(rs, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	var (
		mu      sync.Mutex
		acked   = map[uint64]string{}
		crashed atomic.Pointer[Raft]
		wg      sync.WaitGroup
	)
	chk := NewChecker(rs)
	stopCheck := make(chan struct{})
	checkErr := make(chan error, 1)
	go func() {
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stopCheck:
				checkErr <- nil
				return
			case <-tick.C:
			}
			if err := chk.Check(); err != nil {
				checkErr <- err
				return
			}
		}
	}()

	live := func() []*Raft {
		var out []*Raft
		for _, r := range rs {
			if r != crashed.Load() {
				out = append(out, r)
			}
		}
		return out
	}
	// propose submits cmd to the current leader until an attempt is
	// acknowledged; each attempt carries its own suffix, since a failed
	// one may still commit.
	propose := func(cmd string) error {
		for attempt := 0; attempt < 200; attempt++ {
			leader, err := WaitLeader(live(), 2*time.Second)
			if err != nil {
				return err
			}
			try := fmt.Sprintf("%s#%d", cmd, attempt)
			if idx, err := leader.ProposeTimeout([]byte(try), 200*time.Millisecond); err == nil {
				mu.Lock()
				acked[idx] = try
				mu.Unlock()
				return nil
			}
			time.Sleep(time.Millisecond)
		}
		return fmt.Errorf("%s: no leader took it", cmd)
	}
	spawn := func(cmd string) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := propose(cmd); err != nil {
				t.Error(err)
			}
		}()
	}
	// stall proposes "stall", whose apply parks on every replica, and
	// more behind it until one queues: the round that applies "stall",
	// or the next in-line round, which waits for it to apply, holds the
	// in-line path.
	stall := func() error {
		leader, err := WaitLeader(live(), 2*time.Second)
		if err != nil {
			return err
		}
		queued := func() int64 {
			b := leader.MetricsRef().Batch()
			return b.FlushIdle + b.FlushCount + b.FlushBytes
		}
		before := queued()
		defer close(gate)
		spawn("stall")
		for k := 0; queued() == before; k++ {
			if k == 2000 {
				return errors.New("no proposal queued behind a parked round")
			}
			spawn(fmt.Sprintf("behind-%d", k))
			time.Sleep(time.Millisecond)
		}
		return nil
	}

	const proposers, each = 4, 150
	for g := 0; g < proposers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if err := propose(fmt.Sprintf("p%d-%d", g, i)); err != nil {
					t.Error(err)
					return
				}
				var err error
				switch {
				case g == 0 && i == each/4:
					err = stall()
				case g == 0 && i == each/2:
					var leader *Raft
					if leader, err = WaitLeader(live(), 2*time.Second); err == nil {
						crashed.Store(leader)
						leader.Crash()
					}
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(stopCheck)
	if err := <-checkErr; err != nil {
		t.Fatalf("invariant broken during the run: %v", err)
	}

	if inlineRounds(rs) == 0 {
		t.Fatal("no proposal ran in line")
	}
	var high uint64
	for idx := range acked {
		high = max(high, idx)
	}
	for i, r := range rs {
		if r == crashed.Load() {
			continue
		}
		if !waitUntil(2*time.Second, func() bool { return r.AppliedIndex() >= high }) {
			t.Fatalf("%s applied %d, below the acknowledged %d", r.id, r.AppliedIndex(), high)
		}
		recs[i].mu.Lock()
		at := make(map[uint64]string, len(recs[i].indices))
		for j, idx := range recs[i].indices {
			at[idx] = recs[i].applied[j]
		}
		recs[i].mu.Unlock()
		for idx, cmd := range acked {
			if at[idx] != cmd {
				t.Fatalf("%s holds %q at acknowledged index %d, want %q", r.id, at[idx], idx, cmd)
			}
		}
	}
}

// stallRecorder is a recorder whose apply of the command "stall" parks
// until gate closes.
type stallRecorder struct {
	*recorder
	gate chan struct{}
}

func (s *stallRecorder) Apply(index uint64, cmd []byte) {
	if string(cmd) == "stall" {
		<-s.gate
	}
	s.recorder.Apply(index, cmd)
}
