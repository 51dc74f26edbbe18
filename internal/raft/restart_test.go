package raft

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"mantle/internal/faults"
)

// A sync boundary is where a crash cuts a replica's write of one entry:
// before the replica stages the entry's record, once it is staged but
// its sync has not completed, or once it is durable but not yet
// acknowledged.
const (
	beforeStage = "before-stage"
	staged      = "staged"
	durable     = "durable"
)

// TestRestartAtSyncBoundaries crashes a follower and then the leader at
// each sync boundary, with batching and pipelining on and off, and
// restarts each from its log. After every restart each acknowledged
// proposal is applied exactly once on every replica, and the invariant
// hook holds — the restarted replica's commit index back at least where
// it stood before the crash.
func TestRestartAtSyncBoundaries(t *testing.T) {
	for _, pipeline := range []bool{false, true} {
		for _, at := range []string{beforeStage, staged, durable} {
			t.Run(fmt.Sprintf("pipeline=%v/%s", pipeline, at), func(t *testing.T) {
				h := newRestartHarness(t, pipeline)
				h.crashRestart(false, at)
				h.crashRestart(true, at)
				// Once more each, idle: now the logs replay the
				// truncations and snapshots the first restarts left.
				for _, r := range h.rs {
					r.Crash()
					if err := r.Restart(); err != nil {
						t.Fatal(err)
					}
					h.propose()
					h.converge()
					h.check()
				}
			})
		}
	}
}

type restartHarness struct {
	t    *testing.T
	inj  *faults.Injector
	rs   []*Raft
	recs []*recorder
	chk  *Checker

	mu    sync.Mutex
	acked []string // proposals whose Propose returned success
	n     int
}

func newRestartHarness(t *testing.T, pipeline bool) *restartHarness {
	h := &restartHarness{t: t, inj: faults.New(1)}
	h.rs, h.recs = faultGroup(t, h.inj, 3, 0, func(c *Config) {
		c.BatchEnabled = pipeline
		c.Pipeline = pipeline
		c.FsyncCost = 5 * time.Millisecond
		c.SnapshotThreshold = 8 // restarts restore a snapshot and replay past it
	})
	h.chk = NewChecker(h.rs)
	for i := 0; i < 10; i++ {
		h.propose()
	}
	return h
}

func (h *restartHarness) leader() *Raft {
	h.t.Helper()
	l, err := WaitLeader(h.rs, 5*time.Second)
	if err != nil {
		h.t.Fatal(err)
	}
	return l
}

// propose submits the next command to the current leader, retrying
// across leader changes, and records it acknowledged.
func (h *restartHarness) propose() string {
	h.t.Helper()
	h.mu.Lock()
	cmd := fmt.Sprintf("p%d", h.n)
	h.n++
	h.mu.Unlock()
	for attempt := 0; ; attempt++ {
		if _, err := h.leader().ProposeTimeout([]byte(cmd), time.Second); err == nil {
			break
		} else if attempt == 50 {
			h.t.Fatalf("propose %s: %v", cmd, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	h.mu.Lock()
	h.acked = append(h.acked, cmd)
	h.mu.Unlock()
	return cmd
}

// proposeAsync proposes cmd to r in the background; an error is a
// proposal the crash cut off, never acknowledged.
func (h *restartHarness) proposeAsync(r *Raft, cmd string) <-chan error {
	done := make(chan error, 1)
	go func() {
		_, err := r.ProposeTimeout([]byte(cmd), 2*time.Second)
		if err == nil {
			h.mu.Lock()
			h.acked = append(h.acked, cmd)
			h.mu.Unlock()
		}
		done <- err
	}()
	return done
}

// recordOf returns the sequence number of the WAL record that staged
// cmd on r, once r's log holds it.
func recordOf(r *Raft, cmd string) (uint64, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, e := range r.log[1:] {
		if string(e.Cmd) == cmd {
			return r.lastStaged, true
		}
	}
	return 0, false
}

// crashRestart crashes the leader or a follower at the boundary and
// restarts it, retrying the cut until the WAL shows it landed there.
func (h *restartHarness) crashRestart(ofLeader bool, at string) {
	t := h.t
	t.Helper()
	h.check()
	for attempt := 0; ; attempt++ {
		if attempt == 20 {
			t.Fatalf("never cut the %s at %s", map[bool]string{true: "leader", false: "follower"}[ofLeader], at)
		}
		leader := h.leader()
		victim := leader
		if !ofLeader {
			victim = h.other(leader)
		}
		landed := h.cut(leader, victim, at, attempt)
		if err := victim.Restart(); err != nil {
			t.Fatal(err)
		}
		if landed {
			break
		}
		h.converge() // crashed elsewhere: cut again
	}
	h.propose()
	h.converge()
	h.check()
}

func (h *restartHarness) other(r *Raft) *Raft {
	for _, o := range h.rs {
		if o != r {
			return o
		}
	}
	return nil
}

// cut crashes victim, aiming at the boundary, and reports whether the
// crash landed there. It heals any partition it made before it returns.
func (h *restartHarness) cut(leader, victim *Raft, at string, attempt int) bool {
	t := h.t
	cmd := fmt.Sprintf("%s-%s-%d", victim.ID(), at, attempt)
	ofLeader := victim == leader
	switch {
	case at == beforeStage && !ofLeader:
		// The victim never receives the entries it misses.
		h.inj.Blackhole(victim.ID())
		h.propose()
		victim.Crash()
		h.inj.Restore(victim.ID())
		return true
	case at == beforeStage:
		// The leader crashes before it is handed the next proposal,
		// which the next leader takes.
		victim.Crash()
		h.propose()
		return true
	case at == staged:
		// Crash while the entry's sync is in flight: the record is
		// staged, and lost with the crash.
		if ofLeader {
			h.inj.Partition([]string{victim.ID()}, ids(h.rs, victim))
			defer h.inj.HealAll()
		}
		done := h.proposeAsync(leader, cmd)
		var seq uint64
		if !waitUntil(2*time.Second, func() bool {
			var ok bool
			seq, ok = recordOf(victim, cmd)
			return ok
		}) {
			victim.Crash() // leadership moved under the proposal
			<-done
			return false
		}
		victim.Crash()
		<-done
		return victim.wal.DurableSeq() < seq
	default: // durable
		// Crash once the entry's record is durable on the victim but
		// before anyone counts it: a follower's reply is held at the
		// leader's lock; a leader is cut off from its followers.
		if ofLeader {
			h.inj.Partition([]string{victim.ID()}, ids(h.rs, victim))
			defer h.inj.HealAll()
		}
		done := h.proposeAsync(leader, cmd)
		var seq uint64
		if !waitUntil(2*time.Second, func() bool {
			var ok bool
			seq, ok = recordOf(victim, cmd)
			return ok
		}) {
			victim.Crash() // leadership moved under the proposal
			<-done
			return false
		}
		if !ofLeader {
			leader.mu.Lock()
		}
		early := victim.wal.DurableSeq() >= seq
		if !waitUntil(time.Second, func() bool { return victim.wal.DurableSeq() >= seq }) {
			t.Fatalf("%s never synced %s", victim.ID(), cmd)
		}
		victim.Crash()
		if !ofLeader {
			leader.mu.Unlock()
		}
		<-done
		return !early && victim.wal.DurableSeq() >= seq
	}
}

// converge waits until every replica has applied every acknowledged
// proposal, and checks each applied it exactly once.
func (h *restartHarness) converge() {
	t := h.t
	t.Helper()
	h.mu.Lock()
	acked := slices.Clone(h.acked)
	h.mu.Unlock()
	ok := waitUntil(5*time.Second, func() bool {
		for _, rec := range h.recs {
			got := rec.snapshot()
			for _, cmd := range acked {
				if !slices.Contains(got, cmd) {
					return false
				}
			}
		}
		return true
	})
	for i, rec := range h.recs {
		seen := map[string]int{}
		for _, cmd := range rec.snapshot() {
			seen[cmd]++
		}
		for _, cmd := range acked {
			if seen[cmd] != 1 {
				t.Fatalf("replica %d applied acknowledged %s %d times (converged %v)\n%s", i, cmd, seen[cmd], ok, h.dump())
			}
		}
	}
}

// dump describes every replica, for a failure message.
func (h *restartHarness) dump() string {
	var b strings.Builder
	for i, r := range h.rs {
		r.mu.Lock()
		fmt.Fprintf(&b, "%s: stopped %v role %v term %d commit %d applied %d durable %d log (%d, %d] applied %v\n",
			r.id, r.stopped(), r.role, r.term, r.commitIndex, r.lastApplied, r.durableIndex,
			r.log[0].Index, r.log[len(r.log)-1].Index, h.recs[i].snapshot())
		r.mu.Unlock()
	}
	return b.String()
}

func (h *restartHarness) check() {
	h.t.Helper()
	checkGroup(h.t, h.chk, h.recs)
}

// TestInvariantCheckerCatchesViolations: the hook itself fails on the
// states it exists to catch — two logs that disagree at a committed
// index, and a commit index that moved back.
func TestInvariantCheckerCatchesViolations(t *testing.T) {
	rs, recs := newTestGroup(t, 3, 0, nil)
	leader, err := WaitLeader(rs, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := leader.Propose([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if !waitUntil(2*time.Second, func() bool {
		for _, rec := range recs {
			if len(rec.snapshot()) == 0 {
				return false
			}
		}
		return true
	}) {
		t.Fatal("the group never applied x")
	}
	chk := NewChecker(rs)
	if err := chk.Check(); err != nil {
		t.Fatal(err)
	}
	f := rs[0]
	if f == leader {
		f = rs[1]
	}
	f.mu.Lock()
	idx := f.commitIndex
	f.log[idx-f.log[0].Index].Cmd = []byte("y")
	f.mu.Unlock()
	if err := chk.Check(); err == nil {
		t.Error("a committed entry that differs between replicas passed the check")
	}
	f.mu.Lock()
	f.log[idx-f.log[0].Index].Cmd = []byte("x")
	f.mu.Unlock()
	if err := chk.Check(); err != nil {
		t.Fatal(err)
	}
	for i := range chk.high {
		chk.high[i]++ // as if an earlier Check had seen one more entry committed
	}
	if err := chk.Check(); err == nil {
		t.Error("a commit index that fell passed the check")
	}
}

// durableView is what a Restart of r would rebuild right now: the term,
// vote and log its WAL's durable records replay to.
func durableView(r *Raft) (term uint64, vote string, log []Entry) {
	v := &Raft{id: r.id, wal: r.wal, log: []Entry{{}}}
	v.replayLocked()
	return v.term, v.votedFor, v.log
}

// TestAcknowledgedIsDurable: what an election and a commit count is on
// disk, not only in memory. The elected leader's term and the votes
// that elected it are durable on a majority, and so is every entry a
// proposal was acknowledged for, with pipelining on and off.
func TestAcknowledgedIsDurable(t *testing.T) {
	for _, pipeline := range []bool{false, true} {
		t.Run(fmt.Sprintf("pipeline=%v", pipeline), func(t *testing.T) {
			rs, _ := newTestGroup(t, 3, 0, func(c *Config) {
				c.BatchEnabled, c.Pipeline = pipeline, pipeline
				c.FsyncCost = 2 * time.Millisecond
				c.ElectionTimeout = time.Second
			})
			leader, err := WaitLeader(rs, 5*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			_, term, _ := leader.Status()
			votes := 0
			for _, r := range rs {
				if dt, dv, _ := durableView(r); dt == term && dv == leader.ID() {
					votes++
				}
			}
			if votes < 2 {
				t.Fatalf("term %d and the vote for %s are durable on %d replicas, want a majority", term, leader.ID(), votes)
			}
			for i := 0; i < 10; i++ {
				idx, err := leader.Propose([]byte(fmt.Sprintf("p%d", i)))
				if err != nil {
					t.Fatal(err)
				}
				holders := 0
				for _, r := range rs {
					if _, _, log := durableView(r); idx <= log[len(log)-1].Index && idx > log[0].Index &&
						string(log[idx-log[0].Index].Cmd) == fmt.Sprintf("p%d", i) {
						holders++
					}
				}
				if holders < 2 {
					t.Fatalf("acknowledged entry %d is durable on %d replicas, want a majority", idx, holders)
				}
			}
		})
	}
}
