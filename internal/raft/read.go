package raft

import (
	"fmt"
	"sync"
	"time"

	"mantle/internal/types"
)

// Consistent reads (§5.1.3).
//
// A read is served at a read index: an index such that state applied up
// to it reflects every write acknowledged before the read began.
//
// On the leader the read index is its current commit index, returned
// without a round of heartbeats, once an entry of the leader's own term
// has committed (Raft dissertation §6.4 step 1). Before its no-op
// commits, a fresh leader's commit index may sit below its
// predecessor's, so until then it refuses ReadIndex — its own and its
// followers' — with ErrNotLeader, which callers retry; leaderLoop ships
// the no-op at once, so the refusal lasts one replication round.
//
// That is linearisable only while the replica really is the leader of
// the latest term, and that gap stays open (ROADMAP, leases item). The
// fabric can partition (internal/faults), and an isolated leader keeps
// its role until check-quorum steps it down — up to 2× its election
// timeout — while the majority side may elect and commit after one
// timeout, so in that window the minority-side leader answers ReadIndex
// from a commit index that no longer covers the latest acknowledged
// write.
//
// On a follower or learner the read costs exactly one round trip to the
// leader and, uncontended, nothing else: the calling goroutine asks the
// leader for its (term, commitIndex) itself. Readers that arrive while
// that query is in flight queue behind it and share one later query —
// the paper's "queries for the commitIndex are batched". The reply also
// advances the follower: within one term the leader's log is
// append-only and the follower has matched a prefix of it (leaderView),
// so everything the leader reports committed inside that prefix is
// committed here too, and the reader need not wait for the next
// heartbeat to be told so.

var readWaitTimeout = 5 * time.Second

type readResult struct {
	idx uint64
	err error
}

// readState batches concurrent follower-read index queries: at most one
// leader query (a round) is in flight per replica, and a reader is only
// ever served by a round whose query started after the reader arrived.
type readState struct {
	mu      sync.Mutex
	running bool              // a round is in flight
	waiters []chan readResult // readers waiting for the next round
}

// leaderView is what a follower has learnt from the leader of one term:
// the prefix of its log that an AppendEntries or InstallSnapshot of that
// term matched against the leader's, and the highest commit index that
// leader has reported, by those or by a ReadIndex reply. The leader's
// log is append-only for the term, so min(commit, verified) is committed
// on this replica. Nothing carries over to another term: a prefix
// matched against one leader says nothing about what a different
// leader's commit index covers.
type leaderView struct {
	term     uint64
	verified uint64
	commit   uint64
}

// learnLocked folds a report from the leader of term into the view and
// raises commitIndex to what the view proves committed. A report from
// any term but the replica's current one is dropped. Caller holds r.mu.
func (r *Raft) learnLocked(term, verified, commit uint64) {
	if term != r.term {
		return
	}
	if r.view.term != term {
		r.view = leaderView{term: term}
	}
	r.view.verified = max(r.view.verified, verified)
	r.view.commit = max(r.view.commit, commit)
	if c := min(r.view.commit, r.view.verified); c > r.commitIndex {
		r.commitIndex = c
		r.kickApplier()
	}
}

// ReadIndex returns an index such that any read of state applied up to it
// observes every write acknowledged before the call (see the file
// comment for what the leader path leaves open). On the leader it is the
// commit index, refused with ErrNotLeader until the leader's own term has
// committed an entry; on a follower or learner it is the leader's commit
// index, fetched by this goroutine or shared with a batch of readers.
// The caller then waits for local apply to reach it (ConsistentRead).
func (r *Raft) ReadIndex() (uint64, error) {
	if r.stopped() {
		return 0, types.ErrStopped
	}
	if r.Role() == Leader {
		_, commit, ok := r.handleReadIndex()
		if !ok {
			return 0, types.ErrNotLeader
		}
		return commit, nil
	}

	r.reads.mu.Lock()
	if !r.reads.running {
		// Uncontended: run the round on this goroutine.
		r.reads.running = true
		r.reads.mu.Unlock()
		res := r.queryLeaderCommit()
		r.reads.mu.Lock()
		if len(r.reads.waiters) == 0 {
			r.reads.running = false
		} else {
			// Readers queued behind this round: their query must start
			// after they arrived, so they get rounds of their own.
			go r.serveReadBatches()
		}
		r.reads.mu.Unlock()
		return res.idx, res.err
	}
	ch := make(chan readResult, 1)
	r.reads.waiters = append(r.reads.waiters, ch)
	r.reads.mu.Unlock()

	select {
	case res := <-ch:
		return res.idx, res.err
	case <-r.stopCh:
		return 0, types.ErrStopped
	}
}

// serveReadBatches drains waiter rounds: one leader RPC per round, shared
// by every waiter that had arrived by the time the round started. It is
// started by the inline round that found readers queued behind it, and
// owns reads.running until the queue is empty.
func (r *Raft) serveReadBatches() {
	for {
		r.reads.mu.Lock()
		waiters := r.reads.waiters
		r.reads.waiters = nil
		if len(waiters) == 0 {
			r.reads.running = false
			r.reads.mu.Unlock()
			return
		}
		r.reads.mu.Unlock()

		res := r.queryLeaderCommit()
		for _, ch := range waiters {
			ch <- res
		}
	}
}

// handleReadIndex is the leader side of the ReadIndex RPC, and the
// leader's own read index: role, term and commit index read under one
// lock acquisition, so the reply cannot pair one term's commit index with
// another's term. ok is false off the leader, and on a leader whose
// commit index does not yet reach an entry of its own term.
func (r *Raft) handleReadIndex() (term, commit uint64, ok bool) {
	if r.stopped() {
		return 0, 0, false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	ok = r.role == Leader && r.entryAtLocked(r.commitIndex).Term == r.term
	return r.term, r.commitIndex, ok
}

// queryLeaderCommit issues one RPC to the current leader for its commit
// index and folds the reply into this replica's view of that leader.
func (r *Raft) queryLeaderCommit() readResult {
	r.mu.Lock()
	leaderID := r.leaderID
	r.mu.Unlock()
	leader, ok := r.peers[leaderID]
	if !ok {
		return readResult{err: types.ErrNotLeader}
	}
	if err := leader.link.Deliver(); err != nil {
		// Leader unreachable (partition or blackhole): surface the fabric
		// error so callers can distinguish "no leader known" from "leader
		// cut off" and degrade accordingly.
		return readResult{err: err}
	}
	term, commit, ok := leader.handleReadIndex()
	if !ok {
		return readResult{err: types.ErrNotLeader}
	}
	r.mu.Lock()
	r.learnLocked(term, 0, commit)
	r.mu.Unlock()
	return readResult{idx: commit}
}

// ConsistentRead performs fn once the replica is read-consistent: it
// obtains a ReadIndex and waits for local apply to reach it. Works on the
// leader, followers, and learners.
func (r *Raft) ConsistentRead(fn func() error) error {
	idx, err := r.ReadIndex()
	if err != nil {
		return err
	}
	if err := r.waitApplied(idx, readWaitTimeout); err != nil {
		return err
	}
	return fn()
}

// ErrStale reports that a bounded-staleness read could not be served
// locally because the replica's last leader contact is older than the
// caller's staleness bound (partitioned or lagging replica). Callers
// fall back to a linearisable ConsistentRead.
var ErrStale = fmt.Errorf("raft: leader contact exceeds staleness bound: %w", types.ErrUnavailable)

// BoundedStaleRead performs fn at a bounded-staleness read point with no
// leader round trip: the replica uses the leader commit index advertised
// by the most recent AppendEntries/heartbeat exchange as its read index,
// provided that exchange happened within maxStale. After local apply
// catches up to that index, fn observes every write that was committed
// at the leader as of (now − maxStale) — the staleness promise — because
// the leader advertises its commit index on every exchange and exchanges
// are at most a heartbeat interval apart (configure maxStale comfortably
// above HeartbeatInterval).
//
// On the leader it degenerates to a local consistent read. On a replica
// without fresh leader contact it fails with ErrStale instead of serving
// data of unknown age.
func (r *Raft) BoundedStaleRead(maxStale time.Duration, fn func() error) error {
	if r.stopped() {
		return types.ErrStopped
	}
	r.mu.Lock()
	var idx uint64
	if r.role == Leader {
		idx = r.commitIndex
	} else {
		if r.staleContact.IsZero() || time.Since(r.staleContact) > maxStale {
			r.mu.Unlock()
			return ErrStale
		}
		idx = r.staleCommit
	}
	r.mu.Unlock()
	if err := r.waitApplied(idx, readWaitTimeout); err != nil {
		return err
	}
	return fn()
}
