package raft

import (
	"fmt"
	"sync"
	"time"

	"mantle/internal/types"
)

var readWaitTimeout = 5 * time.Second

type readResult struct {
	idx uint64
	err error
}

// readState batches concurrent follower-read index queries into one
// leader RPC per round, as §5.1.3 describes ("queries for the commitIndex
// are batched"): readers that arrive while a query is in flight join the
// next round rather than each issuing their own RPC.
type readState struct {
	mu      sync.Mutex
	waiters []chan readResult
	running bool
}

// ReadIndex returns an index such that any read of state applied up to it
// is linearisable at the time of the call.
//
// On the leader this is the current commit index. (A production
// implementation confirms leadership with a heartbeat round first; in
// this single-process reproduction there are no network partitions, so a
// deposed leader observes its own step-down before serving — the
// simplification is documented in DESIGN.md.)
//
// On a follower or learner the replica queries the leader for its commit
// index through the read batcher; the caller then waits for local apply
// to catch up via WaitApplied.
func (r *Raft) ReadIndex() (uint64, error) {
	if r.stopped() {
		return 0, types.ErrStopped
	}
	r.mu.Lock()
	if r.role == Leader {
		idx := r.commitIndex
		r.mu.Unlock()
		return idx, nil
	}
	r.mu.Unlock()

	ch := make(chan readResult, 1)
	r.reads.mu.Lock()
	r.reads.waiters = append(r.reads.waiters, ch)
	if !r.reads.running {
		r.reads.running = true
		go r.serveReadBatches()
	}
	r.reads.mu.Unlock()

	select {
	case res := <-ch:
		return res.idx, res.err
	case <-r.stopCh:
		return 0, types.ErrStopped
	}
}

// serveReadBatches drains waiter rounds: one leader RPC per round, shared
// by every waiter that had arrived by the time the round started.
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

// queryLeaderCommit issues one RPC to the current leader for its commit
// index.
func (r *Raft) queryLeaderCommit() readResult {
	r.mu.Lock()
	leaderID := r.leaderID
	r.mu.Unlock()
	if leaderID == "" {
		return readResult{err: types.ErrNotLeader}
	}
	leader, ok := r.peers[leaderID]
	if !ok {
		return readResult{err: types.ErrNotLeader}
	}
	if err := r.deliver(leader); err != nil {
		// Leader unreachable (partition or blackhole): surface the fabric
		// error so callers can distinguish "no leader known" from "leader
		// cut off" and degrade accordingly.
		return readResult{err: err}
	}
	if leader.stopped() {
		return readResult{err: types.ErrNotLeader}
	}
	if role, _, _ := leader.Status(); role != Leader {
		return readResult{err: types.ErrNotLeader}
	}
	return readResult{idx: leader.CommitIndex()}
}

// ConsistentRead performs fn once the replica is read-consistent: it
// obtains a ReadIndex and waits for local apply to reach it. Works on the
// leader, followers, and learners.
func (r *Raft) ConsistentRead(fn func() error) error {
	idx, err := r.ReadIndex()
	if err != nil {
		return err
	}
	if err := r.waitAppliedTimeout(idx, readWaitTimeout); err != nil {
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
	if err := r.waitAppliedTimeout(idx, readWaitTimeout); err != nil {
		return err
	}
	return fn()
}
