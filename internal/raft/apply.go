package raft

import (
	"fmt"
	"sync"
	"time"

	"mantle/internal/types"
)

func errNotLeader() error { return types.ErrNotLeader }

// Propose submits cmd to the leader's log and blocks until the entry is
// committed and applied on this replica, returning its log index. On a
// non-leader (or if leadership is lost mid-flight) it fails with
// types.ErrNotLeader and the caller retries against the current leader.
func (r *Raft) Propose(cmd []byte) (uint64, error) {
	return r.ProposeTimeout(cmd, 0)
}

// ProposeTimeout is Propose with a bound on how long the proposal may
// wait for commit (0 means forever). When the group has no reachable
// quorum — a partitioned leader keeps accepting proposals until
// check-quorum steps it down — the entry cannot commit; the timeout
// fails the call with types.ErrTimeout so the caller can fail fast
// instead of hanging. An abandoned entry may still commit later; callers
// that retry rely on command idempotence, as they already do across
// leader changes.
func (r *Raft) ProposeTimeout(cmd []byte, d time.Duration) (uint64, error) {
	r.mu.Lock()
	if r.role != Leader {
		r.mu.Unlock()
		return 0, types.ErrNotLeader
	}
	r.mu.Unlock()
	var timeout <-chan time.Time
	fired := false
	if d > 0 {
		tm := getTimer(d)
		defer func() { putTimer(tm, fired) }()
		timeout = tm.C
	}
	p := &proposal{cmd: cmd, done: make(chan proposalResult, 1), enqueued: time.Now()}
	stop := r.life.Load().stop
	select {
	case r.proposeCh <- p:
	case <-stop:
		return 0, types.ErrStopped
	case <-timeout:
		fired = true
		return 0, fmt.Errorf("raft: proposal not accepted within %s: %w", d, types.ErrTimeout)
	}
	select {
	case res := <-p.done:
		return res.index, res.err
	case <-stop:
		return 0, types.ErrStopped
	case <-timeout:
		fired = true
		// The proposal stays pending; its buffered done channel absorbs a
		// late completion without leaking a goroutine.
		return 0, fmt.Errorf("raft: proposal not committed within %s: %w", d, types.ErrTimeout)
	}
}

// timerPool recycles proposal timers. A timer goes back stopped with its
// channel empty, so Reset re-arms it cleanly under both the asynchronous
// timer channels of go.mod's go 1.22 and the synchronous ones after 1.23.
var timerPool sync.Pool

func getTimer(d time.Duration) *time.Timer {
	if tm, ok := timerPool.Get().(*time.Timer); ok {
		tm.Reset(d)
		return tm
	}
	return time.NewTimer(d)
}

// putTimer recycles tm; fired reports whether its value was received.
func putTimer(tm *time.Timer, fired bool) {
	if !tm.Stop() && !fired {
		// Expired but not received: an asynchronous channel holds (or is
		// about to hold) the value. A synchronous one never gets here, as
		// its Stop drains and reports true.
		<-tm.C
	}
	timerPool.Put(tm)
}

// applier applies committed entries to the state machine in order and
// completes pending proposals on the leader.
func (r *Raft) applier(l *life) {
	defer l.wg.Done()
	for {
		select {
		case <-l.stop:
			return
		case <-r.applyCh:
		}
		for r.applyNext() {
			r.maybeCompact()
		}
	}
}

// applyNext applies the next committed entry, if any, and completes its
// pending proposal on the leader. It holds applyMu from reading the
// entry to advancing lastApplied, so lastApplied only ever moves
// forward by one here and a snapshot install waits its turn.
func (r *Raft) applyNext() bool {
	r.applyMu.Lock()
	r.mu.Lock()
	if r.lastApplied >= r.commitIndex {
		r.mu.Unlock()
		r.applyMu.Unlock()
		return false
	}
	idx := r.lastApplied + 1
	entry := r.entryAtLocked(idx)
	r.mu.Unlock()

	// No-op entries (leader-election barriers) skip the state machine.
	if r.cfg.SM != nil && len(entry.Cmd) > 0 {
		r.cfg.SM.Apply(entry.Index, entry.Cmd)
	}

	r.mu.Lock()
	r.lastApplied = idx
	var p *proposal
	if r.pending != nil {
		p = r.pending[idx]
		delete(r.pending, idx)
	}
	r.applyCond.Broadcast()
	r.mu.Unlock()
	r.applyMu.Unlock()
	if p != nil && p.term != entry.Term {
		// Another leader's entry landed at the proposal's index: the
		// proposal was discarded with the log suffix it was appended to.
		p.done <- proposalResult{err: errNotLeader()}
	} else if p != nil {
		now := time.Now()
		r.metrics.mu.Lock()
		r.metrics.IngestWait += p.appended.Sub(p.enqueued)
		r.metrics.CommitWait += now.Sub(p.appended)
		r.metrics.mu.Unlock()
		if r.cfg.ProposeLatency != nil {
			r.cfg.ProposeLatency.Observe(now.Sub(p.enqueued))
		}
		p.done <- proposalResult{index: idx}
	}
	return true
}

// maybeCompact snapshots the state machine and truncates the applied log
// prefix once it exceeds the configured threshold.
func (r *Raft) maybeCompact() {
	if r.cfg.SnapshotThreshold > 0 {
		r.compact(uint64(r.cfg.SnapshotThreshold))
	}
}

// Checkpoint makes the state machine's current state durable as a
// snapshot, for state loaded beside the log (IndexNode bulk population)
// that a Restart must not lose. A no-op without a log.
func (r *Raft) Checkpoint() {
	if r.wal != nil {
		r.compact(0)
	}
}

// compact snapshots the state machine at lastApplied, once at least
// threshold entries have been applied past the previous snapshot, and
// drops the log prefix the snapshot covers — from the WAL too, once the
// snapshot's record is durable. The snapshot is taken under applyMu, so it races
// neither Apply nor a snapshot install's Restore, and lastApplied cannot
// move while it is cut.
func (r *Raft) compact(threshold uint64) {
	sm, ok := r.cfg.SM.(Snapshotter)
	if !ok {
		return
	}
	r.applyMu.Lock()
	r.mu.Lock()
	applied := r.lastApplied
	if applied-r.firstIndexLocked() < threshold {
		r.mu.Unlock()
		r.applyMu.Unlock()
		return
	}
	r.mu.Unlock()

	// Snapshot outside r.mu: state-machine reads can be slow.
	data := sm.Snapshot()

	r.mu.Lock()
	cutTerm := r.entryAtLocked(applied).Term
	suffix := r.log[applied-r.firstIndexLocked()+1:]
	newLog := make([]Entry, 0, len(suffix)+1)
	newLog = append(newLog, Entry{Term: cutTerm, Index: applied})
	newLog = append(newLog, suffix...)
	r.log = newLog
	r.snapData = data
	r.stageSnapshotLocked()
	last, _ := r.lastLogLocked()
	epoch, seq := r.epoch, r.lastStaged
	r.mu.Unlock()
	r.applyMu.Unlock()
	if r.persist(epoch, seq, last) {
		r.trimWAL(seq)
	}
}

// waitApplied blocks until the replica has applied at least index. It
// gives up with types.ErrTimeout after d, so a partitioned replica does
// not hold its readers forever, and with types.ErrStopped when the
// replica stops. The common case — a caught-up replica — returns without
// arming anything; a waiter parks on applyCond and is woken by the
// applier, by Stop, or by its own deadline.
func (r *Raft) waitApplied(index uint64, d time.Duration) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.lastApplied >= index {
		return nil
	}
	deadline := time.Now().Add(d)
	wake := time.AfterFunc(d, func() {
		r.mu.Lock()
		r.applyCond.Broadcast()
		r.mu.Unlock()
	})
	defer wake.Stop()
	for r.lastApplied < index {
		if r.stopped() {
			return types.ErrStopped
		}
		if !time.Now().Before(deadline) {
			return fmt.Errorf("raft: index %d not applied within %s: %w", index, d, types.ErrTimeout)
		}
		r.applyCond.Wait()
	}
	return nil
}
