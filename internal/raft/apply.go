package raft

import (
	"fmt"
	"sync"
	"time"

	"mantle/internal/clock"
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
//
// Where no step of the round can park (inlineLocked), the proposer runs
// the round itself (proposeInline); otherwise leaderLoop batches the
// proposal with others queued behind a log sync or a round trip.
func (r *Raft) ProposeTimeout(cmd []byte, d time.Duration) (uint64, error) {
	r.mu.Lock()
	if r.role != Leader {
		r.mu.Unlock()
		return 0, types.ErrNotLeader
	}
	var p *proposal
	if r.inlineLocked() {
		idx, parked, err := r.proposeInline(cmd)
		if p = parked; p == nil {
			return idx, err
		}
	} else {
		r.mu.Unlock()
	}
	var timeout <-chan time.Time
	fired := false
	if d > 0 {
		tm := getTimer(d)
		defer func() { putTimer(tm, fired) }()
		timeout = tm.C
	}
	stop := r.life.Load().stop
	if p == nil {
		p = &proposal{cmd: cmd, done: make(chan proposalResult, 1), enqueued: clock.Mono()}
		select {
		case r.proposeCh <- p:
		case <-stop:
			return 0, types.ErrStopped
		case <-timeout:
			fired = true
			return 0, fmt.Errorf("raft: proposal not accepted within %s: %w", d, types.ErrTimeout)
		}
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

// inlineLocked reports whether a proposal may run its whole round on the
// proposer's goroutine: no step of it can park — the replica keeps no
// log to sync, and the fabric charges no round trip and has no fault
// hook to delay or drop a message — and nothing is ahead of it: not the
// term's no-op (leaderLoop's first round, done once an entry of the
// term has committed), not a proposal queued for leaderLoop, not another
// in-line round. Batching pays only where there is a wait to amortise
// (§5.1); elsewhere its hand-offs are the whole cost. Caller holds r.mu.
func (r *Raft) inlineLocked() bool {
	f := r.cfg.Fabric
	return r.wal == nil && f.RTT() == 0 && f.Faults() == nil && !r.stopped() &&
		r.entryAtLocked(r.commitIndex).Term == r.term && len(r.proposeCh) == 0 && !r.inlining.Load()
}

// proposeInline runs a proposal's round on the calling goroutine: it
// appends the entry, sends each peer whose nextIndex is the entry one
// AppendEntries, advances commit and applies through the entry. A peer
// that lags is kicked to its replicator instead, so no catch-up or
// snapshot install runs here. An entry the round did not commit is
// registered in r.pending and returned as parked, to be waited for like
// a queued one. Called with r.mu held; releases it.
func (r *Raft) proposeInline(cmd []byte) (idx uint64, parked *proposal, err error) {
	start := clock.Mono()
	r.inlining.Store(true) // under r.mu, which inlineLocked read it under
	defer r.inlining.Store(false)
	term := r.term
	idx, _ = r.lastLogLocked()
	idx++
	r.log = append(r.log, Entry{Term: term, Index: idx, Cmd: cmd})
	r.durableIndex = idx // no log to sync: appended is durable
	r.mu.Unlock()
	r.metrics.noteAppend(1, int64(len(cmd)), flushInline)
	for _, p := range r.peers {
		if r.sendOnce(term, p, idx) == sendAgain {
			r.mu.Lock()
			kick(p.kick)
			r.mu.Unlock()
		}
	}

	r.mu.Lock()
	moved := r.advanceCommitLocked(term)
	switch {
	case r.role != Leader || r.term != term:
		r.mu.Unlock()
		return 0, nil, types.ErrNotLeader
	case r.commitIndex < idx:
		// A quorum did not ack in the round (followers crashed, or
		// lagging): wait for the replicators, as a queued proposal does.
		parked = &proposal{cmd: cmd, term: term, done: make(chan proposalResult, 1), enqueued: start, appended: start}
		if r.pending == nil {
			r.pending = make(map[uint64]*proposal)
		}
		r.pending[idx] = parked
		if moved {
			r.kickApplier()
		}
		r.mu.Unlock()
		return 0, parked, nil
	}
	if r.commitIndex > idx {
		r.kickApplier() // entries after this one committed with it
	}
	r.mu.Unlock()
	// The entry is committed. Apply through it here, not on the applier:
	// waking it costs more than the apply. The applier may still be
	// applying beside this goroutine; applyMu orders the two, and
	// applyNext's 0 means all that is committed has applied — unless a
	// crash reset the log.
	for i := r.applyNext(); i != 0 && i < idx; i = r.applyNext() {
	}
	if r.stopped() {
		return 0, nil, types.ErrStopped
	}
	r.maybeCompact()
	wait := clock.Mono() - start
	r.metrics.mu.Lock()
	r.metrics.CommitWait += wait
	r.metrics.mu.Unlock()
	if r.cfg.ProposeLatency != nil {
		r.cfg.ProposeLatency.Observe(wait)
	}
	return idx, nil, nil
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
		for r.applyNext() > 0 {
			r.maybeCompact()
		}
	}
}

// applyNext applies the next committed entry, if any, and completes its
// pending proposal on the leader. It returns the entry's index, or 0
// when nothing is committed past lastApplied. It holds applyMu from
// reading the entry to advancing lastApplied, so lastApplied only ever
// moves forward by one here and a snapshot install waits its turn.
func (r *Raft) applyNext() uint64 {
	r.applyMu.Lock()
	r.mu.Lock()
	if r.lastApplied >= r.commitIndex {
		r.mu.Unlock()
		r.applyMu.Unlock()
		return 0
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
		now := clock.Mono()
		r.metrics.mu.Lock()
		r.metrics.IngestWait += p.appended - p.enqueued
		r.metrics.CommitWait += now - p.appended
		r.metrics.mu.Unlock()
		if r.cfg.ProposeLatency != nil {
			r.cfg.ProposeLatency.Observe(now - p.enqueued)
		}
		p.done <- proposalResult{index: idx}
	}
	return idx
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
