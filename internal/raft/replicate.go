package raft

import (
	"slices"
	"time"
)

// fsync simulates one durable log sync: syncs on a node serialise on the
// replica's disk and each costs FsyncCost. This is the bottleneck that
// proposal batching amortises (§5.2.3).
func (r *Raft) fsync() {
	r.metrics.add(1, 0, 0, 0)
	if r.cfg.FsyncCost <= 0 {
		return
	}
	r.disk.Lock()
	time.Sleep(r.cfg.FsyncCost)
	r.disk.Unlock()
}

// leaderLoop ingests proposals for the given term, appends them to the
// log (batched when enabled), and coordinates per-peer replicators. It
// exits when leadership or the term is lost.
func (r *Raft) leaderLoop(term uint64) {
	defer r.wg.Done()

	// Append a no-op entry for the new term immediately: a Raft leader
	// only learns the commit status of previous terms' entries once an
	// entry of its own term commits, and reads gate on that knowledge
	// (handleReadIndex refuses until then). The no-op makes the new
	// leader's commit index catch up with everything already committed.
	r.mu.Lock()
	if r.role == Leader && r.term == term {
		idx, _ := r.lastLogLocked()
		r.log = append(r.log, Entry{Term: term, Index: idx + 1})
		r.metrics.add(0, 1, 0, 0)
	}
	noop, _ := r.lastLogLocked()
	r.mu.Unlock()
	r.fsync()
	r.advanceDurable(noop)
	r.maybeAdvanceCommit(term)

	// Per-peer replicators.
	type kicker chan struct{}
	kicks := make(map[string]kicker, len(r.peers))
	done := make(chan struct{})
	defer close(done)
	for id, p := range r.peers {
		k := make(kicker, 1)
		kicks[id] = k
		r.wg.Add(1)
		go r.replicateTo(term, p, k, done)
	}
	if r.cfg.Pipeline {
		r.wg.Add(1)
		go r.syncLoop(term, done)
	}
	kickAll := func() {
		for _, k := range kicks {
			select {
			case k <- struct{}{}:
			default:
			}
		}
	}
	// Ship the no-op now rather than at the first heartbeat: reads are
	// refused until it commits (handleReadIndex).
	kickAll()

	heartbeat := time.NewTicker(r.cfg.HeartbeatInterval)
	defer heartbeat.Stop()

	for {
		select {
		case <-r.stopCh:
			r.mu.Lock()
			r.failPendingLocked()
			r.mu.Unlock()
			return
		case <-heartbeat.C:
			if !r.stillLeader(term) {
				return
			}
			if !r.quorumReachable() {
				// Check-quorum: isolated from the majority — step down so
				// writes fail fast and another voter can win an election.
				r.mu.Lock()
				if r.role == Leader && r.term == term {
					r.becomeFollowerLocked(r.term, "")
				}
				r.mu.Unlock()
				return
			}
			kickAll()
		case p := <-r.proposeCh:
			batch, bytes, reason := r.collectBatch(p)
			r.mu.Lock()
			if r.role != Leader || r.term != term {
				r.mu.Unlock()
				for _, q := range batch {
					q.done <- proposalResult{err: errNotLeader()}
				}
				return
			}
			now := time.Now()
			var last uint64
			for _, q := range batch {
				idx, _ := r.lastLogLocked()
				e := Entry{Term: term, Index: idx + 1, Cmd: q.cmd}
				r.log = append(r.log, e)
				last = e.Index
				q.appended = now
				q.term = term
				if r.pending == nil {
					r.pending = make(map[uint64]*proposal)
				}
				r.pending[e.Index] = q
			}
			r.metrics.noteAppend(int64(len(batch)), int64(bytes), reason)
			r.mu.Unlock()
			if r.cfg.Pipeline {
				// Stream AppendEntries right away; the sync stage makes
				// the batch durable and commit advances from there.
				kickAll()
				select {
				case r.syncCh <- struct{}{}:
				default:
				}
			} else {
				r.fsync()
				r.advanceDurable(last)
				r.maybeAdvanceCommit(term) // single-voter groups commit locally
				kickAll()
			}
		}
	}
}

// maxBatchBytes bounds the command bytes folded into one append.
const maxBatchBytes = 1 << 20

// collectBatch gathers the leader's next proposal batch behind the
// count/byte window and reports why it was closed. The batch closes as
// soon as the ingest queue drains, so an idle group pays no added
// latency; batching still emerges under load because proposals queue
// behind the in-flight fsync.
func (r *Raft) collectBatch(first *proposal) (batch []*proposal, bytes int, reason flushReason) {
	batch = []*proposal{first}
	bytes = len(first.cmd)
	if !r.cfg.BatchEnabled {
		return batch, bytes, flushIdle
	}
	for {
		if len(batch) >= r.cfg.MaxBatch {
			return batch, bytes, flushCount
		}
		if bytes >= maxBatchBytes {
			return batch, bytes, flushBytes
		}
		select {
		case q := <-r.proposeCh:
			batch = append(batch, q)
			bytes += len(q.cmd)
		default:
			return batch, bytes, flushIdle
		}
	}
}

// advanceDurable raises durableIndex to idx (never past the current log
// end, which a follower's log truncation could have moved back).
func (r *Raft) advanceDurable(idx uint64) {
	r.mu.Lock()
	if last, _ := r.lastLogLocked(); idx > last {
		idx = last
	}
	if idx > r.durableIndex {
		r.durableIndex = idx
	}
	r.mu.Unlock()
}

// syncLoop is the pipelined leader's log-sync stage: replicators stream
// entries to followers as soon as they are appended in memory, while
// this loop makes them durable in the background. Appends that arrive
// while one fsync is in flight coalesce into a single follow-up sync
// (leader-side group commit), and durableIndex — the leader's own
// acknowledgement in the commit rule — only advances once the covering
// fsync completes.
func (r *Raft) syncLoop(term uint64, done chan struct{}) {
	defer r.wg.Done()
	for {
		select {
		case <-r.stopCh:
			return
		case <-done:
			return
		case <-r.syncCh:
		}
		for {
			r.mu.Lock()
			if r.role != Leader || r.term != term {
				r.mu.Unlock()
				return
			}
			last, _ := r.lastLogLocked()
			if r.durableIndex >= last {
				r.mu.Unlock()
				break
			}
			r.mu.Unlock()
			r.fsync()
			r.advanceDurable(last)
			r.maybeAdvanceCommit(term)
		}
	}
}

func (r *Raft) stillLeader(term uint64) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.role == Leader && r.term == term
}

// failPendingLocked rejects every proposal this leader accepted and has
// not applied, and every one still queued for it, with ErrNotLeader
// (leadership lost or shutdown). An accepted entry may yet commit under
// the next leader; callers retry there, relying on command idempotence.
// Caller holds r.mu.
func (r *Raft) failPendingLocked() {
	for _, p := range r.pending {
		p.done <- proposalResult{err: errNotLeader()}
	}
	clear(r.pending)
	for {
		select {
		case p := <-r.proposeCh:
			p.done <- proposalResult{err: errNotLeader()}
		default:
			return
		}
	}
}

// replicateTo drives one peer: whenever kicked (new entries or
// heartbeat), it sends AppendEntries from the peer's nextIndex and
// processes the reply. It exits with the leader term.
func (r *Raft) replicateTo(term uint64, p *peer, kick chan struct{}, done chan struct{}) {
	defer r.wg.Done()
	for {
		select {
		case <-r.stopCh:
			return
		case <-done:
			return
		case <-kick:
		}
		for {
			r.mu.Lock()
			if r.role != Leader || r.term != term {
				r.mu.Unlock()
				return
			}
			next := r.nextIndex[p.id]
			first := r.firstIndexLocked()
			if next <= first {
				// The peer needs entries compacted away: install the
				// snapshot, then resume appending after it.
				snapIdx, snapTerm := first, r.log[0].Term
				data := r.snapData
				r.mu.Unlock()
				if p.link.Deliver() != nil {
					break // message lost; retry on next kick
				}
				ok, replyTerm := p.handleInstallSnapshot(term, r.id, snapIdx, snapTerm, data)
				r.mu.Lock()
				if r.role != Leader || r.term != term {
					r.mu.Unlock()
					return
				}
				if replyTerm > r.term {
					r.becomeFollowerLocked(replyTerm, "")
					r.mu.Unlock()
					return
				}
				if ok {
					r.touchPeerLocked(p.id)
					if snapIdx > r.matchIndex[p.id] {
						r.matchIndex[p.id] = snapIdx
					}
					r.nextIndex[p.id] = r.matchIndex[p.id] + 1
				}
				r.mu.Unlock()
				if !ok {
					break // peer stopped; retry on next kick
				}
				continue
			}
			if next == 0 {
				next = 1
			}
			prev := r.entryAtLocked(next - 1)
			entries := append([]Entry(nil), r.log[next-first:]...)
			commit := r.commitIndex
			r.mu.Unlock()

			if p.link.Deliver() != nil {
				break // message lost in the fabric; retry on next kick
			}
			ok, replyTerm, conflictHint := p.handleAppendEntries(
				term, r.id, prev.Index, prev.Term, entries, commit)

			r.mu.Lock()
			if r.role != Leader || r.term != term {
				r.mu.Unlock()
				return
			}
			if replyTerm > r.term {
				r.becomeFollowerLocked(replyTerm, "")
				r.mu.Unlock()
				return
			}
			if replyTerm == 0 {
				// Peer stopped; retry on the next kick.
				r.mu.Unlock()
				break
			}
			r.touchPeerLocked(p.id)
			if ok {
				if n := prev.Index + uint64(len(entries)); n > r.matchIndex[p.id] {
					r.matchIndex[p.id] = n
				}
				r.nextIndex[p.id] = r.matchIndex[p.id] + 1
				r.mu.Unlock()
				r.maybeAdvanceCommit(term)
				break
			}
			// Log inconsistency: back off nextIndex and retry (the
			// snapshot path above handles hints below the compaction
			// boundary).
			if conflictHint > 0 && conflictHint < next {
				r.nextIndex[p.id] = conflictHint
			} else if next > 1 {
				r.nextIndex[p.id] = next - 1
			}
			r.mu.Unlock()
		}
	}
}

// maybeAdvanceCommit recomputes the commit index from voter match
// indices.
func (r *Raft) maybeAdvanceCommit(term uint64) {
	r.mu.Lock()
	if r.role != Leader || r.term != term {
		r.mu.Unlock()
		return
	}
	var buf [8]uint64 // groups up to 8 voters need no heap
	matches := buf[:0]
	if !r.cfg.Learner {
		// The leader's own vote is its durable index: with pipelined
		// replication the log tail may be appended but not yet fsynced,
		// and those entries must not count toward quorum.
		matches = append(matches, r.durableIndex)
	}
	for id, p := range r.peers {
		if p.IsLearner() {
			continue
		}
		matches = append(matches, r.matchIndex[id])
	}
	// The quorum index is the highest index at least a majority of voters
	// hold: in ascending order, the majority-th from the top.
	quorum := r.voters/2 + 1
	if len(matches) < quorum {
		r.mu.Unlock()
		return
	}
	slices.Sort(matches)
	n := matches[len(matches)-quorum]
	if n > r.commitIndex && n >= r.firstIndexLocked() && r.entryAtLocked(n).Term == term {
		r.commitIndex = n
		r.kickApplier()
	}
	r.mu.Unlock()
}

// handleAppendEntries is the AppendEntries RPC handler (also heartbeat).
// replyTerm 0 signals a stopped replica.
func (r *Raft) handleAppendEntries(term uint64, leader string, prevIdx, prevTerm uint64,
	entries []Entry, leaderCommit uint64) (ok bool, replyTerm uint64, conflictHint uint64) {

	if r.stopped() {
		return false, 0, 0
	}
	r.mu.Lock()
	if term < r.term {
		defer r.mu.Unlock()
		return false, r.term, 0
	}
	if term > r.term || r.role == Candidate || (r.role == Leader && term >= r.term) {
		r.becomeFollowerLocked(term, leader)
	}
	r.leaderID = leader
	r.electionReset = time.Now()
	// Record the advertised leader commit as the bounded-staleness read
	// point: the leader had committed leaderCommit as of this exchange,
	// whatever the state of our log below.
	if leaderCommit > r.staleCommit {
		r.staleCommit = leaderCommit
	}
	r.staleContact = time.Now()

	// Once the consistency check below passes, the log matches the
	// leader's through the last entry of this message.
	verified := prevIdx + uint64(len(entries))
	lastIdx, _ := r.lastLogLocked()
	first := r.firstIndexLocked()
	if prevIdx > lastIdx {
		defer r.mu.Unlock()
		return false, r.term, lastIdx + 1
	}
	if prevIdx < first {
		// The prefix up to first is covered by our snapshot (committed
		// state), so it cannot conflict: skip entries at or below it.
		skip := first - prevIdx
		if uint64(len(entries)) <= skip {
			defer r.mu.Unlock()
			return true, r.term, 0
		}
		entries = entries[skip:]
		prevIdx = first
		prevTerm = r.log[0].Term
	}
	if r.entryAtLocked(prevIdx).Term != prevTerm {
		// Find the first index of the conflicting term.
		conflictTerm := r.entryAtLocked(prevIdx).Term
		hint := prevIdx
		for hint > first+1 && r.entryAtLocked(hint-1).Term == conflictTerm {
			hint--
		}
		defer r.mu.Unlock()
		return false, r.term, hint
	}
	// Append new entries, truncating conflicts.
	appended := false
	for i, e := range entries {
		at := prevIdx + 1 + uint64(i)
		if at <= lastIdx {
			if r.entryAtLocked(at).Term == e.Term {
				continue
			}
			r.log = r.log[:at-first]
			lastIdx = at - 1
		}
		r.log = append(r.log, e)
		lastIdx = e.Index
		appended = true
	}
	// Commit what this leader has reported committed — here or in an
	// earlier ReadIndex reply that ran ahead of these entries — within
	// the prefix it has verified.
	r.learnLocked(term, verified, leaderCommit)
	newLast := lastIdx
	curTerm := r.term
	r.mu.Unlock()
	if appended {
		// Followers sync before acking: an ok reply always implies the
		// appended entries are durable, whether or not the leader
		// pipelines its own sync.
		r.fsync()
		r.advanceDurable(newLast)
	}
	return true, curTerm, 0
}

// handleInstallSnapshot is the InstallSnapshot RPC handler: a follower
// that lags behind the leader's compacted log replaces its state machine
// with the leader's snapshot.
func (r *Raft) handleInstallSnapshot(term uint64, leader string, snapIdx, snapTerm uint64, data []byte) (ok bool, replyTerm uint64) {
	if r.stopped() {
		return false, 0
	}
	r.applyMu.Lock()
	defer r.applyMu.Unlock()
	r.mu.Lock()
	if term < r.term {
		defer r.mu.Unlock()
		return false, r.term
	}
	if term > r.term || r.role == Candidate {
		r.becomeFollowerLocked(term, leader)
	}
	r.leaderID = leader
	r.electionReset = time.Now()
	if snapIdx > r.staleCommit {
		r.staleCommit = snapIdx
	}
	r.staleContact = time.Now()
	if snapIdx <= r.lastApplied {
		// Already past this snapshot.
		defer r.mu.Unlock()
		return true, r.term
	}
	sm, _ := r.cfg.SM.(Snapshotter)
	if sm == nil {
		// Cannot restore: reject so the leader keeps its log long enough
		// (NewGroup validation prevents this configuration).
		defer r.mu.Unlock()
		return false, r.term
	}
	r.log = []Entry{{Term: snapTerm, Index: snapIdx}}
	r.snapData = data
	r.commitIndex = snapIdx
	r.lastApplied = snapIdx
	// The log is now exactly the leader's committed prefix up to snapIdx.
	r.view = leaderView{term: r.term, verified: snapIdx, commit: snapIdx}
	r.mu.Unlock()
	// Still under applyMu: the applier cannot apply a pre-snapshot entry
	// onto the restored state or rewind lastApplied behind the new log.
	sm.Restore(data)
	r.mu.Lock()
	r.applyCond.Broadcast()
	r.mu.Unlock()
	r.fsync()
	r.advanceDurable(snapIdx)
	return true, r.term
}
