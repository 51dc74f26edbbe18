package raft

import (
	"fmt"
	"math"
	"slices"
	"time"

	"mantle/internal/clock"
)

// leaderLoop ingests proposals for the given term, appends them to the
// log (batched when enabled), and coordinates per-peer replicators. It
// exits when leadership or the term is lost.
func (r *Raft) leaderLoop(l *life, term uint64) {
	defer l.wg.Done()

	// Per-peer replicators.
	kicks := make([]chan struct{}, 0, len(r.peers))
	done := make(chan struct{})
	defer close(done)
	r.mu.Lock()
	current := r.role == Leader && r.term == term // a later term's loop may have set its own kicks
	for _, p := range r.peers {
		k := make(chan struct{}, 1)
		kicks = append(kicks, k)
		if current {
			p.kick = k
		}
		l.wg.Add(1)
		go r.replicateTo(l, term, p, k, done)
	}
	if current {
		r.kicks = kicks
	}
	r.mu.Unlock()
	var staged chan syncPoint
	if r.cfg.Pipeline && r.wal != nil {
		staged = make(chan syncPoint, 64)
		l.wg.Add(1)
		go r.syncStage(l, term, staged, done)
	}
	// flush replicates an appended batch and counts it toward commit once
	// its record is durable here.
	flush := func(sp syncPoint) {
		if staged != nil {
			// Stream AppendEntries right away; the sync stage waits for
			// the batch's record and commit advances from there.
			kick(kicks...)
			select {
			case staged <- sp:
			case <-l.stop:
			}
			return
		}
		r.persist(sp.epoch, sp.seq, sp.last)
		r.maybeAdvanceCommit(term) // single-voter groups commit locally
		kick(kicks...)
	}

	// Append a no-op entry for the new term immediately: a Raft leader
	// only learns the commit status of previous terms' entries once an
	// entry of its own term commits, and reads gate on that knowledge
	// (handleReadIndex refuses until then). The no-op makes the new
	// leader's commit index catch up with everything already committed,
	// and ships now rather than at the first heartbeat.
	r.mu.Lock()
	if r.role == Leader && r.term == term {
		idx, _ := r.lastLogLocked()
		r.appendLocked(Entry{Term: term, Index: idx + 1})
		r.metrics.add(1, 0, 0)
	}
	sp := r.syncPointLocked()
	r.mu.Unlock()
	flush(sp)

	heartbeat := time.NewTicker(r.cfg.HeartbeatInterval)
	defer heartbeat.Stop()

	for {
		select {
		case <-l.stop:
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
			kick(kicks...)
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
			now := clock.Mono()
			first, _ := r.lastLogLocked()
			first++
			for i, q := range batch {
				r.log = append(r.log, Entry{Term: term, Index: first + uint64(i), Cmd: q.cmd})
				q.appended = now
				q.term = term
				if r.pending == nil {
					r.pending = make(map[uint64]*proposal)
				}
				r.pending[first+uint64(i)] = q
			}
			r.stageEntriesLocked(r.log[len(r.log)-len(batch):])
			sp := r.syncPointLocked()
			r.metrics.noteAppend(int64(len(batch)), int64(bytes), reason)
			r.mu.Unlock()
			flush(sp)
		}
	}
}

// kick wakes every replicator in ks that is not already due to send.
func kick(ks ...chan struct{}) {
	for _, k := range ks {
		select {
		case k <- struct{}{}:
		default:
		}
	}
}

// MaxBatch bounds the number of proposals folded into one append, and
// maxBatchBytes their command bytes.
const (
	MaxBatch      = 256
	maxBatchBytes = 1 << 20
)

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
		if len(batch) >= MaxBatch {
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

// syncPoint is one appended batch the leader waits on: its WAL record,
// and the log end it makes durable.
type syncPoint struct{ epoch, seq, last uint64 }

// syncPointLocked is the sync point of everything appended so far.
func (r *Raft) syncPointLocked() syncPoint {
	last, _ := r.lastLogLocked()
	return syncPoint{epoch: r.epoch, seq: r.lastStaged, last: last}
}

// syncStage is the pipelined leader's log-sync stage: replicators stream
// entries to followers as soon as they are appended in memory, while
// this stage waits for each batch's record to be durable and only then
// counts the batch toward commit — durableIndex is the leader's own
// acknowledgement in the commit rule. Batches staged while one sync is
// in flight are covered by the WAL's next group sync, so their waits
// here are short or nothing.
func (r *Raft) syncStage(l *life, term uint64, staged <-chan syncPoint, done chan struct{}) {
	defer l.wg.Done()
	for {
		select {
		case <-l.stop:
			return
		case <-done:
			return
		case p := <-staged:
			r.persist(p.epoch, p.seq, p.last)
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
// heartbeat), it sends from the peer's nextIndex until the peer holds
// the log, the message is lost or the peer is stopped. It exits with
// the leader term.
func (r *Raft) replicateTo(l *life, term uint64, p *peer, kick chan struct{}, done chan struct{}) {
	defer l.wg.Done()
	for {
		select {
		case <-l.stop:
			return
		case <-done:
			return
		case <-kick:
		}
		res := r.sendOnce(term, p, 0)
		for res == sendAgain {
			res = r.sendOnce(term, p, 0)
		}
		switch res {
		case sendOver:
			return
		case sendAcked:
			r.maybeAdvanceCommit(term)
		}
	}
}

// sendResult is what one send to a peer came to.
type sendResult uint8

const (
	sendAcked sendResult = iota // the peer holds the log through what was sent
	sendLost                    // lost, or the peer is stopped: wait for a kick
	sendAgain                   // nextIndex moved, or a snapshot landed: send again
	sendOver                    // the leader's term is over
)

// sendOnce sends p one message of term from its nextIndex: AppendEntries,
// or the snapshot when the entries it needs are compacted away. It folds
// the reply into the leader's state, and never holds r.mu across the
// peer's handler. With at > 0 it sends only if the peer's nextIndex is
// at, and otherwise reports sendAgain unsent: a proposer sending in line
// leaves a lagging peer to its replicator, so it never catches one up.
func (r *Raft) sendOnce(term uint64, p *peer, at uint64) sendResult {
	r.mu.Lock()
	if r.role != Leader || r.term != term {
		r.mu.Unlock()
		return sendOver
	}
	next := r.nextIndex[p.id]
	if at > 0 && next != at {
		r.mu.Unlock()
		return sendAgain
	}
	first := r.firstIndexLocked()
	if next <= first {
		// The peer needs entries compacted away: install the snapshot,
		// then resume appending after it.
		snapIdx, snapTerm := first, r.log[0].Term
		data := r.snapData
		sent := clock.Mono()
		r.mu.Unlock()
		if p.link.Deliver() != nil {
			return sendLost
		}
		ok, replyTerm := p.handleInstallSnapshot(term, r.id, snapIdx, snapTerm, data)
		r.mu.Lock()
		defer r.mu.Unlock()
		switch {
		case r.role != Leader || r.term != term:
			return sendOver
		case replyTerm > r.term:
			r.becomeFollowerLocked(replyTerm, "")
			return sendOver
		case !ok:
			return sendLost
		}
		p.heard = max(p.heard, sent)
		r.matchIndex[p.id] = max(r.matchIndex[p.id], snapIdx)
		r.nextIndex[p.id] = r.matchIndex[p.id] + 1
		return sendAgain
	}
	if next == 0 {
		next = 1
	}
	prev := r.entryAtLocked(next - 1)
	// The entries are copied: a deposed leader truncating its log would
	// rewrite the array under a message still in flight. One entry, the
	// common case, is copied to the stack.
	var one [1]Entry
	entries := append(one[:0], r.log[next-first:]...)
	commit := r.commitIndex
	sent := clock.Mono()
	offer := r.leaseOfferLocked(p, sent)
	r.mu.Unlock()

	if p.link.Deliver() != nil {
		return sendLost
	}
	ok, replyTerm, conflictHint, wantsGrant := p.handleAppendEntries(
		term, r.id, prev.Index, prev.Term, entries, commit, offer)

	r.mu.Lock()
	defer r.mu.Unlock()
	switch {
	case r.role != Leader || r.term != term:
		return sendOver
	case replyTerm > r.term:
		r.becomeFollowerLocked(replyTerm, "")
		return sendOver
	case replyTerm == 0:
		return sendLost // the peer is stopped
	}
	p.heard = max(p.heard, sent)
	r.noteReplyLocked(p, offer, sent, wantsGrant)
	if ok {
		r.matchIndex[p.id] = max(r.matchIndex[p.id], prev.Index+uint64(len(entries)))
		r.nextIndex[p.id] = r.matchIndex[p.id] + 1
		return sendAcked
	}
	// Log inconsistency: back off nextIndex (below the compaction
	// boundary, the snapshot branch above takes over).
	if conflictHint > 0 && conflictHint < next {
		r.nextIndex[p.id] = conflictHint
	} else if next > 1 {
		r.nextIndex[p.id] = next - 1
	}
	return sendAgain
}

// maybeAdvanceCommit recomputes the commit index: the highest index a
// quorum of voters holds durable and every live read grant's holder has
// acked, so a holder's verified prefix covers every commit made while
// its grant runs (read.go). While a grant is live, an advance is pushed
// to the replicas at once instead of at the next heartbeat.
func (r *Raft) maybeAdvanceCommit(term uint64) {
	r.mu.Lock()
	if r.advanceCommitLocked(term) {
		r.kickApplier()
	}
	r.mu.Unlock()
}

// advanceCommitLocked is maybeAdvanceCommit under r.mu, less the wake of
// the applier: it reports whether the commit index moved, and leaves
// the applying to the caller.
func (r *Raft) advanceCommitLocked(term uint64) bool {
	if r.role != Leader || r.term != term {
		return false
	}
	var buf [8]uint64 // groups up to 8 voters need no heap
	matches := buf[:0]
	if !r.cfg.Learner {
		// The leader's own vote is its durable index: with pipelined
		// replication the log tail may be appended but not yet fsynced,
		// and those entries must not count toward quorum.
		matches = append(matches, r.durableIndex)
	}
	var now time.Duration          // read only once some grant has been given
	held := uint64(math.MaxUint64) // the lowest match of a live grant's holder
	for id, p := range r.peers {
		if p.granted != 0 && now == 0 {
			now = clock.Mono()
		}
		if p.granted > now {
			held = min(held, r.matchIndex[id])
		}
		if !p.IsLearner() {
			matches = append(matches, r.matchIndex[id])
		}
	}
	// The quorum index is the highest index at least a majority of voters
	// hold: in ascending order, the majority-th from the top.
	quorum := r.voters/2 + 1
	if len(matches) < quorum {
		return false
	}
	slices.Sort(matches)
	n := min(matches[len(matches)-quorum], held)
	if n <= r.commitIndex || n < r.firstIndexLocked() || r.entryAtLocked(n).Term != term {
		return false
	}
	r.commitIndex = n
	if held != math.MaxUint64 {
		kick(r.kicks...)
	}
	return true
}

// handleAppendEntries is the AppendEntries RPC handler (also heartbeat).
// It replies only once everything it staged — entries, and a term the
// message raised — is durable, so an ok reply always means the entries
// are on this replica's disk, whether or not the leader pipelines its
// own sync. replyTerm 0 signals a stopped replica; wantsGrant asks for
// a read grant (read.go).
func (r *Raft) handleAppendEntries(term uint64, leader string, prevIdx, prevTerm uint64,
	entries []Entry, leaderCommit uint64, offer leaseOffer) (ok bool, replyTerm, conflictHint uint64, wantsGrant bool) {

	r.mu.Lock()
	if r.stopped() {
		r.mu.Unlock()
		return false, 0, 0, false
	}
	ok, conflictHint = r.appendEntriesLocked(term, leader, prevIdx, prevTerm, entries, leaderCommit, offer)
	var durable uint64
	if ok {
		durable, _ = r.lastLogLocked()
	}
	wantsGrant = r.wantsGrantLocked(clock.Mono())
	epoch, seq, replyTerm := r.epoch, r.lastStaged, r.term
	r.mu.Unlock()
	if !r.persist(epoch, seq, durable) {
		return false, 0, 0, false
	}
	return ok, replyTerm, conflictHint, wantsGrant
}

// appendEntriesLocked is handleAppendEntries' decision under r.mu.
func (r *Raft) appendEntriesLocked(term uint64, leader string, prevIdx, prevTerm uint64,
	entries []Entry, leaderCommit uint64, offer leaseOffer) (ok bool, conflictHint uint64) {

	if term < r.term {
		return false, 0
	}
	if term > r.term || r.role == Candidate || (r.role == Leader && term >= r.term) {
		r.becomeFollowerLocked(term, leader)
	}
	r.leaderID = leader
	r.contactAt = clock.Mono()
	r.electionReset = r.contactAt
	if offer.renew {
		r.stickyUntil = max(r.stickyUntil, r.contactAt+r.cfg.ElectionTimeout)
	}

	// Once the consistency check below passes, the log matches the
	// leader's through the last entry of this message.
	verified := prevIdx + uint64(len(entries))
	lastIdx, _ := r.lastLogLocked()
	first := r.firstIndexLocked()
	if prevIdx > lastIdx {
		return false, lastIdx + 1
	}
	if prevIdx < first {
		// The prefix up to first is covered by our snapshot (committed
		// state), so it cannot conflict: skip entries at or below it.
		skip := first - prevIdx
		if uint64(len(entries)) <= skip {
			return true, 0
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
		return false, hint
	}
	// Append the entries past the matching prefix, truncating a
	// conflicting suffix first.
	for i, e := range entries {
		at := prevIdx + 1 + uint64(i)
		if at <= lastIdx {
			if r.entryAtLocked(at).Term == e.Term {
				continue
			}
			if at <= r.commitIndex {
				panic(fmt.Sprintf("raft: %s truncating committed entry %d (commit index %d)", r.id, at, r.commitIndex))
			}
			r.log = r.log[:at-first]
			r.durableIndex = min(r.durableIndex, at-1)
			r.epoch++
		}
		r.appendLocked(entries[i:]...)
		break
	}
	// Commit what this leader has reported committed — here or in an
	// earlier ReadIndex reply that ran ahead of these entries — within
	// the prefix it has verified.
	r.learnLocked(term, verified, leaderCommit)
	if offer.grant > 0 {
		r.grant = readGrant{term: term, commit: leaderCommit, until: offer.grant}
	}
	return true, 0
}

// handleInstallSnapshot is the InstallSnapshot RPC handler: a follower
// that lags behind the leader's compacted log replaces its state machine
// with the leader's snapshot, and its log — in memory and in its WAL —
// with the snapshot's record.
func (r *Raft) handleInstallSnapshot(term uint64, leader string, snapIdx, snapTerm uint64, data []byte) (ok bool, replyTerm uint64) {
	if r.stopped() {
		return false, 0
	}
	r.applyMu.Lock()
	defer r.applyMu.Unlock()
	r.mu.Lock()
	if r.stopped() {
		r.mu.Unlock()
		return false, 0
	}
	if term < r.term {
		defer r.mu.Unlock()
		return false, r.term
	}
	if term > r.term || r.role == Candidate {
		r.becomeFollowerLocked(term, leader)
	}
	r.leaderID = leader
	r.contactAt = clock.Mono()
	r.electionReset = r.contactAt
	sm, _ := r.cfg.SM.(Snapshotter)
	if snapIdx <= r.commitIndex || sm == nil {
		// Already holds this committed prefix — or cannot restore, and
		// refuses so the leader keeps its log long enough (NewGroup
		// validation prevents that configuration).
		epoch, seq, replyTerm := r.epoch, r.lastStaged, r.term
		r.mu.Unlock()
		if !r.persist(epoch, seq, 0) {
			return false, 0
		}
		return sm != nil, replyTerm
	}
	r.log = []Entry{{Term: snapTerm, Index: snapIdx}}
	r.snapData = data
	r.commitIndex = snapIdx
	r.lastApplied = snapIdx
	r.durableIndex = min(r.durableIndex, snapIdx)
	r.epoch++
	r.stageSnapshotLocked()
	// The log is now exactly the leader's committed prefix up to snapIdx.
	r.view = leaderView{term: r.term, verified: snapIdx, commit: snapIdx}
	epoch, seq, replyTerm := r.epoch, r.lastStaged, r.term
	r.mu.Unlock()
	// Still under applyMu: the applier cannot apply a pre-snapshot entry
	// onto the restored state or rewind lastApplied behind the new log.
	sm.Restore(data)
	r.mu.Lock()
	r.applyCond.Broadcast()
	r.mu.Unlock()
	if !r.persist(epoch, seq, snapIdx) {
		return false, 0
	}
	r.trimWAL(seq)
	return true, replyTerm
}
