package raft

import (
	"encoding/binary"
	"errors"
	"fmt"

	"mantle/internal/clock"
	"mantle/internal/storage"
	"mantle/internal/wire"
)

// The durable log. With FsyncCost > 0 a replica keeps a storage.WAL of
// byte records (internal/wire), staged under r.mu in the order of the
// in-memory changes they describe:
//
//   - recState: the term and vote, staged when either changes;
//   - recEntries: appended entries, from their first index on — replay
//     truncates the log there first, so a follower's truncation of a
//     conflicting suffix needs no record of its own;
//   - recSnapshot: term and vote, the snapshot's index, term and data,
//     and the log after it. Compaction and an installed snapshot stage
//     one and, once it is durable, trim the WAL before it, so the WAL
//     stays as bounded as the in-memory log.
//
// Nothing is acknowledged — an AppendEntries or RequestVote reply, a
// vote request, the leader's own count toward commit — before the
// records staged ahead of it are durable (persist). Restart rebuilds
// from these records alone.
const (
	recState byte = iota + 1
	recEntries
	recSnapshot
)

// stageLocked appends rec to the WAL behind every record staged before
// it; a crashed replica stages nothing. Caller holds r.mu.
func (r *Raft) stageLocked(rec []byte) {
	if !r.stopped() {
		r.lastStaged = r.wal.Stage(rec)
	}
}

// saveStateLocked stages the current term and vote.
func (r *Raft) saveStateLocked() {
	if r.wal == nil {
		return
	}
	w := wire.NewWriter(1 + 2*binary.MaxVarintLen64 + len(r.votedFor))
	w.Byte(recState)
	w.Uvarint(r.term)
	w.String(r.votedFor)
	r.stageLocked(w.Bytes())
}

// appendLocked appends es to the log and stages their record.
func (r *Raft) appendLocked(es ...Entry) {
	r.log = append(r.log, es...)
	r.stageEntriesLocked(es)
}

// stageEntriesLocked stages es, which the log now ends with.
func (r *Raft) stageEntriesLocked(es []Entry) {
	if r.wal == nil || len(es) == 0 {
		return
	}
	w := wire.NewWriter(1 + entriesSize(es))
	w.Byte(recEntries)
	writeEntries(&w, es[0].Index, es)
	r.stageLocked(w.Bytes())
}

// stageSnapshotLocked stages the snapshot the log now starts at, with the
// term, vote and log suffix, so the record stands for everything before.
func (r *Raft) stageSnapshotLocked() {
	if r.wal == nil {
		return
	}
	suffix := r.log[1:]
	w := wire.NewWriter(1 + 5*binary.MaxVarintLen64 + len(r.votedFor) + len(r.snapData) + entriesSize(suffix))
	w.Byte(recSnapshot)
	w.Uvarint(r.term)
	w.String(r.votedFor)
	w.Uvarint(r.log[0].Index)
	w.Uvarint(r.log[0].Term)
	w.Blob(r.snapData)
	writeEntries(&w, r.log[0].Index+1, suffix)
	r.stageLocked(w.Bytes())
}

func entriesSize(es []Entry) int {
	n := 2 * binary.MaxVarintLen64
	for i := range es {
		n += 2*binary.MaxVarintLen64 + len(es[i].Cmd)
	}
	return n
}

func writeEntries(w *wire.Writer, at uint64, es []Entry) {
	w.Uvarint(at)
	w.Uvarint(uint64(len(es)))
	for i := range es {
		w.Uvarint(es[i].Term)
		w.Blob(es[i].Cmd)
	}
}

// persist waits until the WAL covers seq — every record this replica
// staged up to it, one group-committed sync for all of them — and then
// raises durableIndex to idx. It reports false, raising nothing, when
// the log those records extended is gone: the replica crashed, or
// truncated or replaced its log, since epoch. Without a WAL it only
// raises durableIndex.
func (r *Raft) persist(epoch, seq, idx uint64) bool {
	if r.wal != nil {
		r.wal.WaitDurable(seq)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.epoch != epoch {
		return false
	}
	r.durableIndex = max(r.durableIndex, idx)
	return true
}

// trimWAL drops the WAL records before the durable snapshot record seq.
func (r *Raft) trimWAL(seq uint64) {
	if r.wal != nil {
		r.wal.Trim(seq)
	}
}

// WALStats snapshots the replica's log sync accounting (zero without a
// log).
func (r *Raft) WALStats() storage.WALStats {
	if r.wal == nil {
		return storage.WALStats{}
	}
	return r.wal.Stats()
}

// Crash crash-stops the replica: its goroutines exit, proposals waiting
// on it fail, its WAL loses every record no completed sync covered, and
// every volatile field — the in-memory log, term and vote included — is
// dropped. Only the WAL survives, and the state machine's memory, which
// Restart replaces. Safe to call twice.
func (r *Raft) Crash() {
	l := r.life.Load()
	r.mu.Lock()
	if !r.stopped() {
		close(l.stop)
		r.epoch++
		r.failPendingLocked()
		r.applyCond.Broadcast()
		r.leaseCond.Broadcast()
	}
	r.mu.Unlock()
	if r.wal != nil {
		r.wal.Crash()
	}
	l.wg.Wait()
	r.applyMu.Lock()
	r.mu.Lock()
	r.resetLocked()
	r.mu.Unlock()
	r.applyMu.Unlock()
}

// resetLocked drops every volatile field. Caller holds applyMu and r.mu.
func (r *Raft) resetLocked() {
	r.term, r.votedFor, r.leaderID = 0, "", ""
	r.log = []Entry{{}}
	r.snapData = nil
	r.commitIndex, r.lastApplied, r.durableIndex = 0, 0, 0
	clear(r.nextIndex)
	clear(r.matchIndex)
	clear(r.pending)
	r.view = leaderView{}
	r.stickyUntil, r.contactAt, r.readAt, r.leaseEnd = 0, 0, 0, 0
	r.grant, r.kicks = readGrant{}, nil
	for _, p := range r.peers {
		p.heard, p.acked, p.granted, p.wantsGrant = 0, 0, 0, false
	}
	if r.cfg.Learner {
		r.setRoleLocked(LearnerRole)
	} else {
		r.setRoleLocked(Follower)
	}
}

// Restart brings a crashed replica back from its WAL alone: the persisted
// term and vote, the last snapshot — restored into the state machine, or
// the empty state without one — and the durable entries after it, with
// their truncations replayed. Commit and apply restart at the snapshot
// index, and the replica rejoins as a follower through the leader's
// AppendEntries or InstallSnapshot. It needs a log (FsyncCost > 0) and a
// Snapshotter state machine.
func (r *Raft) Restart() error {
	sm, ok := r.cfg.SM.(Snapshotter)
	switch {
	case r.wal == nil:
		return errors.New("raft: no log to restart from (FsyncCost is 0)")
	case !ok:
		return errors.New("raft: restart needs a Snapshotter state machine")
	case !r.stopped():
		return errors.New("raft: restart of a running replica")
	}
	r.applyMu.Lock()
	defer r.applyMu.Unlock()
	r.mu.Lock()
	r.resetLocked()
	r.replayLocked()
	data := r.snapData
	r.mu.Unlock()
	sm.Restore(data)
	r.mu.Lock()
	r.commitIndex = r.firstIndexLocked()
	r.lastApplied = r.commitIndex
	r.durableIndex, _ = r.lastLogLocked()
	// The crash forgot what leases this replica took part in: it stays
	// out of elections for as long as any of them can have run.
	r.stickyUntil = clock.Mono() + r.cfg.ElectionTimeout
	l := &life{stop: make(chan struct{})}
	r.life.Store(l)
	r.mu.Unlock()
	r.start(l)
	return nil
}

// replayLocked rebuilds term, vote, snapshot and log from the WAL's
// durable records. Caller holds r.mu.
func (r *Raft) replayLocked() {
	r.wal.Replay(func(seq uint64, rec []byte) {
		rd := wire.NewReader(rec)
		switch kind := rd.Byte(); kind {
		case recState:
			r.term, r.votedFor = rd.Uvarint(), rd.String()
		case recSnapshot:
			r.term, r.votedFor = rd.Uvarint(), rd.String()
			idx, term := rd.Uvarint(), rd.Uvarint()
			r.log = []Entry{{Term: term, Index: idx}}
			r.snapData = []byte(rd.String())
			r.readEntriesLocked(seq, &rd)
		case recEntries:
			r.readEntriesLocked(seq, &rd)
		default:
			panic(fmt.Sprintf("raft: %s: wal record %d has unknown kind %d", r.id, seq, kind))
		}
		if rd.Err() != nil || rd.Len() != 0 {
			panic(fmt.Sprintf("raft: %s: wal record %d does not decode: %v", r.id, seq, rd.Err()))
		}
	})
}

// readEntriesLocked replays an entries list: the log is cut back to just
// before its first index, then extended with it.
func (r *Raft) readEntriesLocked(seq uint64, rd *wire.Reader) {
	at, n := rd.Uvarint(), rd.Uvarint()
	if n == 0 {
		return
	}
	first := r.firstIndexLocked()
	if last, _ := r.lastLogLocked(); at <= first || at > last+1 {
		panic(fmt.Sprintf("raft: %s: wal record %d appends at %d to a log of (%d, %d]", r.id, seq, at, first, last))
	}
	r.log = r.log[:at-first]
	for i := uint64(0); i < n && rd.Err() == nil; i++ {
		r.log = append(r.log, Entry{Term: rd.Uvarint(), Index: at + i, Cmd: []byte(rd.String())})
	}
}
