package storage

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"mantle/internal/types"
)

// stagedRecord is a record appended but not yet covered by a sync.
type stagedRecord struct {
	seq uint64
	rec []byte
}

// walWaiter is one parked committer: its channel is closed when its
// record becomes durable, or to hand it sync leadership for the next
// group.
type walWaiter struct {
	seq uint64
	ch  chan struct{}
}

// WAL is a write-ahead log of byte records with group commit, the one
// disk model of the tree: a TafDB shard logs each committed mutation
// batch (encoded by the Shard, walcodec.go) and a raft replica its
// entries, term and vote, and snapshots. A record is staged, then made
// durable by a sync; concurrent committers piggyback on one in-flight
// sync, which is the amortisation the paper's Raft log batching exploits
// (§5.2.3), for shards and raft logs alike.
//
// The log lives in memory (the simulated cluster has no real disks); the
// durability *cost* is modelled by the sync cost and the crash/recovery
// *logic* is real and tested: Crash drops what no completed sync covered,
// and the owner rebuilds from Replay (Shard.Restart, raft's Restart).
type WAL struct {
	mu      sync.Mutex
	records [][]byte       // durable records; records[i] has sequence base+i+1
	base    uint64         // sequence numbers trimmed off the front
	staged  []stagedRecord // appended but not yet synced
	spare   []stagedRecord // the last synced group's slice, reused for staging
	waiters []walWaiter    // committers parked behind an in-flight sync

	seq     uint64 // last staged record number
	durable uint64 // highest record number covered by a completed sync
	syncing bool
	gen     uint64 // bumped by Crash: a sync or wait begun before it is void

	syncCost time.Duration

	stats WALStats
}

// NewWAL creates a group-committing WAL whose syncs cost syncCost each.
func NewWAL(syncCost time.Duration) *WAL {
	return &WAL{syncCost: syncCost}
}

// Commit appends rec, blocks until it is durable, and returns its
// sequence number (DurableSeq has reached it by then). It is Stage
// followed by WaitDurable; callers that must fix the log position under
// their own lock (Shard.Commit orders the log identically to the oplog,
// raft orders it with its in-memory log) use the two halves directly.
// The WAL keeps rec; the caller must not modify it afterwards.
func (w *WAL) Commit(rec []byte) uint64 {
	seq := w.Stage(rec)
	w.WaitDurable(seq)
	return seq
}

// Stage appends rec to the log and assigns its sequence number without
// waiting for durability. Replay order is Stage order: the caller
// serialises Stage with whatever lock defines its commit order.
func (w *WAL) Stage(rec []byte) uint64 {
	w.mu.Lock()
	w.seq++
	mySeq := w.seq
	w.staged = append(w.staged, stagedRecord{seq: mySeq, rec: rec})
	w.mu.Unlock()
	return mySeq
}

// WaitDurable blocks until the record with the given sequence number is
// covered by a completed sync. Concurrent callers group-commit:
// whichever caller performs the physical sync covers every record staged
// before the sync started, and the others park on a waiter list that is
// notified per-record as the durable horizon passes their sequence
// number. A Crash releases every waiter, durable or not, and a wait for
// a record it lost returns at once.
func (w *WAL) WaitDurable(seq uint64) {
	if seq == 0 {
		return
	}
	w.mu.Lock()
	gen := w.gen
	for w.durable < seq && seq <= w.seq && w.gen == gen {
		if w.syncing {
			// A sync that cannot cover us (it started before we staged)
			// is in flight; park until our record is durable or we are
			// handed sync leadership, then re-check.
			ch := make(chan struct{})
			w.waiters = append(w.waiters, walWaiter{seq: seq, ch: ch})
			w.mu.Unlock()
			<-ch
			w.mu.Lock()
			continue
		}
		w.leadSyncLocked()
	}
	w.mu.Unlock()
}

// leadSyncLocked performs one physical sync as the sync leader,
// covering everything staged so far. Called with w.mu held; releases it
// for the duration of the sync.
func (w *WAL) leadSyncLocked() {
	w.syncing = true
	batch, gen := w.staged, w.gen
	w.staged = w.spare[:0]
	w.spare = nil
	top := batch[len(batch)-1].seq
	w.mu.Unlock()

	if w.syncCost > 0 {
		time.Sleep(w.syncCost)
	}

	w.mu.Lock()
	w.stats.Syncs++
	if len(batch) > 1 {
		w.stats.GroupSyncs++
	} else {
		w.stats.SoloSyncs++
	}
	w.stats.Covered += int64(len(batch))
	w.syncing = false
	if gen == w.gen { // a Crash during the sync lost the group
		for _, b := range batch {
			w.records = append(w.records, b.rec)
		}
		w.durable = top
	}
	clear(batch)
	w.spare = batch[:0]
	// Wake every waiter the sync covered. Uncovered waiters stay
	// parked, except the oldest, which is handed sync leadership so the
	// next group forms without a thundering herd.
	keep := w.waiters[:0]
	handed := false
	for _, wt := range w.waiters {
		if wt.seq <= w.durable || !handed {
			handed = handed || wt.seq > w.durable
			close(wt.ch)
			continue
		}
		keep = append(keep, wt)
	}
	for i := len(keep); i < len(w.waiters); i++ {
		w.waiters[i] = walWaiter{}
	}
	w.waiters = keep
}

// Crash loses every record no completed sync covered — those staged and
// those under a sync still in flight — and releases every parked waiter.
// Sequence numbers resume after the durable prefix.
func (w *WAL) Crash() {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.gen++
	clear(w.staged)
	w.staged = w.staged[:0]
	w.seq = w.durable
	for _, wt := range w.waiters {
		close(wt.ch)
	}
	clear(w.waiters)
	w.waiters = w.waiters[:0]
}

// Trim drops the durable records before seq: the owner has made a later
// record (a snapshot) stand for them.
func (w *WAL) Trim(seq uint64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if seq <= w.base+1 || seq > w.durable {
		return
	}
	w.records = append([][]byte(nil), w.records[seq-1-w.base:]...)
	w.base = seq - 1
}

// Syncs returns the number of physical syncs performed (group-commit
// effectiveness metric).
func (w *WAL) Syncs() int64 { return w.Stats().Syncs }

// DurableSeq returns the highest record sequence number covered by a
// completed sync.
func (w *WAL) DurableSeq() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.durable
}

// WALStats is a snapshot of a WAL's sync accounting. Syncs always
// equals SoloSyncs+GroupSyncs, and Covered counts the records those
// syncs made durable — the group-commit fan-in is Covered/Syncs.
type WALStats struct {
	Syncs      int64
	SoloSyncs  int64
	GroupSyncs int64
	Covered    int64
}

// Stats snapshots the sync accounting.
func (w *WAL) Stats() WALStats {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.stats
}

// Add accumulates o into s (cross-shard aggregation).
func (s *WALStats) Add(o WALStats) {
	s.Syncs += o.Syncs
	s.SoloSyncs += o.SoloSyncs
	s.GroupSyncs += o.GroupSyncs
	s.Covered += o.Covered
}

// Batches returns the number of durable records held.
func (w *WAL) Batches() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.records)
}

// Replay invokes fn for every durable record in sequence order. Records
// are numbered with no gaps, so a log that was never trimmed starts at
// sequence 1 — the property fsck.VerifyOplog cross-checks a shard's
// batches against the replication oplog by.
func (w *WAL) Replay(fn func(seq uint64, rec []byte)) {
	w.mu.Lock()
	records, base := w.records, w.base
	w.mu.Unlock()
	for i, rec := range records {
		fn(base+uint64(i)+1, rec)
	}
}

// AttachWAL enables write-ahead logging on the shard: every committed
// transaction and relaxed apply is logged before mutating the B-tree.
func (s *Shard) AttachWAL(w *WAL) {
	s.mu.Lock()
	s.wal = w
	s.mu.Unlock()
}

// WAL returns the shard's write-ahead log, or nil when logging is
// disabled.
func (s *Shard) WAL() *WAL {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.wal
}

// Crash simulates a crash-stop, as raft's Crash does: the WAL loses its
// unsynced records; the rows, prepared transactions and locks go. A
// queued batch already durable is drained (Restart replays it), a later
// one fails with ErrUnavailable. Refusing requests is the fabric edge's
// job (faults.Injector.Crash blackholes the node first).
func (s *Shard) Crash() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.crashLocked()
}

func (s *Shard) crashLocked() {
	if s.wal != nil {
		s.wal.Crash()
	}
	s.drainLocked()
	for _, st := range s.queue {
		st.err = fmt.Errorf("shard %s: crashed before batch %d was durable: %w", s.id, st.seq, types.ErrUnavailable)
	}
	s.queue = slices.Delete(s.queue, 0, len(s.queue))
	s.rows, s.locks, s.txns = newRowTree(), make(map[types.Key]*rowLock), make(map[string]*txnState)
}

// Restart rebuilds the shard from its WAL alone, with no transactions
// or locks, after completing the crash: a batch staged while the shard
// was down survives only if already durable. Without a WAL it fails.
func (s *Shard) Restart() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.wal == nil {
		return fmt.Errorf("shard %s: no log to restart from (no WAL attached)", s.id)
	}
	s.crashLocked()
	s.replay(s.wal, func(seq uint64, muts []Mutation) {
		for _, m := range muts {
			s.applyLocked(m)
		}
		s.applied = seq
	})
	return nil
}

// ReplayBatches invokes apply once per durable batch of the shard's WAL
// in commit order, with the batch's sequence number (a no-op without a
// WAL). muts is reused between calls.
func (s *Shard) ReplayBatches(apply func(seq uint64, muts []Mutation)) {
	if w := s.WAL(); w != nil {
		s.replay(w, apply)
	}
}

// replay decodes w's records into mutation batches; the caller holds
// the shard mutex or has read w under it.
func (s *Shard) replay(w *WAL, apply func(seq uint64, muts []Mutation)) {
	scratch := make([]Mutation, 0, 8)
	w.Replay(func(seq uint64, rec []byte) {
		scratch = scratch[:0]
		if err := decodeBatch(rec, func(m Mutation) { scratch = append(scratch, m) }); err != nil {
			// Records are produced by this process's encodeBatch; a decode
			// failure is a codec bug, not a runtime condition.
			panic(err)
		}
		apply(seq, scratch)
	})
}
