package storage

import (
	"sync"
	"sync/atomic"
	"time"

	"mantle/internal/types"
)

// WAL is a shard's write-ahead log: every committed mutation batch is
// appended and synced before it is applied to the in-memory B-tree, so a
// crashed shard rebuilds its exact contents by replay. Syncs use group
// commit — concurrent committers piggyback on one in-flight sync — which
// is the same amortisation the paper's Raft log batching exploits
// (§5.2.3), here at the storage layer.
//
// The log lives in memory (the simulated cluster has no real disks); the
// durability *cost* is modelled by SyncCost and the crash/recovery
// *logic* is real and tested: Shard.Crash discards the B-tree and
// RecoverShard replays the WAL.
type stagedBatch struct {
	seq uint64
	rec []byte // packed batch (walcodec.go)
}

// walWaiter is one parked committer: its channel is closed when its
// batch becomes durable, or to hand it sync leadership for the next
// group.
type walWaiter struct {
	seq uint64
	ch  chan struct{}
}

type WAL struct {
	mu      sync.Mutex
	records [][]byte      // durable prefix, packed batches (walcodec.go)
	staged  []stagedBatch // appended but not yet synced
	waiters []walWaiter   // committers parked behind an in-flight sync

	seq     uint64 // last staged batch number
	durable uint64 // highest batch number covered by a completed sync
	syncing bool

	syncCost time.Duration

	syncCount  atomic.Int64
	soloSyncs  atomic.Int64 // syncs that covered exactly one batch
	groupSyncs atomic.Int64 // syncs that covered more than one batch
	covered    atomic.Int64 // total batches covered by completed syncs
}

// NewWAL creates a group-committing WAL whose syncs cost syncCost each.
func NewWAL(syncCost time.Duration) *WAL {
	return &WAL{syncCost: syncCost}
}

// Commit appends the batch, blocks until it is durable, and returns the
// batch's sequence number (DurableSeq has reached it by then). It is
// Stage followed by WaitDurable; callers that must fix the log position
// under their own lock (Shard.Commit orders the log identically to the
// oplog) use the two halves directly.
//
// The batch is encoded into one packed record before staging (fixed
// header + varlen name per mutation, see walcodec.go): the log retains
// ~20 bytes per mutation instead of a 120+-byte Mutation struct, which
// keeps the in-memory log from dominating the namespace's resident
// footprint at scale. The caller keeps ownership of muts; it is read
// during this call only.
func (w *WAL) Commit(muts []Mutation) uint64 {
	seq := w.Stage(muts)
	w.WaitDurable(seq)
	return seq
}

// Stage appends the batch to the log and assigns its sequence number
// without waiting for durability. Replay order is Stage order: the
// caller serialises Stage with whatever lock defines its commit order
// (the shard mutex), which is exactly what keeps WAL replay and oplog
// emission in agreement.
func (w *WAL) Stage(muts []Mutation) uint64 {
	if len(muts) == 0 {
		return 0
	}
	rec := encodeBatch(muts)
	w.mu.Lock()
	w.seq++
	mySeq := w.seq
	w.staged = append(w.staged, stagedBatch{seq: mySeq, rec: rec})
	w.mu.Unlock()
	return mySeq
}

// WaitDurable blocks until the batch with the given sequence number is
// covered by a completed sync. Concurrent callers group-commit:
// whichever caller performs the physical sync covers every batch staged
// before the sync started, and the others park on a waiter list that is
// notified per-batch as the durable horizon passes their sequence
// number.
func (w *WAL) WaitDurable(seq uint64) {
	if seq == 0 {
		return
	}
	w.mu.Lock()
	for w.durable < seq {
		if w.syncing {
			// A sync that cannot cover us (it started before we staged)
			// is in flight; park until our batch is durable or we are
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
	batch := w.staged
	w.staged = nil
	top := batch[len(batch)-1].seq
	w.mu.Unlock()

	if w.syncCost > 0 {
		time.Sleep(w.syncCost)
	}
	w.syncCount.Add(1)
	if len(batch) > 1 {
		w.groupSyncs.Add(1)
	} else {
		w.soloSyncs.Add(1)
	}
	w.covered.Add(int64(len(batch)))

	w.mu.Lock()
	for _, b := range batch {
		w.records = append(w.records, b.rec)
	}
	w.syncing = false
	if top > w.durable {
		w.durable = top
	}
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

// Syncs returns the number of physical syncs performed (group-commit
// effectiveness metric).
func (w *WAL) Syncs() int64 { return w.syncCount.Load() }

// DurableSeq returns the highest batch sequence number covered by a
// completed sync.
func (w *WAL) DurableSeq() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.durable
}

// WALStats is a snapshot of a WAL's sync accounting. Syncs always
// equals SoloSyncs+GroupSyncs, and Covered counts the batches those
// syncs made durable — the group-commit fan-in is Covered/Syncs.
type WALStats struct {
	Syncs      int64
	SoloSyncs  int64
	GroupSyncs int64
	Covered    int64
}

// Stats snapshots the sync accounting.
func (w *WAL) Stats() WALStats {
	return WALStats{
		Syncs:      w.syncCount.Load(),
		SoloSyncs:  w.soloSyncs.Load(),
		GroupSyncs: w.groupSyncs.Load(),
		Covered:    w.covered.Load(),
	}
}

// Add accumulates o into s (cross-shard aggregation).
func (s *WALStats) Add(o WALStats) {
	s.Syncs += o.Syncs
	s.SoloSyncs += o.SoloSyncs
	s.GroupSyncs += o.GroupSyncs
	s.Covered += o.Covered
}

// Batches returns the number of durable mutation batches.
func (w *WAL) Batches() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.records)
}

// Replay invokes apply for every durable mutation in commit order.
func (w *WAL) Replay(apply func(Mutation)) {
	w.ReplayBatches(func(_ uint64, muts []Mutation) {
		for _, m := range muts {
			apply(m)
		}
	})
}

// ReplayBatches invokes apply once per durable batch in commit order,
// with the batch's sequence number. Durable records are stored in
// sequence order with no gaps, so record i holds batch i+1 — the
// property fsck.VerifyOplog cross-checks against the replication oplog.
func (w *WAL) ReplayBatches(apply func(seq uint64, muts []Mutation)) {
	w.mu.Lock()
	records := w.records
	w.mu.Unlock()
	scratch := make([]Mutation, 0, 8)
	for i, rec := range records {
		scratch = scratch[:0]
		if err := decodeBatch(rec, func(m Mutation) { scratch = append(scratch, m) }); err != nil {
			// Records are produced by this process's encodeBatch; a decode
			// failure is a codec bug, not a runtime condition.
			panic(err)
		}
		apply(uint64(i)+1, scratch)
	}
}

// StagedSeq returns the highest batch sequence number assigned so far
// (staged, not necessarily durable).
func (w *WAL) StagedSeq() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.seq
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

// Crash simulates a crash-stop: the in-memory B-tree and all volatile
// transaction state are discarded. The WAL survives. In-flight prepared
// transactions are lost (their locks with them), matching a real
// crash-recovery semantics where only committed state is durable.
func (s *Shard) Crash() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.rows = newRowTree()
	s.locks = make(map[types.Key]*rowLock)
	s.txns = make(map[string]*txnState)
	s.crashed = true
}

// Recover rebuilds the shard's contents by replaying its WAL. Returns
// the number of mutations replayed.
func (s *Shard) Recover() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.wal == nil {
		return 0
	}
	s.rows = newRowTree()
	n := 0
	s.wal.Replay(func(m Mutation) {
		s.applyLocked(m)
		n++
	})
	s.crashed = false
	return n
}

// Crashed reports whether the shard is in the crashed state.
func (s *Shard) Crashed() bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.crashed
}
