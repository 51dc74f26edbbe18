// Package storage implements the single-shard ordered store that TafDB
// and the baseline DBtable services are built from. A Shard is a B-tree
// of MetaTable rows keyed (pid, name), with:
//
//   - versioned rows (every committed mutation bumps the row version),
//   - a row-lock table with shared/exclusive modes and a no-wait policy:
//     a conflicting lock request fails immediately with
//     types.ErrConflict so the transaction layer aborts and retries —
//     this is what produces the contention collapse of Figure 4b on
//     in-place directory-attribute updates, and what delta records avoid,
//   - two-phase participant hooks (Prepare/Commit/Abort) used by the
//     distributed-transaction coordinator in internal/txn, and
//   - ordered range scans for readdir and delta-record processing.
//
// With a WAL attached (wal.go), a batch is applied and unlocked only
// once a sync has made its record durable, in log order; a crash keeps
// exactly the synced records, as a raft replica's does.
package storage

import (
	"fmt"
	"slices"
	"sync"

	"mantle/internal/btree"
	"mantle/internal/clock"
	"mantle/internal/types"
)

// Row is a stored MetaTable row plus its version.
type Row struct {
	Entry   types.Entry
	Version uint64
}

// GuardKind constrains a row's state at prepare time.
type GuardKind uint8

const (
	// GuardExists requires the row to exist.
	GuardExists GuardKind = iota
	// GuardAbsent requires the row to be absent.
	GuardAbsent
	// GuardVersion requires the row's version to equal Version.
	GuardVersion
	// GuardRangeEmpty requires that no committed row exists with
	// Key <= key < KeyHi. The guard locks Key (shared) as its anchor;
	// writers that could violate the range must conflict on that anchor
	// row (TafDB's rmdir/mkdir protocol arranges this: child-mutating
	// transactions hold a shared lock on the parent's primary attribute
	// row, and rmdir's delete takes it exclusively).
	GuardRangeEmpty
)

// Guard is a read predicate acquired under a shared row lock at prepare
// time; it stays protected until commit/abort.
type Guard struct {
	Key     types.Key
	Kind    GuardKind
	Version uint64    // for GuardVersion
	KeyHi   types.Key // for GuardRangeEmpty: exclusive upper bound
}

// MutKind discriminates mutation types.
type MutKind uint8

const (
	// MutPut inserts or replaces the row.
	MutPut MutKind = iota
	// MutDelete removes the row.
	MutDelete
	// MutDeltaAttr applies an in-place read-modify-write to the row's
	// attribute metadata (link-count and size increments, mtime update).
	// This is the contended path that Mantle's delta records replace.
	MutDeltaAttr
)

// AttrDelta is the increment applied by MutDeltaAttr.
type AttrDelta struct {
	LinkCount int64
	Size      int64
}

// Mutation is one write within a transaction.
type Mutation struct {
	Kind  MutKind
	Key   types.Key
	Entry types.Entry // for MutPut
	Delta AttrDelta   // for MutDeltaAttr
	// IfAbsent makes a MutPut fail with types.ErrExists when the row
	// already exists (create/mkdir semantics).
	IfAbsent bool
	// MustExist makes MutDelete/MutDeltaAttr fail with types.ErrNotFound
	// when the row is missing.
	MustExist bool
	// WantKind, when non-zero, requires the existing row to be of the
	// given kind: a MutDelete of an object must not remove a directory's
	// row (and vice versa). Violations fail with types.ErrIsDir or
	// types.ErrNotDir.
	WantKind types.EntryKind
}

type lockMode uint8

const (
	lockShared lockMode = iota
	lockExclusive
)

// rowLock is one locked row. holders lists each holding transaction once,
// however many times it locked the row; it is almost always one or two
// IDs, so a scan beats a map. Released locks go back to the shard's free
// list with their holders array.
type rowLock struct {
	mode    lockMode
	holders []string
}

// txnState is a prepared transaction and, once staged, a queued batch:
// pieces is how many shards the transaction spans, seq its log
// position, relaxed marks an Apply (rows applied at staging, no locks)
// and err is the outcome its caller returns.
type txnState struct {
	id      string
	pieces  int
	muts    []Mutation
	locked  []types.Key // keys this txn holds locks on, each once
	seq     uint64
	relaxed bool
	err     error
}

// txnStatePool recycles txnState values across transactions: a shard
// under 2PC load prepares and releases one per transaction, and the
// locked-keys slice keeps its capacity across reuses.
var txnStatePool = sync.Pool{New: func() any { return &txnState{} }}

func (st *txnState) release() {
	*st = txnState{locked: st.locked[:0]}
	txnStatePool.Put(st)
}

// Shard is one storage shard. Safe for concurrent use. Reads (Get,
// Scan, Len, LockedKeys) take the mutex in shared mode, so the tafdb
// read path — stat, readdir, delta-record scans — proceeds concurrently
// across goroutines; 2PC prepare/commit/abort and relaxed applies take
// it exclusively.
//
// Rows are stored packed: the B-tree maps each key to a 48-byte
// fixed-layout packedRow value (see packed.go) rather than a boxed *Row,
// and public reads decode on demand into caller-owned values.
type Shard struct {
	id string

	mu        sync.RWMutex
	rows      *btree.Tree[types.Key, packedRow]
	locks     map[types.Key]*rowLock
	freeLocks []*rowLock // released locks for reuse, under mu
	txns      map[string]*txnState
	wal       *WAL

	// queue holds the staged batches not yet drained, in sequence
	// order; applied is the last one drained. Without a WAL, staged
	// numbers the batches and each is durable at once.
	queue   []*txnState
	applied uint64
	staged  uint64
	// clk stamps each WAL record's header at staging (nil: zero HLC).
	clk *clock.Clock
}

// SetClock hands the shard its site's clock: every WAL record staged
// from now on carries a reading of it. Set before the shard takes
// traffic.
func (s *Shard) SetClock(c *clock.Clock) {
	s.mu.Lock()
	s.clk = c
	s.mu.Unlock()
}

func newRowTree() *btree.Tree[types.Key, packedRow] {
	return btree.New[types.Key, packedRow](func(a, b types.Key) bool { return a.Less(b) })
}

// rowCursorPool recycles scan cursors across shards: a range scan borrows
// one, walks it, and returns it, so the readdir path performs no
// per-scan allocation (the closure adapter the previous Scan allocated).
var rowCursorPool = sync.Pool{
	New: func() any { return new(btree.Cursor[types.Key, packedRow]) },
}

// NewShard creates an empty shard with the given identifier.
func NewShard(id string) *Shard {
	s := &Shard{id: id}
	s.Crash() // what a crash leaves: no rows, transactions or locks
	return s
}

// ID returns the shard identifier.
func (s *Shard) ID() string { return s.id }

// Len returns the number of rows.
func (s *Shard) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.rows.Len()
}

// Get returns the row stored under k.
func (s *Shard) Get(k types.Key) (Row, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	p, ok := s.rows.Get(k)
	if !ok {
		return Row{}, false
	}
	return p.row(k), true
}

// Scan calls fn for every row with lo <= key < hi in key order until fn
// returns false. fn receives a copy of the row. fn runs under the
// shard's read lock and must not call back into the shard.
func (s *Shard) Scan(lo, hi types.Key, fn func(Row) bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	c := rowCursorPool.Get().(*btree.Cursor[types.Key, packedRow])
	for c.Seek(s.rows, lo); c.Valid(); c.Next() {
		k := c.Key()
		if !k.Less(hi) {
			break
		}
		if !fn(c.ValueRef().row(k)) {
			break
		}
	}
	c.Reset()
	rowCursorPool.Put(c)
}

// ScanChildren visits every row under parent pid in name order.
func (s *Shard) ScanChildren(pid types.InodeID, fn func(Row) bool) {
	s.Scan(types.Key{Pid: pid, Name: ""}, types.Key{Pid: pid + 1, Name: ""}, fn)
}

// tryLock acquires a lock on k for txnID in the given mode, no-wait.
// fresh reports whether txnID did not already hold the row.
func (s *Shard) tryLock(txnID string, k types.Key, mode lockMode) (fresh bool, err error) {
	l, ok := s.locks[k]
	if !ok {
		if n := len(s.freeLocks); n > 0 {
			l = s.freeLocks[n-1]
			s.freeLocks = s.freeLocks[:n-1]
		} else {
			l = &rowLock{}
		}
		l.mode = mode
		l.holders = append(l.holders, txnID)
		s.locks[k] = l
		return true, nil
	}
	if slices.Contains(l.holders, txnID) {
		if mode == lockExclusive && l.mode == lockShared {
			if len(l.holders) > 1 {
				return false, fmt.Errorf("shard %s: upgrade on %v: %w", s.id, k, types.ErrConflict)
			}
			l.mode = lockExclusive // upgrade, sole holder
		}
		return false, nil
	}
	if l.mode == lockShared && mode == lockShared {
		l.holders = append(l.holders, txnID)
		return true, nil
	}
	return false, fmt.Errorf("shard %s: lock on %v held: %w", s.id, k, types.ErrConflict)
}

func (s *Shard) unlockAll(txnID string, keys []types.Key) {
	for _, k := range keys {
		l, ok := s.locks[k]
		if !ok {
			continue
		}
		i := slices.Index(l.holders, txnID)
		if i < 0 {
			continue
		}
		last := len(l.holders) - 1
		l.holders[i] = l.holders[last]
		l.holders[last] = ""
		l.holders = l.holders[:last]
		if last == 0 {
			delete(s.locks, k)
			s.freeLocks = append(s.freeLocks, l)
		}
	}
}

func (s *Shard) checkGuard(g Guard) error {
	r, ok := s.rows.Get(g.Key)
	switch g.Kind {
	case GuardExists:
		if !ok {
			return fmt.Errorf("shard %s: guard on %v: %w", s.id, g.Key, types.ErrNotFound)
		}
	case GuardAbsent:
		if ok {
			return fmt.Errorf("shard %s: guard on %v: %w", s.id, g.Key, types.ErrExists)
		}
	case GuardVersion:
		if !ok || r.version != g.Version {
			return fmt.Errorf("shard %s: version guard on %v: %w", s.id, g.Key, types.ErrConflict)
		}
	case GuardRangeEmpty:
		c := rowCursorPool.Get().(*btree.Cursor[types.Key, packedRow])
		c.Seek(s.rows, g.Key)
		empty := !c.Valid() || !c.Key().Less(g.KeyHi)
		c.Reset()
		rowCursorPool.Put(c)
		if !empty {
			return fmt.Errorf("shard %s: range [%v,%v) not empty: %w", s.id, g.Key, g.KeyHi, types.ErrNotEmpty)
		}
	}
	return nil
}

func (s *Shard) checkMutation(m Mutation) error {
	row, ok := s.rows.Get(m.Key)
	switch m.Kind {
	case MutPut:
		if m.IfAbsent && ok {
			return fmt.Errorf("shard %s: put %v: %w", s.id, m.Key, types.ErrExists)
		}
	case MutDelete, MutDeltaAttr:
		if m.MustExist && !ok {
			return fmt.Errorf("shard %s: %v: %w", s.id, m.Key, types.ErrNotFound)
		}
	}
	if m.WantKind != 0 && ok && types.EntryKind(row.kind) != m.WantKind {
		if types.EntryKind(row.kind) == types.KindDir {
			return fmt.Errorf("shard %s: %v: %w", s.id, m.Key, types.ErrIsDir)
		}
		return fmt.Errorf("shard %s: %v: %w", s.id, m.Key, types.ErrNotDir)
	}
	return nil
}

// Prepare is the 2PC prepare phase: acquire exclusive locks on every
// mutated row and shared locks on every guard row (no-wait), then
// validate guards and mutation preconditions. On any failure all locks
// taken by this call are released and the error returned; the
// transaction is then aborted by the coordinator. On success the shard
// stages the mutations until Commit or Abort. The transaction touches
// this shard only; PreparePiece prepares one piece of a wider one.
func (s *Shard) Prepare(txnID string, guards []Guard, muts []Mutation) error {
	return s.PreparePiece(txnID, 1, guards, muts)
}

// PreparePiece is Prepare for one of the pieces of a transaction that
// spans that many shards; the count goes into the commit's WAL record,
// so the pieces can be regrouped from the shards' logs.
func (s *Shard) PreparePiece(txnID string, pieces int, guards []Guard, muts []Mutation) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.txns[txnID]; dup {
		return fmt.Errorf("shard %s: txn %s already prepared", s.id, txnID)
	}
	st := txnStatePool.Get().(*txnState)
	st.id, st.pieces, st.muts = txnID, pieces, muts
	fail := func(err error) error {
		s.unlockAll(txnID, st.locked)
		st.release()
		return err
	}
	lock := func(k types.Key, mode lockMode) error {
		fresh, err := s.tryLock(txnID, k, mode)
		if fresh {
			st.locked = append(st.locked, k)
		}
		return err
	}
	for _, m := range muts {
		if err := lock(m.Key, lockExclusive); err != nil {
			return fail(err)
		}
	}
	for _, g := range guards {
		if err := lock(g.Key, lockShared); err != nil {
			return fail(err)
		}
		if err := s.checkGuard(g); err != nil {
			return fail(err)
		}
	}
	for _, m := range muts {
		if err := s.checkMutation(m); err != nil {
			return fail(err)
		}
	}
	s.txns[txnID] = st
	return nil
}

// Commit applies the staged mutations of txnID and releases its locks.
// Committing a transaction the shard does not know (never prepared, or
// forgotten by a crash) applies nothing and fails with ErrUnavailable.
// With a WAL attached, the mutations are logged and synced before they
// become visible; the transaction's row locks stay held across the sync,
// so conflicting transactions cannot observe or interleave with an
// un-logged commit. A crash before the sync voids it (ErrUnavailable).
func (s *Shard) Commit(txnID string) error {
	s.mu.Lock()
	st, ok := s.txns[txnID]
	if !ok {
		s.mu.Unlock()
		return fmt.Errorf("shard %s: commit of unknown txn %s: %w", s.id, txnID, types.ErrUnavailable)
	}
	delete(s.txns, txnID) // claim the commit (idempotence under races)
	return s.stageLocked(st)
}

// stageLocked gives st the next log position and queues it, then
// returns its outcome once it is drained or a crash has voided it.
// Staging under s.mu makes commit order and log order one order, and
// the clock reading taken here strictly increases along the log.
// Called with s.mu held exclusively; returns with it released.
func (s *Shard) stageLocked(st *txnState) error {
	s.queue = append(s.queue, st)
	if wal := s.wal; wal == nil {
		s.staged++
		st.seq = s.staged
	} else {
		h := RecordHeader{TxnID: st.id, Pieces: st.pieces}
		if s.clk != nil {
			h.HLC = s.clk.Now()
		}
		st.seq = wal.Stage(encodeRecord(h, st.muts))
		s.mu.Unlock()
		wal.WaitDurable(st.seq)
		s.mu.Lock()
	}
	s.drainLocked()
	err := st.err
	s.mu.Unlock()
	st.release()
	return err
}

// drainLocked applies and unlocks every queued batch that is durable,
// in sequence order. Called with s.mu held exclusively.
func (s *Shard) drainLocked() {
	durable := s.staged
	if s.wal != nil {
		durable = s.wal.DurableSeq()
	}
	n := 0
	for ; n < len(s.queue) && s.queue[n].seq <= durable; n++ {
		st := s.queue[n]
		if !st.relaxed {
			for _, m := range st.muts {
				s.applyLocked(m)
			}
			s.unlockAll(st.id, st.locked)
		}
		s.applied = st.seq
	}
	s.queue = slices.Delete(s.queue, 0, n)
}

// Abort releases txnID's locks without applying anything (unknown: no-op).
func (s *Shard) Abort(txnID string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st, ok := s.txns[txnID]
	if !ok {
		return
	}
	s.unlockAll(txnID, st.locked)
	delete(s.txns, txnID)
	st.release()
}

func (s *Shard) applyLocked(m Mutation) {
	switch m.Kind {
	case MutPut:
		if p := s.rows.Ref(m.Key); p != nil {
			*p = pack(m.Entry, p.version+1)
		} else {
			s.rows.Put(m.Key, pack(m.Entry, 1))
		}
	case MutDelete:
		s.rows.Delete(m.Key)
	case MutDeltaAttr:
		if p := s.rows.Ref(m.Key); p != nil {
			p.link += m.Delta.LinkCount
			p.size += m.Delta.Size
			p.version++
		}
	}
}

// Apply performs mutations directly under the shard mutex, without
// transactional locking. This is the relaxed-consistency path used by the
// Tectonic baseline (which the paper's authors implemented without
// distributed transactions): mutations on the same row serialise on the
// shard latch. Preconditions (IfAbsent/MustExist) are still checked; the
// first violation aborts the batch and returns the error.
// Rows change at staging, before the sync, so later relaxed checks see
// them; the batch is then logged like a commit.
func (s *Shard) Apply(muts []Mutation) error {
	s.mu.Lock()
	for _, m := range muts {
		if err := s.checkMutation(m); err != nil {
			s.mu.Unlock()
			return err
		}
	}
	for _, m := range muts {
		s.applyLocked(m)
	}
	st := txnStatePool.Get().(*txnState)
	st.pieces, st.muts, st.relaxed = 1, muts, true
	return s.stageLocked(st)
}

// BulkLoad rebuilds the shard's row tree from n entries delivered in
// strictly ascending key order by next — the namespace-population fast
// path: bottom-up construction packs B-tree nodes to ~97% occupancy
// (sequential Apply leaves them half full) and skips per-row locking and
// precondition checks. Rows already present (bootstrap rows such as the
// root's primary attribute record) are merged in; on a key collision the
// streamed row wins. All loaded rows get version 1.
//
// It returns false without loading anything when a WAL is attached (the
// log would not cover the loaded rows, so a crash would silently lose
// them) — the caller falls back to the logged Apply path.
func (s *Shard) BulkLoad(n int, next func(i int) (types.Key, types.Entry)) bool {
	return s.load(n, func(i int) (types.Key, packedRow) {
		k, e := next(i)
		return k, pack(e, 1)
	})
}

// load is BulkLoad on rows already in their stored form.
func (s *Shard) load(n int, next func(i int) (types.Key, packedRow)) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.wal != nil {
		return false
	}
	type oldRow struct {
		k types.Key
		p packedRow
	}
	var old []oldRow
	if s.rows.Len() > 0 {
		old = make([]oldRow, 0, s.rows.Len())
		c := rowCursorPool.Get().(*btree.Cursor[types.Key, packedRow])
		for c.SeekFirst(s.rows); c.Valid(); c.Next() {
			old = append(old, oldRow{c.Key(), c.Value()})
		}
		c.Reset()
		rowCursorPool.Put(c)
	}
	ld := s.rows.NewLoader()
	oi := 0
	for i := 0; i < n; i++ {
		k, p := next(i)
		for oi < len(old) && old[oi].k.Less(k) {
			ld.Add(old[oi].k, old[oi].p)
			oi++
		}
		if oi < len(old) && !k.Less(old[oi].k) {
			oi++ // collision: the streamed row replaces the old one
		}
		ld.Add(k, p)
	}
	for ; oi < len(old); oi++ {
		ld.Add(old[oi].k, old[oi].p)
	}
	ld.Done()
	return true
}

// CompactRange atomically folds every committed row in [lo, hi) into the
// primary row at anchor and deletes the folded rows. fold is called once
// per folded row to merge it into the primary entry. The compaction is
// skipped (returning 0) when the anchor row is missing or exclusively
// locked by an in-flight transaction — the paper's shared-latch rule: a
// directory cannot be deleted out from under its compaction, and
// compaction never clobbers an in-flight delete. Shared locks (held by
// concurrent child-creating transactions, which only assert the
// directory's existence) do not block compaction. Rows in [lo, hi) that
// are themselves locked by in-flight transactions are left in place.
//
// It returns the number of rows folded.
func (s *Shard) CompactRange(anchor types.Key, lo, hi types.Key, fold func(primary *types.Entry, delta types.Entry)) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	p, ok := s.rows.Get(anchor)
	if !ok {
		return 0
	}
	if l, locked := s.locks[anchor]; locked && l.mode == lockExclusive {
		return 0
	}
	primary := p.entry(anchor)
	var victims []types.Key
	var folded []types.Entry
	c := rowCursorPool.Get().(*btree.Cursor[types.Key, packedRow])
	for c.Seek(s.rows, lo); c.Valid(); c.Next() {
		k := c.Key()
		if !k.Less(hi) {
			break
		}
		if _, locked := s.locks[k]; locked {
			continue
		}
		victims = append(victims, k)
		folded = append(folded, c.ValueRef().entry(k))
	}
	c.Reset()
	rowCursorPool.Put(c)
	for i, k := range victims {
		fold(&primary, folded[i])
		s.rows.Delete(k)
	}
	if len(victims) > 0 {
		// Deletes rebalance the tree, so re-resolve the anchor's value
		// slot before writing the folded entry back.
		if ref := s.rows.Ref(anchor); ref != nil {
			*ref = pack(primary, ref.version+1)
		}
	}
	return len(victims)
}

// LockedKeys reports how many row locks are currently held (diagnostics).
func (s *Shard) LockedKeys() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.locks)
}

// SnapshotRows captures a consistent cut of the shard: every committed
// row, plus the batch sequence number the cut covers — the snapshot-
// bootstrap source for a new replication secondary (a secondary loaded
// from the cut and fed the shard's WAL records from seq+1 converges
// exactly). The applied batches are a log prefix, so nothing is waited
// for. A queued relaxed batch is in the rows but not the cut; the
// primary's are puts and deletes, which land the same when the link
// ships its record.
func (s *Shard) SnapshotRows() ([]Row, uint64) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	rows := make([]Row, 0, s.rows.Len())
	c := rowCursorPool.Get().(*btree.Cursor[types.Key, packedRow])
	for c.SeekFirst(s.rows); c.Valid(); c.Next() {
		rows = append(rows, c.ValueRef().row(c.Key()))
	}
	c.Reset()
	rowCursorPool.Put(c)
	return rows, s.applied
}
