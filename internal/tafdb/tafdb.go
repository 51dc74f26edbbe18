// Package tafdb implements TafDB, Mantle's scalable sharded metadata
// database (§4 of the paper). TafDB stores the complete metadata of every
// namespace — access metadata and attribute metadata — as MetaTable rows
// partitioned across shards by parent directory ID (pid), so that a
// directory's children colocate on one shard. Directory mutations that
// span shards run as distributed transactions (internal/txn); mutations
// within one shard use the single-RPC fast path.
//
// Row layout. For an entry named N under parent directory P:
//
//	access row:   (P.ID, N)                 — id, kind, permission; for
//	                                           objects the attributes are
//	                                           inline (one row per object)
//	dir attrs:    (D.ID, "\x00attr")        — a directory D's primary
//	                                           attribute record
//	delta record: (D.ID, "\x00attr\x00TS")  — an out-of-place attribute
//	                                           delta with transaction
//	                                           timestamp TS (§5.2.1)
//
// The "\x00" name prefix is illegal in real names, so internal rows sort
// before all children and are trivially excluded from readdir scans.
// Because a directory's primary attribute row and its delta records share
// the directory's ID as pid, delta compaction is always a single-shard
// operation.
//
// Contention behaviour. With delta records disabled (or not yet activated
// for a directory), concurrent child-creating transactions collide on the
// parent's primary attribute row (in-place MutDeltaAttr under exclusive
// lock) and abort/retry — the Figure 4b collapse. With delta records
// active, each transaction inserts a distinct delta row and holds only a
// shared existence guard on the primary row, so they commit concurrently;
// a background compactor folds deltas into the primary record, and
// dirstat merges live deltas on read (§5.2.1).
package tafdb

import (
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"mantle/internal/heat"
	"mantle/internal/metrics"
	"mantle/internal/netsim"
	"mantle/internal/rpc"
	"mantle/internal/storage"
	"mantle/internal/trace"
	"mantle/internal/txn"
	"mantle/internal/types"
)

// attrName is the reserved name of a directory's primary attribute row.
const attrName = "\x00attr"

// deltaPrefix prefixes delta-record names; a timestamp suffix follows.
const deltaPrefix = "\x00attr\x00"

// childrenLo is the lowest possible real child name (internal rows sort
// below it).
const childrenLo = "\x01"

// heatTopK is the tracked-key budget for the DB-wide directory heat
// sketch (space-saving guarantees cover anything hotter than the
// coldest tracked key, so a small k suffices for skewed workloads).
const heatTopK = 32

// shardLoad accumulates one shard's load signals. All fields are
// updated lock-free on the hot path.
type shardLoad struct {
	reads  atomic.Int64 // point/scan reads served
	pieces atomic.Int64 // transaction pieces participated in
	twoPC  atomic.Int64 // pieces that were part of a cross-shard 2PC
	rate   *heat.Rate   // EWMA ops/sec (reads + pieces)
}

// ShardLoad is the exported per-shard load snapshot.
type ShardLoad struct {
	Shard     int     `json:"shard"`
	Rows      int     `json:"rows"`
	Reads     int64   `json:"reads"`
	TxnPieces int64   `json:"txn_pieces"`
	TwoPC     int64   `json:"two_pc"`
	PerSecond float64 `json:"per_second"`
}

// DeltaMode selects the directory-attribute update strategy.
type DeltaMode uint8

const (
	// DeltaOff always updates attributes in place (contended).
	DeltaOff DeltaMode = iota
	// DeltaAuto activates delta records per directory under sustained
	// contention, the production configuration (§5.2.1: "delta records
	// are enabled selectively, activated only under sustained contention
	// within a directory").
	DeltaAuto
	// DeltaAlways uses delta records for every directory update.
	DeltaAlways
)

// ReplSink receives every committed mutation batch for asynchronous
// site-to-site replication (internal/repl.Source satisfies it). Commit
// is invoked under the shard mutex in commit order; implementations
// must be fast and must never call back into the DB. StampTxn/ForgetTxn
// bracket cross-shard transactions so all pieces of one 2PC share a
// single timestamp and are recognisable as an atomic group downstream.
type ReplSink interface {
	StampTxn(txnID string, pieces int)
	ForgetTxn(txnID string)
	Commit(shard int, seq uint64, txnID string, muts []storage.Mutation)
}

// Config parameterises a DB.
type Config struct {
	// Shards is the number of storage shards (the paper deploys 18 TafDB
	// servers).
	Shards int
	// Workers is the CPU worker count per shard node.
	Workers int
	// OpCost is the CPU service time charged per shard read access.
	OpCost time.Duration
	// TxnCost is the CPU service time charged per transaction phase on a
	// participant shard (prepare/commit are heavier than reads: WAL
	// append, lock table work). Defaults to OpCost.
	TxnCost time.Duration
	// Fabric supplies RPC latency; required.
	Fabric *netsim.Fabric
	// Delta selects the attribute-update strategy.
	Delta DeltaMode
	// WALSyncCost, when positive, attaches a write-ahead log to every
	// shard: committed transactions are logged (group commit) before
	// they apply, and crashed shards recover by replay. Zero disables
	// the WAL (the simulated-performance experiments model durability
	// costs in the Raft layer instead).
	WALSyncCost time.Duration
	// Batch2PC routes cross-shard transactions through a batching 2PC
	// coordinator: independent transactions with the same participant
	// set share one prepare round and one commit round.
	Batch2PC bool
	// Repl, when non-nil, receives every committed mutation batch — the
	// feed for asynchronous site replication.
	Repl ReplSink
	// RetryBase/RetryMax shape the retry backoff.
	RetryBase, RetryMax time.Duration
}

func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = 4
	}
	if c.Workers < 0 {
		c.Workers = 0
	}
	if c.Fabric == nil {
		c.Fabric = netsim.NewLocalFabric()
	}
	if c.RetryBase <= 0 {
		c.RetryBase = 20 * time.Microsecond
	}
	if c.RetryMax <= 0 {
		c.RetryMax = 2 * time.Millisecond
	}
	if c.TxnCost <= 0 {
		c.TxnCost = c.OpCost
	}
	return c
}

// DB is a TafDB instance: a set of shards plus the delta-record machinery.
// One DB is shared by all namespaces (§4).
type DB struct {
	cfg    Config
	parts  []*txn.Participant
	runner txn.Runner

	// Per-shard load accounting (reads served, transaction pieces
	// participated, cross-shard 2PC participations, EWMA op rate) plus
	// the key-range heat sketch over parent-directory IDs — the signals
	// a future shard-split/migration policy reads. partIdx maps a
	// participant back to its shard index for write-path accounting.
	loads   []shardLoad
	partIdx map[*txn.Participant]int
	dirHeat *heat.TopK[types.InodeID]

	// Online-migration state (migrate.go): the routing table maps
	// migrated pids to their new home shards; gates parks writers while
	// a directory's rows are in flight; migMu's write side drains
	// in-flight transaction rounds before a gate is installed.
	routing         atomic.Pointer[routingTable]
	migMu           sync.RWMutex
	gates           atomic.Pointer[map[types.InodeID]chan struct{}]
	migHook         func(stage string)
	migrations      atomic.Int64
	migratedRows    atomic.Int64
	migrationAborts atomic.Int64

	nextID  atomic.Uint64
	txnSeq  atomic.Uint64
	tsSeq   atomic.Uint64
	retries atomic.Int64 // cumulative transaction retries (contention metric)
	txnLat  metrics.Latency

	// deltaDirs tracks directories with delta mode active and their
	// conflict scores (for DeltaAuto activation).
	deltaMu   sync.Mutex
	deltaOn   map[types.InodeID]bool
	conflicts map[types.InodeID]int

	stopCh   chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// New creates a TafDB and starts its delta compactor.
func New(cfg Config) *DB {
	cfg = cfg.withDefaults()
	db := &DB{
		cfg:       cfg,
		deltaOn:   make(map[types.InodeID]bool),
		conflicts: make(map[types.InodeID]int),
		stopCh:    make(chan struct{}),
	}
	db.nextID.Store(uint64(types.RootID))
	db.runner = txn.Direct{}
	if cfg.Batch2PC {
		db.runner = txn.NewBatcher(0) // the batcher's own bound, 64 per round
	}
	for i := 0; i < cfg.Shards; i++ {
		shard := storage.NewShard(fmt.Sprintf("tafdb-%d", i))
		if cfg.WALSyncCost > 0 {
			shard.AttachWAL(storage.NewWAL(cfg.WALSyncCost))
		}
		if cfg.Repl != nil {
			si := i
			shard.SetReplHook(func(seq uint64, txnID string, muts []storage.Mutation) {
				cfg.Repl.Commit(si, seq, txnID, muts)
			})
		}
		db.parts = append(db.parts, &txn.Participant{
			Shard: shard,
			Node:  netsim.NewNode(fmt.Sprintf("tafdb-%d", i), cfg.Workers),
			Cost:  cfg.TxnCost,
		})
	}
	db.loads = make([]shardLoad, cfg.Shards)
	db.partIdx = make(map[*txn.Participant]int, cfg.Shards)
	for i, p := range db.parts {
		db.loads[i].rate = heat.NewRate(0)
		db.partIdx[p] = i
	}
	db.dirHeat = heat.NewTopK[types.InodeID](heatTopK)
	db.routing.Store(&routingTable{})
	emptyGates := map[types.InodeID]chan struct{}{}
	db.gates.Store(&emptyGates)
	db.wg.Add(1)
	go db.compactLoop()
	return db
}

// Stop shuts down the compactor.
func (db *DB) Stop() {
	db.stopOnce.Do(func() { close(db.stopCh) })
	db.wg.Wait()
}

// NewID allocates a fresh inode ID.
func (db *DB) NewID() types.InodeID {
	return types.InodeID(db.nextID.Add(1))
}

// ReserveIDs advances the allocator past max, so bulk-populated inode IDs
// never collide with transactionally allocated ones.
func (db *DB) ReserveIDs(max types.InodeID) {
	for {
		cur := db.nextID.Load()
		if cur >= uint64(max) {
			return
		}
		if db.nextID.CompareAndSwap(cur, uint64(max)) {
			return
		}
	}
}

// newTxnID returns a unique transaction identifier.
func (db *DB) newTxnID() string {
	var b [24]byte
	return string(strconv.AppendUint(append(b[:0], "taf-"...), db.txnSeq.Add(1), 10))
}

// newDeltaName returns a fresh delta-record name: deltaPrefix and a
// monotonically increasing transaction timestamp, 16 hex digits.
func (db *DB) newDeltaName() string {
	var b [len(deltaPrefix) + 16]byte
	copy(b[:], deltaPrefix)
	ts := db.tsSeq.Add(1)
	for i := len(b) - 1; i >= len(deltaPrefix); i-- {
		b[i] = "0123456789abcdef"[ts&15]
		ts >>= 4
	}
	return string(b[:])
}

// Retries returns the cumulative transaction retry count — the
// contention signal the evaluation reports.
func (db *DB) Retries() int64 { return db.retries.Load() }

// Shards returns the shard count.
func (db *DB) Shards() int { return len(db.parts) }

// Nodes returns the shard nodes (for utilisation reporting).
func (db *DB) Nodes() []*netsim.Node {
	out := make([]*netsim.Node, len(db.parts))
	for i, p := range db.parts {
		out[i] = p.Node
	}
	return out
}

// hashIdx is the static pid→shard hash. Fibonacci hashing spreads
// sequential IDs.
func (db *DB) hashIdx(pid types.InodeID) int {
	h := uint64(pid) * 0x9E3779B97F4A7C15
	return int(h % uint64(len(db.parts)))
}

// shardIdx maps a pid to its current shard index: the routing table's
// migration override when one exists, the hash home otherwise.
func (db *DB) shardIdx(pid types.InodeID) int {
	return db.routing.Load().shardIdx(db, pid)
}

// shardFor maps a pid to its participant.
func (db *DB) shardFor(pid types.InodeID) *txn.Participant {
	return db.parts[db.shardIdx(pid)]
}

// noteRead accounts one read served by shard si against directory dir.
func (db *DB) noteRead(si int, dir types.InodeID) {
	l := &db.loads[si]
	l.reads.Add(1)
	l.rate.Add(1)
	db.dirHeat.Record(dir)
}

// notePieces accounts a successfully built transaction's pieces against
// their shards; cross-shard transactions also bump each participant's
// 2PC counter.
func (db *DB) notePieces(pieces []txn.Piece) {
	cross := len(pieces) > 1
	for i := range pieces {
		si, ok := db.partIdx[pieces[i].P]
		if !ok {
			continue
		}
		l := &db.loads[si]
		l.pieces.Add(1)
		l.rate.Add(1)
		if cross {
			l.twoPC.Add(1)
		}
	}
}

// ShardLoads snapshots every shard's load accounting.
func (db *DB) ShardLoads() []ShardLoad {
	out := make([]ShardLoad, len(db.parts))
	for i, p := range db.parts {
		l := &db.loads[i]
		out[i] = ShardLoad{
			Shard:     i,
			Rows:      p.Shard.Len(),
			Reads:     l.reads.Load(),
			TxnPieces: l.pieces.Load(),
			TwoPC:     l.twoPC.Load(),
			PerSecond: l.rate.PerSecond(),
		}
	}
	return out
}

// HotDirs returns the DB-wide directory write/read heat sketch, hottest
// first.
func (db *DB) HotDirs() []heat.Item[types.InodeID] {
	return db.dirHeat.Snapshot()
}

func attrKey(dir types.InodeID) types.Key {
	return types.Key{Pid: dir, Name: attrName}
}

// deltaModeFor reports whether delta records are active for dir.
func (db *DB) deltaModeFor(dir types.InodeID) bool {
	switch db.cfg.Delta {
	case DeltaAlways:
		return true
	case DeltaOff:
		return false
	}
	db.deltaMu.Lock()
	defer db.deltaMu.Unlock()
	return db.deltaOn[dir]
}

// deltaThreshold is the number of recent conflicts on a directory that
// activates delta mode under DeltaAuto.
const deltaThreshold = 3

// noteConflict records a transaction conflict on dir's attribute row and
// activates delta mode once the threshold is reached (DeltaAuto).
func (db *DB) noteConflict(dir types.InodeID) {
	db.retries.Add(1)
	if db.cfg.Delta != DeltaAuto {
		return
	}
	db.deltaMu.Lock()
	defer db.deltaMu.Unlock()
	if db.deltaOn[dir] {
		return
	}
	db.conflicts[dir]++
	if db.conflicts[dir] >= deltaThreshold {
		db.deltaOn[dir] = true
		delete(db.conflicts, dir)
	}
}

// DeltaActive reports whether delta mode is currently active for dir.
func (db *DB) DeltaActive(dir types.InodeID) bool { return db.deltaModeFor(dir) }

// parentAttrMutation builds the mutation applying an attribute delta to
// dir: an in-place read-modify-write when delta mode is off, or an
// out-of-place delta-record insert when on. Both are accompanied by a
// shared existence guard on the primary attribute row (returned
// separately) — the latch that serialises against rmdir.
func (db *DB) parentAttrMutation(dir types.InodeID, delta storage.AttrDelta, now time.Time) (storage.Mutation, storage.Guard) {
	guard := storage.Guard{Key: attrKey(dir), Kind: storage.GuardExists}
	if db.deltaModeFor(dir) {
		name := db.newDeltaName()
		return storage.Mutation{
			Kind: storage.MutPut,
			Key:  types.Key{Pid: dir, Name: name},
			Entry: types.Entry{
				Pid:  dir,
				Name: name, // entries mirror their row key
				Kind: types.KindDir,
				Attr: types.Attr{
					LinkCount: delta.LinkCount,
					Size:      delta.Size,
					MTime:     now,
				},
			},
		}, guard
	}
	return storage.Mutation{
		Kind:      storage.MutDeltaAttr,
		Key:       attrKey(dir),
		Delta:     delta,
		MustExist: true,
	}, guard
}

// compactInterval is the delta compactor's period.
const compactInterval = 10 * time.Millisecond

// compactLoop periodically folds delta records into primary attribute
// rows for every directory with delta mode active.
func (db *DB) compactLoop() {
	defer db.wg.Done()
	ticker := time.NewTicker(compactInterval)
	defer ticker.Stop()
	for {
		select {
		case <-db.stopCh:
			return
		case <-ticker.C:
		}
		db.CompactAll()
	}
}

// CompactAll folds outstanding delta records for every delta-active
// directory, returning the number of deltas folded. Also invoked
// synchronously by tests and by rmdir preflight.
func (db *DB) CompactAll() int {
	var dirs []types.InodeID
	db.deltaMu.Lock()
	for d := range db.deltaOn {
		dirs = append(dirs, d)
	}
	db.deltaMu.Unlock()
	total := 0
	if db.cfg.Delta == DeltaAlways {
		// No registry: compact by scanning every shard for delta rows.
		for _, p := range db.parts {
			total += compactShardDeltas(p.Shard)
		}
		return total
	}
	for _, d := range dirs {
		total += db.compactDir(d)
	}
	return total
}

// compactDir folds dir's delta records into its primary attribute row.
func (db *DB) compactDir(dir types.InodeID) int {
	p := db.shardFor(dir)
	return p.Shard.CompactRange(
		attrKey(dir),
		types.Key{Pid: dir, Name: deltaPrefix},
		types.Key{Pid: dir, Name: childrenLo},
		foldDelta,
	)
}

func foldDelta(primary *types.Entry, delta types.Entry) {
	primary.Attr.LinkCount += delta.Attr.LinkCount
	primary.Attr.Size += delta.Attr.Size
	if delta.Attr.MTime.After(primary.Attr.MTime) {
		primary.Attr.MTime = delta.Attr.MTime
	}
}

// compactShardDeltas compacts every delta row found on a shard (used in
// DeltaAlways mode, which keeps no per-directory registry).
func compactShardDeltas(s *storage.Shard) int {
	// Collect the pids that have delta rows, then compact each.
	seen := map[types.InodeID]bool{}
	s.Scan(types.Key{}, types.Key{Pid: ^types.InodeID(0), Name: "\xff"}, func(r storage.Row) bool {
		if len(r.Entry.Name) > len(deltaPrefix) && r.Entry.Name[:len(deltaPrefix)] == deltaPrefix {
			seen[r.Entry.Pid] = true
		}
		return true
	})
	total := 0
	for pid := range seen {
		total += s.CompactRange(
			attrKey(pid),
			types.Key{Pid: pid, Name: deltaPrefix},
			types.Key{Pid: pid, Name: childrenLo},
			foldDelta,
		)
	}
	return total
}

// maxRetries bounds transaction retries per operation.
const maxRetries = 10000

// runTxn executes build as a retried transaction, recording contention
// against contendedDir on each retry; then is handed to txn.RunWithRetry.
// The whole transaction — all retries included — is one txn-commit span
// and one txnLat observation.
func (db *DB) runTxn(op *rpc.Op, contendedDir types.InodeID, then func(), build func(attempt int) ([]txn.Piece, error)) (int, error) {
	ctx, sp := trace.Start(op.Context(), "txn-commit")
	op = op.WithContext(ctx)
	db.dirHeat.Record(contendedDir)
	start := time.Now()
	id := db.newTxnID()
	wrapped := func(attempt int) ([]txn.Piece, error) {
		if attempt > 0 {
			db.noteConflict(contendedDir)
			sp.Annotate("retry", "%d", attempt)
			if db.cfg.Repl != nil {
				// The previous attempt aborted; drop its stamp.
				db.cfg.Repl.ForgetTxn(txn.AttemptID(id, attempt-1))
			}
		}
		pieces, err := build(attempt)
		if err == nil {
			pieces = txn.Merge(pieces)
			db.notePieces(pieces)
			if db.cfg.Repl != nil && len(pieces) > 1 {
				// Pre-register the cross-shard group before the 2PC
				// rounds run, so all pieces share one HLC in the oplog.
				db.cfg.Repl.StampTxn(txn.AttemptID(id, attempt), len(pieces))
			}
		}
		return pieces, err
	}
	if db.cfg.Batch2PC {
		sp.SetAttr("2pc", "batched")
	}
	retries, err := txn.RunWithRetry(gatedRunner{db}, op, id, maxRetries,
		db.cfg.RetryBase, db.cfg.RetryMax, then, wrapped)
	if db.cfg.Repl != nil {
		// Committed stamps were consumed piece by piece; this clears the
		// stamp of a final failed/aborted attempt. No-op otherwise.
		db.cfg.Repl.ForgetTxn(txn.AttemptID(id, retries))
	}
	db.txnLat.Observe(time.Since(start))
	sp.End()
	return retries, err
}

// WALStats aggregates the sync accounting across every shard's WAL
// (zero when the WAL is disabled).
func (db *DB) WALStats() storage.WALStats {
	var out storage.WALStats
	for _, p := range db.parts {
		if w := p.Shard.WAL(); w != nil {
			out.Add(w.Stats())
		}
	}
	return out
}

// Batch2PCStats reports the batched-2PC coordinator's accounting:
// cross-shard transactions coordinated, transactions that shared their
// rounds, and round pairs executed. All zero with batching off.
func (db *DB) Batch2PCStats() (txns, batched, rounds int64) {
	if b, ok := db.runner.(*txn.Batcher); ok {
		return b.Stats()
	}
	return 0, 0, 0
}

// TxnLatency returns the DB-wide transaction-commit latency histogram
// (whole transactions, retries included).
func (db *DB) TxnLatency() *metrics.Latency { return &db.txnLat }

// RegisterMetrics exposes the database on reg: row and retry counts, the
// migration accounting, the WAL group-commit and batched-2PC families
// (one snapshot each, so wal_group_fanin and txn_batch_fanin are the
// ratios of the counts printed beside them), and the commit histogram.
func (db *DB) RegisterMetrics(reg *metrics.Registry) {
	reg.AttachLatency("latency_txn_commit", &db.txnLat)
	reg.Collect(func(e *metrics.Emitter) {
		e.Int("tafdb_rows", int64(db.TotalRows()))
		e.Int("tafdb_txn_retries", db.Retries())
		mig := db.Migrations()
		e.Int("migrations", mig.Migrations)
		e.Int("migration_rows", mig.Rows)
		e.Int("migration_aborts", mig.Aborts)
		wal := db.WALStats()
		e.Int("wal_syncs", wal.Syncs)
		e.Int("wal_syncs_solo", wal.SoloSyncs)
		e.Int("wal_syncs_group", wal.GroupSyncs)
		e.Int("wal_batches_covered", wal.Covered)
		e.Ratio("wal_group_fanin", wal.Covered, wal.Syncs)
		txns, batched, rounds := db.Batch2PCStats()
		e.Int("txn_batch_txns", txns)
		e.Int("txn_batch_batched", batched)
		e.Int("txn_batch_rounds", rounds)
		e.Ratio("txn_batch_fanin", txns, rounds)
	})
}

// CrashShard crash-stops shard i (failure injection): its in-memory
// state is discarded; only WAL-logged commits survive.
func (db *DB) CrashShard(i int) {
	db.parts[i%len(db.parts)].Shard.Crash()
}

// RecoverShard replays shard i's WAL, returning mutations replayed.
func (db *DB) RecoverShard(i int) int {
	return db.parts[i%len(db.parts)].Shard.Recover()
}

// SnapshotShard captures a consistent cut of shard i: every row plus
// the commit sequence the cut covers. Replication resumes from seq+1
// after the rows are loaded on the secondary (snapshot bootstrap).
func (db *DB) SnapshotShard(i int) ([]storage.Row, uint64) {
	return db.parts[i%len(db.parts)].Shard.SnapshotRows()
}

// ApplyToShard lands a replicated mutation batch directly on shard i's
// store, bypassing routing and transactions — the secondary-site apply
// path (the applier has already ordered, grouped, and LWW-filtered the
// batch). The apply is logged and charged like a local relaxed apply.
func (db *DB) ApplyToShard(i int, muts []storage.Mutation) error {
	p := db.parts[i%len(db.parts)]
	return p.Node.Exec(p.Cost, func() error {
		return p.Shard.Apply(muts)
	})
}

// ReplayShard iterates shard i's WAL batches in commit order — the
// durable ground truth fsck cross-checks the replication oplog against.
// A no-op when the WAL is disabled.
func (db *DB) ReplayShard(i int, fn func(seq uint64, muts []storage.Mutation)) {
	if w := db.parts[i%len(db.parts)].Shard.WAL(); w != nil {
		w.ReplayBatches(fn)
	}
}

// ForEachRow visits every MetaTable row on every shard (diagnostics,
// fsck). Rows are visited per shard in key order.
func (db *DB) ForEachRow(fn func(row storage.Row)) {
	for _, p := range db.parts {
		p.Shard.Scan(types.Key{}, types.Key{Pid: ^types.InodeID(0), Name: "\xff"},
			func(r storage.Row) bool {
				fn(r)
				return true
			})
	}
}
