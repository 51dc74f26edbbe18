package tafdb

import (
	"fmt"
	"sort"
	"time"

	"mantle/internal/rpc"
	"mantle/internal/storage"
	"mantle/internal/txn"
	"mantle/internal/types"
)

// This file implements online directory-subtree migration (DESIGN.md
// §9.3): moving a hot directory's row range — every MetaTable row keyed
// by its pid — from its hash-home shard to an explicitly chosen one,
// while the directory stays fully readable and writers stall for at most
// the copy window. The protocol:
//
//  1. Gate:   install a write gate on the pid. Transactions already in
//             flight drain (the gate installation waits them out);
//             new ones touching the pid park until the gate lifts and
//             then rebuild against the post-migration routing.
//  2. Copy:   one atomic cross-shard transaction — version guards pin
//             every source row, the destination piece inserts copies.
//  3. Verify: re-read the destination; a participant crash between
//             prepare and commit loses staged writes silently, so the
//             routing flip happens only after every row is confirmed
//             present. On mismatch the partial copy is undone and the
//             migration aborts with the source untouched.
//  4. Flip:   swap the routing table (epoch++, override pid→dst).
//             Reads that raced the flip retry once against the new
//             routing (see readRetry in ops.go).
//  5. GC:     delete the source copies (WAL-logged, so a later source
//             crash cannot resurrect them) and lift the gate.
//
// Aborting at any point before the flip leaves the source authoritative
// and at most some already-undone rows on the destination; nothing is
// ever lost or served twice.

// routingTable maps pids to shards: overrides for migrated directories,
// hash for everything else. Immutable; the DB swaps whole tables.
type routingTable struct {
	epoch     uint64
	overrides map[types.InodeID]int
}

// shardIdx maps a pid to its shard index under this table.
func (t *routingTable) shardIdx(db *DB, pid types.InodeID) int {
	if len(t.overrides) > 0 {
		if si, ok := t.overrides[pid]; ok {
			return si
		}
	}
	return db.hashIdx(pid)
}

// RoutingEpoch returns the current routing-table epoch; it advances on
// every migration flip.
func (db *DB) RoutingEpoch() uint64 { return db.routing.Load().epoch }

// ShardOf reports the shard currently serving pid's row range.
func (db *DB) ShardOf(pid types.InodeID) int { return db.shardIdx(pid) }

// flipRouting publishes a new routing table with pid served by dst. An
// override back to the hash home is dropped rather than stored, so the
// table only grows with directories living away from home.
func (db *DB) flipRouting(pid types.InodeID, dst int) {
	old := db.routing.Load()
	next := &routingTable{
		epoch:     old.epoch + 1,
		overrides: make(map[types.InodeID]int, len(old.overrides)+1),
	}
	for k, v := range old.overrides {
		next.overrides[k] = v
	}
	if dst == db.hashIdx(pid) {
		delete(next.overrides, pid)
	} else {
		next.overrides[pid] = dst
	}
	db.routing.Store(next)
}

// gatedRunner is the Runner the normal write path uses: it checks the
// migration write gate with the drain lock held across the transaction
// round, so a migration that installs a gate afterwards is guaranteed to
// see either this transaction's effects or none. The hold covers the
// transaction's then, which runs alongside the commit round: a gate
// install also waits out in-flight IndexNode proposals. A gated
// transaction waits the migration out, then fails with ErrConflict so
// the retry loop rebuilds its pieces against the post-migration routing.
type gatedRunner struct{ db *DB }

func (g gatedRunner) Run(op *rpc.Op, txnID string, pieces []txn.Piece) error {
	return g.RunThen(op, txnID, pieces, nil)
}

func (g gatedRunner) RunThen(op *rpc.Op, txnID string, pieces []txn.Piece, then func()) error {
	db := g.db
	db.migMu.RLock()
	if db.stalePieces(pieces) {
		// Built against pre-migration routing (the build→run window is
		// not covered by the gate drain): the target rows have moved, so
		// rebuild rather than fail guards against the old home.
		db.migMu.RUnlock()
		return fmt.Errorf("tafdb: txn %s: routing changed under transaction: %w", txnID, types.ErrConflict)
	}
	ch := db.gateFor(pieces)
	if ch == nil {
		err := db.runner.RunThen(op, txnID, pieces, then)
		db.migMu.RUnlock()
		return err
	}
	db.migMu.RUnlock()
	select {
	case <-ch:
	case <-time.After(migrationDrainTimeout):
	}
	return fmt.Errorf("tafdb: txn %s: target directory migrating: %w", txnID, types.ErrConflict)
}

// stalePieces reports whether any piece targets a participant that is
// no longer the routing home of a pid it touches — possible when the
// transaction was built before a routing flip and run after it. Cheap
// when no directory has ever migrated (epoch 0 short-circuits).
func (db *DB) stalePieces(pieces []txn.Piece) bool {
	if db.routing.Load().epoch == 0 {
		return false
	}
	for i := range pieces {
		p := pieces[i].P
		for _, gd := range pieces[i].Guards {
			if db.parts[db.shardIdx(gd.Key.Pid)] != p {
				return true
			}
		}
		for _, m := range pieces[i].Muts {
			if db.parts[db.shardIdx(m.Key.Pid)] != p {
				return true
			}
		}
	}
	return false
}

// gateFor returns the gate channel of the first gated pid the
// transaction touches, or nil when none is gated (the common case: a
// single pointer load and an empty-map check).
func (db *DB) gateFor(pieces []txn.Piece) chan struct{} {
	gates := *db.gates.Load()
	if len(gates) == 0 {
		return nil
	}
	for i := range pieces {
		for _, gd := range pieces[i].Guards {
			if ch, ok := gates[gd.Key.Pid]; ok {
				return ch
			}
		}
		for _, m := range pieces[i].Muts {
			if ch, ok := gates[m.Key.Pid]; ok {
				return ch
			}
		}
	}
	return nil
}

// installGate adds a write gate for dir, draining in-flight transaction
// rounds, and returns the channel to close when lifting it.
func (db *DB) installGate(dir types.InodeID) (chan struct{}, error) {
	ch := make(chan struct{})
	db.migMu.Lock()
	defer db.migMu.Unlock()
	old := *db.gates.Load()
	if _, busy := old[dir]; busy {
		return nil, fmt.Errorf("tafdb: dir %d already migrating: %w", dir, types.ErrConflict)
	}
	next := make(map[types.InodeID]chan struct{}, len(old)+1)
	for k, v := range old {
		next[k] = v
	}
	next[dir] = ch
	db.gates.Store(&next)
	return ch, nil
}

// liftGate removes dir's write gate and wakes parked transactions.
func (db *DB) liftGate(dir types.InodeID, ch chan struct{}) {
	db.migMu.Lock()
	old := *db.gates.Load()
	next := make(map[types.InodeID]chan struct{}, len(old))
	for k, v := range old {
		if k != dir {
			next[k] = v
		}
	}
	db.gates.Store(&next)
	db.migMu.Unlock()
	close(ch)
}

// hook invokes the migration test hook, if installed.
func (db *DB) hook(stage string) {
	if db.migHook != nil {
		db.migHook(stage)
	}
}

// SetMigrationHook installs a callback invoked at migration stage
// boundaries ("gated", "copied", "flipped") — fault-injection seam for
// the chaos tests. Not used in production.
func (db *DB) SetMigrationHook(fn func(stage string)) { db.migHook = fn }

// MigrationStats is the migration subsystem's accounting.
type MigrationStats struct {
	Migrations int64 `json:"migrations"`
	Rows       int64 `json:"rows_moved"`
	Aborts     int64 `json:"aborts"`
	// Overrides is the number of directories currently living away from
	// their hash-home shard.
	Overrides int    `json:"overrides"`
	Epoch     uint64 `json:"routing_epoch"`
}

// Migrations snapshots the migration accounting.
func (db *DB) Migrations() MigrationStats {
	t := db.routing.Load()
	return MigrationStats{
		Migrations: db.migrations.Load(),
		Rows:       db.migratedRows.Load(),
		Aborts:     db.migrationAborts.Load(),
		Overrides:  len(t.overrides),
		Epoch:      t.epoch,
	}
}

// MigrateDir moves directory dir's row range to shard dst online,
// returning the number of rows moved. Concurrent reads are served
// throughout; concurrent writes to dir stall for the copy window and
// then retry against the new home. On error nothing moved: the source
// shard remains authoritative and routing is unchanged.
func (db *DB) MigrateDir(op *rpc.Op, dir types.InodeID, dst int) (int, error) {
	if dst < 0 || dst >= len(db.parts) {
		return 0, fmt.Errorf("tafdb: migrate dir %d: no shard %d", dir, dst)
	}
	src := db.shardIdx(dir)
	if src == dst {
		return 0, nil
	}
	pSrc, pDst := db.parts[src], db.parts[dst]

	ch, err := db.installGate(dir)
	if err != nil {
		return 0, err
	}
	defer db.liftGate(dir, ch)
	db.hook("gated")

	// Fold outstanding delta records first so the settled attribute row
	// moves instead of a delta trail.
	db.compactDir(dir)

	// Copy: one atomic 2PC. The gate drained every writer, so the scan
	// is stable; the version guards make the copy abort-and-rescan if
	// that assumption is ever violated rather than move torn data. Runs
	// unbatched (txn.Direct) and ungated — the migration's own pieces
	// touch the gated pid by design.
	var keys []types.Key
	_, err = txn.RunWithRetry(txn.Direct{}, op, db.newTxnID(), maxRetries,
		db.cfg.RetryBase, db.cfg.RetryMax, nil, func(int) ([]txn.Piece, error) {
			if pSrc.Shard.Crashed() || pDst.Shard.Crashed() {
				return nil, fmt.Errorf("tafdb: migrate dir %d: participant shard down: %w",
					dir, types.ErrUnavailable)
			}
			keys = keys[:0]
			var guards []storage.Guard
			var puts []storage.Mutation
			pSrc.Shard.Scan(
				types.Key{Pid: dir, Name: ""},
				types.Key{Pid: dir + 1, Name: ""},
				func(r storage.Row) bool {
					k := types.Key{Pid: dir, Name: r.Entry.Name}
					keys = append(keys, k)
					guards = append(guards, storage.Guard{
						Key: k, Kind: storage.GuardVersion, Version: r.Version,
					})
					puts = append(puts, storage.Mutation{Kind: storage.MutPut, Key: k, Entry: r.Entry})
					return true
				})
			if len(puts) == 0 {
				return nil, fmt.Errorf("tafdb: migrate dir %d: no rows on shard %d: %w",
					dir, src, types.ErrNotFound)
			}
			return []txn.Piece{
				{P: pSrc, Guards: guards},
				{P: pDst, Muts: puts},
			}, nil
		})
	if err != nil {
		db.migrationAborts.Add(1)
		return 0, err
	}
	db.hook("copied")

	// Verify: flip only after every row is confirmed on the destination.
	// A destination crash between prepare and commit silently loses the
	// staged writes while the source-side commit (guards only) succeeds;
	// without this check the flip would publish an empty home.
	for _, k := range keys {
		if _, ok := pDst.Shard.Get(k); !ok {
			undo := make([]storage.Mutation, 0, len(keys))
			for _, k2 := range keys {
				undo = append(undo, storage.Mutation{Kind: storage.MutDelete, Key: k2})
			}
			_ = pDst.Shard.Apply(undo) // best-effort: deletes of absent rows are no-ops
			db.migrationAborts.Add(1)
			return 0, fmt.Errorf("tafdb: migrate dir %d: copy verification failed on shard %d: %w",
				dir, dst, types.ErrUnavailable)
		}
	}

	// Commit point.
	db.flipRouting(dir, dst)
	db.hook("flipped")

	// GC the source rows. Nothing routes to them anymore; the deletes
	// are WAL-logged so a source crash cannot resurrect them.
	gc := make([]storage.Mutation, 0, len(keys))
	for _, k := range keys {
		gc = append(gc, storage.Mutation{Kind: storage.MutDelete, Key: k})
	}
	_ = pSrc.Shard.Apply(gc)

	db.migrations.Add(1)
	db.migratedRows.Add(int64(len(keys)))
	return len(keys), nil
}

// MigrationPlan is one proposed directory move.
type MigrationPlan struct {
	Dir  types.InodeID `json:"dir"`
	From int           `json:"from"`
	To   int           `json:"to"`
	// Heat is the directory's decayed op count from the DB-wide sketch.
	Heat int64 `json:"heat"`
}

// PlanMigrations proposes up to max directory moves that would flatten
// the shard load distribution: hot directories (from the heat sketch)
// whose home shard carries significantly more load than the coldest
// shard are assigned, hottest first, to the currently coldest shard.
// Each assignment virtually transfers the directory's heat so one cold
// shard does not absorb every hot directory. Pure read — callers decide
// whether to execute the plan via MigrateDir.
func (db *DB) PlanMigrations(max int) []MigrationPlan {
	if max <= 0 {
		max = 4
	}
	loads := db.ShardLoads()
	if len(loads) < 2 {
		return nil
	}
	// Shard load score: the EWMA rate when live, else cumulative ops —
	// both monotone proxies for "how busy is this shard right now".
	score := make([]float64, len(loads))
	for i, l := range loads {
		score[i] = l.PerSecond
		if score[i] == 0 {
			score[i] = float64(l.Reads + l.TxnPieces)
		}
	}
	var plans []MigrationPlan
	for _, h := range db.HotDirs() {
		if len(plans) >= max || h.Count <= 0 {
			break
		}
		from := db.shardIdx(h.Key)
		coldest := 0
		for i := range score {
			if score[i] < score[coldest] {
				coldest = i
			}
		}
		// Only move when the imbalance is structural: the hot dir's home
		// carries at least half again the coldest shard's load.
		if from == coldest || score[from] < 1.5*score[coldest] {
			continue
		}
		plans = append(plans, MigrationPlan{Dir: h.Key, From: from, To: coldest, Heat: h.Count})
		// Virtually transfer the heat so subsequent picks spread out.
		moved := float64(h.Count)
		if moved > score[from] {
			moved = score[from]
		}
		score[from] -= moved
		score[coldest] += moved
	}
	sort.Slice(plans, func(i, j int) bool { return plans[i].Heat > plans[j].Heat })
	return plans
}

// readRetry runs fn against pid's current home shard and retries once if
// a migration flipped the routing mid-read: the first attempt may have
// scanned the old home after its rows were garbage-collected.
func (db *DB) readRetry(pid types.InodeID, fn func(si int) error) error {
	for attempt := 0; ; attempt++ {
		epoch := db.routing.Load().epoch
		err := fn(db.shardIdx(pid))
		if attempt == 0 && db.routing.Load().epoch != epoch {
			continue
		}
		return err
	}
}

// migrationDrainTimeout bounds how long a gated transaction parks
// waiting for a migration to finish before it gives up its attempt and
// lets the retry/backoff machinery take over — the safety valve against
// a wedged migration starving writers forever.
const migrationDrainTimeout = 5 * time.Second
