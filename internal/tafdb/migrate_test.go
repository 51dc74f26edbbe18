package tafdb

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"mantle/internal/netsim"
	"mantle/internal/rpc"
	"mantle/internal/storage"
	"mantle/internal/types"
)

func newMigrationDB(t *testing.T) (*DB, *rpc.Caller) {
	t.Helper()
	db := New(Config{Shards: 4, WALSyncCost: time.Microsecond})
	t.Cleanup(db.Stop)
	if err := db.CreateRoot(types.RootID); err != nil {
		t.Fatal(err)
	}
	return db, rpc.NewCaller(netsim.NewLocalFabric())
}

// rowsOnShard counts the rows keyed by pid that physically live on shard
// si — the ground truth the routing table must agree with.
func rowsOnShard(db *DB, si int, pid types.InodeID) int {
	n := 0
	db.parts[si].Shard.Scan(
		types.Key{Pid: pid, Name: ""},
		types.Key{Pid: pid + 1, Name: ""},
		func(storage.Row) bool { n++; return true })
	return n
}

func TestMigrateDirMovesRowRange(t *testing.T) {
	db, caller := newMigrationDB(t)
	dir := db.NewID()
	if _, _, err := db.Mkdir(caller.Begin(), types.RootID, "hot", dir, types.PermAll, nil); err != nil {
		t.Fatal(err)
	}
	const children = 20
	for i := 0; i < children; i++ {
		if _, _, err := db.CreateObject(caller.Begin(), dir, fmt.Sprintf("o%d", i), 1); err != nil {
			t.Fatal(err)
		}
	}
	src := db.ShardOf(dir)
	dst := (src + 1) % db.Shards()
	epoch0 := db.RoutingEpoch()

	moved, err := db.MigrateDir(caller.Begin(), dir, dst)
	if err != nil {
		t.Fatal(err)
	}
	// children + the directory's primary attribute row.
	if moved != children+1 {
		t.Fatalf("moved %d rows, want %d", moved, children+1)
	}
	if db.ShardOf(dir) != dst {
		t.Fatalf("routing still points at shard %d", db.ShardOf(dir))
	}
	if db.RoutingEpoch() != epoch0+1 {
		t.Fatalf("epoch = %d, want %d", db.RoutingEpoch(), epoch0+1)
	}
	if n := rowsOnShard(db, src, dir); n != 0 {
		t.Fatalf("%d rows left on source shard", n)
	}
	if n := rowsOnShard(db, dst, dir); n != children+1 {
		t.Fatalf("destination has %d rows, want %d", n, children+1)
	}
	// The directory stays fully usable at its new home: reads, listings,
	// and writes all resolve through the override.
	if st, err := db.StatDir(caller.Begin(), dir); err != nil || st.Attr.LinkCount != children {
		t.Fatalf("post-migration dirstat = %+v err=%v", st, err)
	}
	if kids, err := db.ReadDir(caller.Begin(), dir); err != nil || len(kids) != children {
		t.Fatalf("post-migration readdir = %d err=%v", len(kids), err)
	}
	if _, _, err := db.CreateObject(caller.Begin(), dir, "post", 1); err != nil {
		t.Fatal(err)
	}
	if e, err := db.GetAccess(caller.Begin(), dir, "post"); err != nil || e.Name != "post" {
		t.Fatalf("post-migration create not visible: %+v err=%v", e, err)
	}
	if n := rowsOnShard(db, src, dir); n != 0 {
		t.Fatalf("post-migration write landed on old home (%d rows)", n)
	}
	st := db.Migrations()
	if st.Migrations != 1 || st.Rows != int64(children+1) || st.Overrides != 1 {
		t.Fatalf("stats = %+v", st)
	}
	// Migrating back to the hash home drops the override.
	if _, err := db.MigrateDir(caller.Begin(), dir, src); err != nil {
		t.Fatal(err)
	}
	if db.Migrations().Overrides != 0 {
		t.Fatalf("override not dropped on move home: %+v", db.Migrations())
	}
}

// Writers racing a migration never lose an entry: the gate parks them
// during the copy window and their retry lands on the new home.
func TestMigrateDirConcurrentWriters(t *testing.T) {
	db, caller := newMigrationDB(t)
	dir := db.NewID()
	if _, _, err := db.Mkdir(caller.Begin(), types.RootID, "busy", dir, types.PermAll, nil); err != nil {
		t.Fatal(err)
	}
	const writers, perWriter = 4, 30
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if _, _, err := db.CreateObject(caller.Begin(), dir, fmt.Sprintf("w%d-%d", w, i), 1); err != nil {
					t.Errorf("create: %v", err)
					return
				}
			}
		}(w)
	}
	// Migrate the directory back and forth while the writers hammer it.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		for hop := 0; hop < 4; hop++ {
			dst := (db.ShardOf(dir) + 1) % db.Shards()
			if _, err := db.MigrateDir(caller.Begin(), dir, dst); err != nil {
				t.Errorf("migrate hop %d: %v", hop, err)
				return
			}
		}
	}()
	wg.Wait()
	<-stop

	kids, err := db.ReadDir(caller.Begin(), dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(kids) != writers*perWriter {
		t.Fatalf("listed %d children, want %d (lost or duplicated writes)", len(kids), writers*perWriter)
	}
	st, err := db.StatDir(caller.Begin(), dir)
	if err != nil || st.Attr.LinkCount != writers*perWriter {
		t.Fatalf("link count %d, want %d", st.Attr.LinkCount, writers*perWriter)
	}
	// All rows live on exactly one shard.
	home := db.ShardOf(dir)
	for si := 0; si < db.Shards(); si++ {
		n := rowsOnShard(db, si, dir)
		if si == home && n != writers*perWriter+1 {
			t.Fatalf("home shard %d has %d rows, want %d", si, n, writers*perWriter+1)
		}
		if si != home && n != 0 {
			t.Fatalf("shard %d has %d orphan rows", si, n)
		}
	}
}

// A destination crash mid-migration aborts cleanly: the source stays
// authoritative, routing never flips, and a retry after recovery
// succeeds.
func TestMigrateDirAbortsOnDestinationCrash(t *testing.T) {
	db, caller := newMigrationDB(t)
	dir := db.NewID()
	if _, _, err := db.Mkdir(caller.Begin(), types.RootID, "crashy", dir, types.PermAll, nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, _, err := db.CreateObject(caller.Begin(), dir, fmt.Sprintf("o%d", i), 1); err != nil {
			t.Fatal(err)
		}
	}
	src := db.ShardOf(dir)
	dst := (src + 1) % db.Shards()
	epoch0 := db.RoutingEpoch()

	// Crash the destination after the copy commits but before the
	// verify/flip: the staged rows are gone, so the migration must
	// detect the loss and abort instead of publishing an empty home.
	crashed := false
	db.SetMigrationHook(func(stage string) {
		if stage == "copied" && !crashed {
			crashed = true
			db.CrashShard(dst)
		}
	})
	if _, err := db.MigrateDir(caller.Begin(), dir, dst); err == nil {
		t.Fatal("migration succeeded despite destination crash")
	} else if !errors.Is(err, types.ErrUnavailable) {
		t.Fatalf("abort error = %v, want ErrUnavailable", err)
	}
	db.SetMigrationHook(nil)
	if db.RoutingEpoch() != epoch0 || db.ShardOf(dir) != src {
		t.Fatal("routing flipped on an aborted migration")
	}
	if n := rowsOnShard(db, src, dir); n != 11 {
		t.Fatalf("source lost rows during abort: %d", n)
	}
	if db.Migrations().Aborts == 0 {
		t.Fatal("abort not counted")
	}
	// The directory is untouched and still writable.
	if _, _, err := db.CreateObject(caller.Begin(), dir, "after-abort", 1); err != nil {
		t.Fatal(err)
	}

	// Recover the destination; the retried migration completes.
	db.RecoverShard(dst)
	moved, err := db.MigrateDir(caller.Begin(), dir, dst)
	if err != nil {
		t.Fatal(err)
	}
	if moved != 12 || db.ShardOf(dir) != dst {
		t.Fatalf("retried migration moved %d rows to shard %d", moved, db.ShardOf(dir))
	}
	if n := rowsOnShard(db, src, dir); n != 0 {
		t.Fatalf("retried migration left %d rows on source", n)
	}
}

func TestMigrateDirRejectsBadTargets(t *testing.T) {
	db, caller := newMigrationDB(t)
	dir := db.NewID()
	if _, _, err := db.Mkdir(caller.Begin(), types.RootID, "d", dir, types.PermAll, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := db.MigrateDir(caller.Begin(), dir, db.Shards()); err == nil {
		t.Fatal("accepted out-of-range shard")
	}
	if moved, err := db.MigrateDir(caller.Begin(), dir, db.ShardOf(dir)); err != nil || moved != 0 {
		t.Fatalf("self-migration = %d, %v", moved, err)
	}
	if _, err := db.MigrateDir(caller.Begin(), types.InodeID(99999), (db.ShardOf(99999)+1)%db.Shards()); !errors.Is(err, types.ErrNotFound) {
		t.Fatalf("migrating a nonexistent dir: %v", err)
	}
}

func TestPlanMigrationsFlattensSkew(t *testing.T) {
	db, caller := newMigrationDB(t)
	dir := db.NewID()
	if _, _, err := db.Mkdir(caller.Begin(), types.RootID, "hot", dir, types.PermAll, nil); err != nil {
		t.Fatal(err)
	}
	// Load one directory hard so its home shard dominates the load
	// accounting and the heat sketch ranks it first.
	for i := 0; i < 300; i++ {
		if _, err := db.StatDir(caller.Begin(), dir); err != nil {
			t.Fatal(err)
		}
	}
	plans := db.PlanMigrations(4)
	if len(plans) == 0 {
		t.Fatalf("no plan despite skew; loads=%+v heat=%+v", db.ShardLoads(), db.HotDirs())
	}
	p := plans[0]
	if p.Dir != dir {
		t.Fatalf("hottest planned dir = %d, want %d", p.Dir, dir)
	}
	if p.From != db.ShardOf(dir) || p.To == p.From {
		t.Fatalf("bad plan %+v", p)
	}
	// The plan is executable as-is.
	if _, err := db.MigrateDir(caller.Begin(), p.Dir, p.To); err != nil {
		t.Fatal(err)
	}
	if db.ShardOf(dir) != p.To {
		t.Fatal("plan execution did not move the dir")
	}
}
