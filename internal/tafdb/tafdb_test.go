package tafdb

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"
	"time"

	"mantle/internal/netsim"
	"mantle/internal/rpc"
	"mantle/internal/types"
)

func testDB(t *testing.T, mode DeltaMode) (*DB, *rpc.Caller) {
	t.Helper()
	db := New(Config{Shards: 4, Delta: mode})
	t.Cleanup(db.Stop)
	if err := db.CreateRoot(types.RootID); err != nil {
		t.Fatal(err)
	}
	return db, rpc.NewCaller(netsim.NewLocalFabric())
}

func TestCreateStatDeleteObject(t *testing.T) {
	db, caller := testDB(t, DeltaOff)
	op := caller.Begin()
	e, _, err := db.CreateObject(op, types.RootID, "obj1", 1234)
	if err != nil {
		t.Fatal(err)
	}
	if e.ID == 0 || e.Kind != types.KindObject {
		t.Fatalf("entry = %+v", e)
	}
	got, err := db.StatObject(caller.Begin(), types.RootID, "obj1")
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != e.ID || got.Attr.Size != 1234 {
		t.Fatalf("stat = %+v", got)
	}
	// Parent link count updated.
	root, err := db.StatDir(caller.Begin(), types.RootID)
	if err != nil {
		t.Fatal(err)
	}
	if root.Attr.LinkCount != 1 || root.Attr.Size != 1234 {
		t.Fatalf("root attr = %+v", root.Attr)
	}
	// Duplicate create fails.
	if _, _, err := db.CreateObject(caller.Begin(), types.RootID, "obj1", 1); !errors.Is(err, types.ErrExists) {
		t.Fatalf("dup create: %v", err)
	}
	if _, err := db.DeleteObject(caller.Begin(), types.RootID, "obj1"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.StatObject(caller.Begin(), types.RootID, "obj1"); !errors.Is(err, types.ErrNotFound) {
		t.Fatalf("stat after delete: %v", err)
	}
	root, _ = db.StatDir(caller.Begin(), types.RootID)
	if root.Attr.LinkCount != 0 {
		t.Fatalf("root links after delete = %d", root.Attr.LinkCount)
	}
}

func TestMkdirRmdir(t *testing.T) {
	db, caller := testDB(t, DeltaOff)
	id := db.NewID()
	d, _, err := db.Mkdir(caller.Begin(), types.RootID, "dir1", id, types.PermAll, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d.ID != id {
		t.Fatalf("mkdir id = %d", d.ID)
	}
	// The directory stats as empty.
	attr, err := db.StatDir(caller.Begin(), id)
	if err != nil {
		t.Fatal(err)
	}
	if attr.Attr.LinkCount != 0 {
		t.Fatalf("new dir links = %d", attr.Attr.LinkCount)
	}
	// Non-empty rmdir fails.
	if _, _, err := db.CreateObject(caller.Begin(), id, "o", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Rmdir(caller.Begin(), types.RootID, "dir1", id, nil); !errors.Is(err, types.ErrNotEmpty) {
		t.Fatalf("rmdir non-empty: %v", err)
	}
	if _, err := db.DeleteObject(caller.Begin(), id, "o"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Rmdir(caller.Begin(), types.RootID, "dir1", id, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := db.StatDir(caller.Begin(), id); !errors.Is(err, types.ErrNotFound) {
		t.Fatalf("dirstat after rmdir: %v", err)
	}
}

func TestMkdirIntoMissingParentFails(t *testing.T) {
	db, caller := testDB(t, DeltaOff)
	_, _, err := db.Mkdir(caller.Begin(), types.InodeID(999), "d", db.NewID(), types.PermAll, nil)
	if !errors.Is(err, types.ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
}

func TestReadDirSkipsInternalRows(t *testing.T) {
	db, caller := testDB(t, DeltaAlways)
	id := db.NewID()
	if _, _, err := db.Mkdir(caller.Begin(), types.RootID, "d", id, types.PermAll, nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, _, err := db.CreateObject(caller.Begin(), id, fmt.Sprintf("o%d", i), 10); err != nil {
			t.Fatal(err)
		}
	}
	entries, err := db.ReadDir(caller.Begin(), id)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 5 {
		t.Fatalf("readdir = %d entries (delta rows leaked?)", len(entries))
	}
	for _, e := range entries {
		if e.Name[0] < 0x20 {
			t.Fatalf("internal row in readdir: %q", e.Name)
		}
	}
}

func TestDeltaStatMergesLiveDeltas(t *testing.T) {
	db, caller := testDB(t, DeltaAlways)
	id := db.NewID()
	if _, _, err := db.Mkdir(caller.Begin(), types.RootID, "d", id, types.PermAll, nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 7; i++ {
		if _, _, err := db.CreateObject(caller.Begin(), id, fmt.Sprintf("o%d", i), 100); err != nil {
			t.Fatal(err)
		}
	}
	// Without compaction the deltas are live; dirstat must still be
	// accurate.
	attr, err := db.StatDir(caller.Begin(), id)
	if err != nil {
		t.Fatal(err)
	}
	if attr.Attr.LinkCount != 7 || attr.Attr.Size != 700 {
		t.Fatalf("merged attr = %+v", attr.Attr)
	}
	// After compaction the answer is identical.
	db.CompactAll()
	attr2, err := db.StatDir(caller.Begin(), id)
	if err != nil {
		t.Fatal(err)
	}
	if attr2.Attr.LinkCount != 7 || attr2.Attr.Size != 700 {
		t.Fatalf("post-compact attr = %+v", attr2.Attr)
	}
}

func TestRenameDir(t *testing.T) {
	db, caller := testDB(t, DeltaOff)
	a := db.NewID()
	b := db.NewID()
	d := db.NewID()
	if _, _, err := db.Mkdir(caller.Begin(), types.RootID, "a", a, types.PermAll, nil); err != nil {
		t.Fatal(err)
	}
	if _, _, err := db.Mkdir(caller.Begin(), types.RootID, "b", b, types.PermAll, nil); err != nil {
		t.Fatal(err)
	}
	if _, _, err := db.Mkdir(caller.Begin(), a, "d", d, types.PermAll, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := db.RenameDir(caller.Begin(), a, "d", b, "d2", d, types.PermAll, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := db.GetAccess(caller.Begin(), a, "d"); !errors.Is(err, types.ErrNotFound) {
		t.Fatalf("old name resolves: %v", err)
	}
	e, err := db.GetAccess(caller.Begin(), b, "d2")
	if err != nil || e.ID != d {
		t.Fatalf("new name: %+v err=%v", e, err)
	}
	aAttr, _ := db.StatDir(caller.Begin(), a)
	bAttr, _ := db.StatDir(caller.Begin(), b)
	if aAttr.Attr.LinkCount != 0 || bAttr.Attr.LinkCount != 1 {
		t.Fatalf("links a=%d b=%d", aAttr.Attr.LinkCount, bAttr.Attr.LinkCount)
	}
	// Same-parent rename.
	if _, err := db.RenameDir(caller.Begin(), b, "d2", b, "d3", d, types.PermAll, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := db.GetAccess(caller.Begin(), b, "d3"); err != nil {
		t.Fatal(err)
	}
	// Destination exists.
	e2 := db.NewID()
	if _, _, err := db.Mkdir(caller.Begin(), b, "other", e2, types.PermAll, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := db.RenameDir(caller.Begin(), b, "d3", b, "other", d, types.PermAll, nil); !errors.Is(err, types.ErrExists) {
		t.Fatalf("rename onto existing: %v", err)
	}
}

func TestConcurrentCreatesSharedDirAllModes(t *testing.T) {
	for _, mode := range []DeltaMode{DeltaOff, DeltaAuto, DeltaAlways} {
		mode := mode
		t.Run(fmt.Sprintf("mode%d", mode), func(t *testing.T) {
			db, caller := testDB(t, mode)
			const goroutines, each = 8, 40
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < each; i++ {
						name := fmt.Sprintf("o-%d-%d", g, i)
						if _, _, err := db.CreateObject(caller.Begin(), types.RootID, name, 1); err != nil {
							t.Errorf("create %s: %v", name, err)
							return
						}
					}
				}(g)
			}
			wg.Wait()
			db.CompactAll()
			attr, err := db.StatDir(caller.Begin(), types.RootID)
			if err != nil {
				t.Fatal(err)
			}
			if attr.Attr.LinkCount != goroutines*each {
				t.Fatalf("links = %d, want %d", attr.Attr.LinkCount, goroutines*each)
			}
		})
	}
}

// contendedMkdirs hammers mkdir into the shared root from many
// goroutines. Cross-shard mkdir transactions hold the parent's
// attribute-row lock across the prepare→commit round trip, so with a
// non-zero RTT the in-place mode aborts and retries — the Figure 4b
// contention. (Single-shard transactions commit atomically server-side
// and cannot conflict; that fast path is the CFS insight the paper cites,
// so contention tests must go through the two-shard path.)
func contendedMkdirs(t *testing.T, db *DB, goroutines, each int) {
	t.Helper()
	caller := rpc.NewCaller(netsim.NewFabric(netsim.Config{RTT: 200 * time.Microsecond}))
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				name := fmt.Sprintf("d-%d-%d", g, i)
				if _, _, err := db.Mkdir(caller.Begin(), types.RootID, name, db.NewID(), types.PermAll, nil); err != nil {
					t.Errorf("mkdir %s: %v", name, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestDeltaModeReducesRetries(t *testing.T) {
	run := func(mode DeltaMode) int64 {
		db, _ := testDB(t, mode)
		contendedMkdirs(t, db, 16, 15)
		return db.Retries()
	}
	inPlace := run(DeltaOff)
	delta := run(DeltaAlways)
	if inPlace == 0 {
		t.Fatal("in-place mode saw no contention; test not exercising conflicts")
	}
	if delta != 0 {
		t.Fatalf("delta mode retried %d times; deltas should be conflict-free", delta)
	}
}

func TestDeltaAutoActivatesUnderContention(t *testing.T) {
	db, caller := testDB(t, DeltaAuto)
	if db.DeltaActive(types.RootID) {
		t.Fatal("delta active before contention")
	}
	const goroutines, each = 16, 15
	contendedMkdirs(t, db, goroutines, each)
	if !db.DeltaActive(types.RootID) {
		t.Fatal("delta mode did not activate under contention")
	}
	// Accuracy preserved across the switch.
	db.CompactAll()
	attr, _ := db.StatDir(caller.Begin(), types.RootID)
	if attr.Attr.LinkCount != goroutines*each {
		t.Fatalf("links = %d, want %d", attr.Attr.LinkCount, goroutines*each)
	}
}

func TestRmdirRacingCreateNeverOrphans(t *testing.T) {
	// A create and an rmdir race on the same directory: either the
	// create wins (rmdir sees ErrNotEmpty or the create fails NotFound
	// after rmdir committed) but never both succeeding.
	for _, mode := range []DeltaMode{DeltaOff, DeltaAlways} {
		mode := mode
		t.Run(fmt.Sprintf("mode%d", mode), func(t *testing.T) {
			db, caller := testDB(t, mode)
			for round := 0; round < 50; round++ {
				id := db.NewID()
				name := fmt.Sprintf("d%d", round)
				if _, _, err := db.Mkdir(caller.Begin(), types.RootID, name, id, types.PermAll, nil); err != nil {
					t.Fatal(err)
				}
				var wg sync.WaitGroup
				var createErr, rmdirErr error
				wg.Add(2)
				go func() {
					defer wg.Done()
					_, _, createErr = db.CreateObject(caller.Begin(), id, "o", 1)
				}()
				go func() {
					defer wg.Done()
					_, rmdirErr = db.Rmdir(caller.Begin(), types.RootID, name, id, nil)
				}()
				wg.Wait()
				createOK := createErr == nil
				rmdirOK := rmdirErr == nil
				if createOK && rmdirOK {
					t.Fatalf("round %d: both create and rmdir succeeded (orphan)", round)
				}
				if !createOK && !rmdirOK {
					t.Fatalf("round %d: both failed: create=%v rmdir=%v", round, createErr, rmdirErr)
				}
			}
		})
	}
}

func TestBulkInsertVisible(t *testing.T) {
	db, caller := testDB(t, DeltaOff)
	dirID := db.NewID()
	entries := []types.Entry{
		{Pid: types.RootID, Name: "bulk", ID: dirID, Kind: types.KindDir, Perm: types.PermAll},
		{Pid: dirID, Name: "o1", ID: db.NewID(), Kind: types.KindObject, Perm: types.PermAll, Attr: types.Attr{Size: 5}},
	}
	if err := db.BulkInsert(entries); err != nil {
		t.Fatal(err)
	}
	if _, err := db.GetAccess(caller.Begin(), types.RootID, "bulk"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.StatObject(caller.Begin(), dirID, "o1"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.StatDir(caller.Begin(), dirID); err != nil {
		t.Fatal(err)
	}
	if db.TotalRows() < 3 {
		t.Fatalf("rows = %d", db.TotalRows())
	}
}

func TestSingleShardFastPathRTTs(t *testing.T) {
	db, caller := testDB(t, DeltaOff)
	op := caller.Begin()
	if _, _, err := db.CreateObject(op, types.RootID, "o", 1); err != nil {
		t.Fatal(err)
	}
	if op.RTTs() != 1 {
		t.Fatalf("create RTTs = %d, want 1 (single-shard fast path)", op.RTTs())
	}
}

func TestShardCrashRecoveryEndToEnd(t *testing.T) {
	db := New(Config{Shards: 4, WALSyncCost: time.Microsecond})
	t.Cleanup(db.Stop)
	if err := db.CreateRoot(types.RootID); err != nil {
		t.Fatal(err)
	}
	caller := rpc.NewCaller(netsim.NewLocalFabric())
	// Transactional workload across shards.
	var ids []types.InodeID
	for i := 0; i < 8; i++ {
		id := db.NewID()
		if _, _, err := db.Mkdir(caller.Begin(), types.RootID, fmt.Sprintf("d%d", i), id, types.PermAll, nil); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
		for j := 0; j < 4; j++ {
			if _, _, err := db.CreateObject(caller.Begin(), id, fmt.Sprintf("o%d", j), 10); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Crash and recover every shard; all metadata must survive.
	rowsBefore := db.TotalRows()
	for i := 0; i < db.Shards(); i++ {
		db.CrashShard(i)
	}
	if db.TotalRows() != 0 {
		t.Fatal("crash kept rows")
	}
	replayed := 0
	for i := 0; i < db.Shards(); i++ {
		replayed += db.RecoverShard(i)
	}
	if replayed == 0 {
		t.Fatal("nothing replayed")
	}
	if db.TotalRows() != rowsBefore {
		t.Fatalf("rows after recovery = %d, want %d", db.TotalRows(), rowsBefore)
	}
	for i, id := range ids {
		e, err := db.GetAccess(caller.Begin(), types.RootID, fmt.Sprintf("d%d", i))
		if err != nil || e.ID != id {
			t.Fatalf("dir d%d after recovery: %+v err=%v", i, e, err)
		}
		st, err := db.StatDir(caller.Begin(), id)
		if err != nil || st.Attr.LinkCount != 4 {
			t.Fatalf("dirstat d%d after recovery: %+v err=%v", i, st.Attr, err)
		}
	}
	// The recovered DB accepts new transactions.
	if _, _, err := db.CreateObject(caller.Begin(), ids[0], "post-crash", 1); err != nil {
		t.Fatal(err)
	}
}

// TestReadDirIsUnpagedReadDirPage: on a directory past the 1,000-entry
// default page, ReadDir is the one unlimited page — the same entries the
// default-size pages add up to, in the same order, in one RPC.
func TestReadDirIsUnpagedReadDirPage(t *testing.T) {
	db, caller := testDB(t, DeltaOff)
	dir := db.NewID()
	if _, _, err := db.Mkdir(caller.Begin(), types.RootID, "big", dir, types.PermAll, nil); err != nil {
		t.Fatal(err)
	}
	const children = 2500
	entries := make([]types.Entry, children)
	for i := range entries {
		entries[i] = types.Entry{Pid: dir, Name: fmt.Sprintf("o%05d", i), ID: db.NewID(), Kind: types.KindObject, Perm: types.PermAll}
	}
	if err := db.BulkInsert(entries); err != nil {
		t.Fatal(err)
	}
	op := caller.Begin()
	all, err := db.ReadDir(op, dir)
	if err != nil || len(all) != children || op.RTTs() != 1 {
		t.Fatalf("ReadDir = %d entries in %d RPCs, err %v", len(all), op.RTTs(), err)
	}
	unpaged, next, err := db.ReadDirPage(caller.Begin(), dir, "", math.MaxInt)
	if err != nil || next != "" || !slices.Equal(unpaged, all) {
		t.Fatalf("unpaged ReadDirPage = %d entries, next %q, err %v; differs from ReadDir", len(unpaged), next, err)
	}
	var paged []types.Entry
	pages := 0
	for after := ""; ; pages++ {
		page, next, err := db.ReadDirPage(caller.Begin(), dir, after, 0) // 0 = the 1,000 default
		if err != nil {
			t.Fatal(err)
		}
		paged = append(paged, page...)
		if after = next; next == "" {
			break
		}
	}
	if pages != 2 || !slices.Equal(paged, all) {
		t.Fatalf("default pages: %d continuations, %d entries; want 2 and ReadDir's %d", pages, len(paged), len(all))
	}
}
