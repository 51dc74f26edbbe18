package tafdb

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"

	"mantle/internal/netsim"
	"mantle/internal/rpc"
	"mantle/internal/types"
)

// TestBulkInsertWALChunks: a shard with a WAL refuses the unlogged load,
// and the logged fallback pays one WAL record and one sync wait per
// walChunk mutations, not per row.
func TestBulkInsertWALChunks(t *testing.T) {
	db := New(Config{Shards: 4, WALSyncCost: time.Millisecond})
	t.Cleanup(db.Stop)
	if err := db.CreateRoot(types.RootID); err != nil {
		t.Fatal(err)
	}
	dir := db.NewID()
	entries := []types.Entry{{Pid: types.RootID, Name: "big", ID: dir, Kind: types.KindDir, Perm: types.PermAll}}
	for i := 0; i < 2000; i++ {
		entries = append(entries, types.Entry{Pid: dir, Name: fmt.Sprintf("o%04d", i), ID: db.NewID(), Kind: types.KindObject, Perm: types.PermAll})
	}
	// Mutations per shard: every row, plus the root's link-count bump.
	muts := make([]int, db.Shards())
	muts[db.ShardOf(types.RootID)] += 2 // access row "big" + bump
	muts[db.ShardOf(dir)] += 2001       // 2,000 objects + big's primary row
	before := make([]int64, db.Shards())
	for i, p := range db.parts {
		before[i] = p.Shard.WAL().Syncs()
	}
	if err := db.BulkInsert(entries); err != nil {
		t.Fatal(err)
	}
	for i, p := range db.parts {
		syncs := p.Shard.WAL().Syncs() - before[i]
		if bound := int64((muts[i] + walChunk - 1) / walChunk); syncs > bound {
			t.Errorf("shard %d: %d syncs for %d mutations, want <= %d", i, syncs, muts[i], bound)
		}
	}
	caller := rpc.NewCaller(netsim.NewLocalFabric())
	for id, want := range map[types.InodeID]int64{types.RootID: 1, dir: 2000} {
		st, err := db.StatDir(caller.Begin(), id)
		if err != nil || st.Attr.LinkCount != want {
			t.Fatalf("dir %d: link count %d err %v, want %d", id, st.Attr.LinkCount, err, want)
		}
	}
	if got := db.TotalRows(); got != 1+2+2000 {
		t.Fatalf("rows = %d, want %d", got, 1+2+2000)
	}
}

// BenchmarkBulkInsert loads a BuildScale-shaped namespace (groups of 64
// directories of 64 objects under one top directory) into a fresh
// 8-shard DB per iteration, reporting the cost per entry. "ordered"
// emits each directory's children in byte order, as the generators do,
// so each name run is already in order; "shuffled" loads the same
// entries in a random order, so every run takes a full sort.
func BenchmarkBulkInsert(b *testing.B) {
	const groups = 25 // ~100K entries
	top := types.InodeID(1 << 20)
	entries := []types.Entry{{Pid: types.RootID, Name: "s", ID: top, Kind: types.KindDir, Perm: types.PermAll}}
	next := top + 1
	names := func(prefix string, n int) []string {
		out := make([]string, n)
		for i := range out {
			out[i] = fmt.Sprintf("%s%d", prefix, i)
		}
		slices.Sort(out)
		return out
	}
	groupNames, dirNames, objNames := names("g", groups), names("d", 64), names("o", 64)
	for _, gname := range groupNames {
		gid := next
		next++
		entries = append(entries, types.Entry{Pid: top, Name: gname, ID: gid, Kind: types.KindDir, Perm: types.PermAll})
		for _, dname := range dirNames {
			did := next
			next++
			entries = append(entries, types.Entry{Pid: gid, Name: dname, ID: did, Kind: types.KindDir, Perm: types.PermAll})
			for _, name := range objNames {
				entries = append(entries, types.Entry{Pid: did, Name: name, ID: next, Kind: types.KindObject, Perm: types.PermAll, Attr: types.Attr{Size: 64 << 10}})
				next++
			}
		}
	}
	shuffled := slices.Clone(entries)
	rand.New(rand.NewSource(1)).Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})
	for _, bc := range []struct {
		name    string
		entries []types.Entry
	}{{"ordered", entries}, {"shuffled", shuffled}} {
		b.Run(bc.name, func(b *testing.B) {
			var elapsed time.Duration
			var alloc uint64
			var ms runtime.MemStats
			for i := 0; i < b.N; i++ {
				db := New(Config{Shards: 8})
				if err := db.CreateRoot(types.RootID); err != nil {
					b.Fatal(err)
				}
				runtime.ReadMemStats(&ms)
				alloc0, t0 := ms.TotalAlloc, time.Now()
				if err := db.BulkInsert(bc.entries); err != nil {
					b.Fatal(err)
				}
				elapsed += time.Since(t0)
				runtime.ReadMemStats(&ms)
				alloc += ms.TotalAlloc - alloc0
				db.Stop()
			}
			n := float64(b.N) * float64(len(bc.entries))
			b.ReportMetric(float64(elapsed.Nanoseconds())/n, "ns/entry")
			b.ReportMetric(float64(alloc)/n, "B/entry")
		})
	}
}
