package fsck

import (
	"fmt"
	"math/rand/v2"
	"testing"
	"time"

	"mantle/internal/api"
	"mantle/internal/core"
	"mantle/internal/indexnode"
	"mantle/internal/storage"
	"mantle/internal/tafdb"
	"mantle/internal/types"
)

// attrName is TafDB's reserved name for a directory's primary attribute
// row.
const attrName = "\x00attr"

func mustClean(t *testing.T, m *core.Mantle, what string) {
	t.Helper()
	if rep := Check(m); !rep.OK() {
		for _, is := range rep.Issues {
			t.Log(is)
		}
		t.Fatalf("%s: %s", what, rep)
	}
}

// TestBulkLoadLinkCounts: a bulk-loaded link count counts the rows that
// landed — one per distinct key, none for a key the shard already held —
// and a directory re-listed in a later batch keeps the children it had.
func TestBulkLoadLinkCounts(t *testing.T) {
	const a = types.InodeID(100)
	dirA := api.PopDir{Path: "/a", ID: a, Pid: types.RootID}
	obj := func(name string) api.PopObject { return api.PopObject{Pid: a, Name: name, Size: 1} }
	type call struct {
		dirs []api.PopDir
		objs []api.PopObject
	}
	for _, tc := range []struct {
		name  string
		calls []call
		wantA int64
	}{
		{"duplicate key in one batch", []call{{[]api.PopDir{dirA}, []api.PopObject{obj("x"), obj("x"), obj("y")}}}, 2},
		{"existing object re-populated", []call{
			{[]api.PopDir{dirA}, []api.PopObject{obj("x"), obj("y")}},
			{nil, []api.PopObject{obj("x")}},
		}, 2},
		{"existing directory re-populated with a new child", []call{
			{[]api.PopDir{dirA}, []api.PopObject{obj("x"), obj("y")}},
			{[]api.PopDir{dirA}, []api.PopObject{obj("z")}},
		}, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := newMantle(t, tafdb.DeltaOff)
			for _, c := range tc.calls {
				if err := m.Populate(c.dirs, c.objs); err != nil {
					t.Fatal(err)
				}
			}
			mustClean(t, m, "after populate")
			for id, want := range map[types.InodeID]int64{types.RootID: 1, a: tc.wantA} {
				st, err := m.DB().StatDir(op(m), id)
				if err != nil || st.Attr.LinkCount != want {
					t.Fatalf("dir %d: link count %d (err %v), want %d", id, st.Attr.LinkCount, err, want)
				}
			}
		})
	}
}

// TestPopulateSequencesKeepLinkCounts: after every call of a random
// sequence of Populate calls — re-listed directories, re-populated and
// duplicated object names, parents in and outside each batch — fsck
// finds nothing.
func TestPopulateSequencesKeepLinkCounts(t *testing.T) {
	seeds := 12
	if testing.Short() {
		seeds = 4
	}
	for seed := uint64(1); seed <= uint64(seeds); seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			rng := rand.New(rand.NewPCG(seed, 19))
			m := newMantle(t, tafdb.DeltaAuto)
			// Candidate tree: dir k lives under the root or an earlier dir.
			const nd = 16
			parent := make([]int, nd) // -1 is the root
			path := make([]string, nd)
			for k := range parent {
				parent[k] = rng.IntN(k+1) - 1
				base := ""
				if parent[k] >= 0 {
					base = path[parent[k]]
				}
				path[k] = fmt.Sprintf("%s/d%d", base, k)
			}
			id := func(k int) types.InodeID {
				if k < 0 {
					return types.RootID
				}
				return types.InodeID(100 + k)
			}
			exists := make([]bool, nd)
			for call := 0; call < 6; call++ {
				in := make([]bool, nd)
				var dirs []api.PopDir
				for k := range in {
					if rng.IntN(2) == 0 && (parent[k] < 0 || exists[parent[k]] || in[parent[k]]) {
						in[k] = true
						dirs = append(dirs, api.PopDir{Path: path[k], ID: id(k), Pid: id(parent[k])})
					}
				}
				homes := []int{-1}
				for k := range in {
					if in[k] || exists[k] {
						homes = append(homes, k)
					}
				}
				var objs []api.PopObject
				for i := 0; i < 24; i++ {
					objs = append(objs, api.PopObject{
						Pid:  id(homes[rng.IntN(len(homes))]),
						Name: fmt.Sprintf("o%d", rng.IntN(6)),
						Size: rng.Int64N(100),
					})
				}
				if err := m.Populate(dirs, objs); err != nil {
					t.Fatal(err)
				}
				for k := range in {
					exists[k] = exists[k] || in[k]
				}
				mustClean(t, m, fmt.Sprintf("after populate call %d", call))
			}
		})
	}
}

// applyPerRow is the reference BulkInsert is held to: every row the
// batch writes, one logged Apply each, in input order, the last write of
// a key being the one that lands. A loaded row replaces its predecessor
// outright (a fresh row, version 1). A directory's primary row carries
// the link count of the row it replaces plus its fresh children — keys
// under it the shard did not hold before the batch — and a parent whose
// primary row is not in the batch is bumped by its fresh children.
func applyPerRow(t *testing.T, db *tafdb.DB, batch []types.Entry) {
	t.Helper()
	type write struct {
		k types.Key
		e types.Entry
	}
	var writes []write
	last := map[types.Key]int{}
	add := func(e types.Entry) {
		k := types.Key{Pid: e.Pid, Name: e.Name}
		last[k] = len(writes)
		writes = append(writes, write{k, e})
	}
	for _, e := range batch {
		add(e)
		if e.IsDir() {
			p := e
			p.Pid, p.Name = e.ID, attrName
			add(p)
		}
	}
	held := map[types.Key]storage.Row{}
	db.ForEachRow(func(r storage.Row) {
		k := types.Key{Pid: r.Entry.Pid, Name: r.Entry.Name}
		if _, ok := last[k]; ok {
			held[k] = r
		}
	})
	fresh := map[types.InodeID]int64{}
	for k := range last {
		if _, ok := held[k]; !ok && k.Name != attrName {
			fresh[k.Pid]++
		}
	}
	apply := func(m storage.Mutation) {
		if err := db.ApplyToShard(db.ShardOf(m.Key.Pid), []storage.Mutation{m}); err != nil {
			t.Fatal(err)
		}
	}
	for i, w := range writes {
		if last[w.k] != i {
			continue
		}
		if w.k.Name == attrName {
			w.e.Attr.LinkCount = held[w.k].Entry.Attr.LinkCount + fresh[w.k.Pid]
		}
		if _, ok := held[w.k]; ok {
			apply(storage.Mutation{Kind: storage.MutDelete, Key: w.k})
		}
		apply(storage.Mutation{Kind: storage.MutPut, Key: w.k, Entry: w.e})
	}
	for pid, n := range fresh {
		if _, ok := last[types.Key{Pid: pid, Name: attrName}]; !ok {
			apply(storage.Mutation{Kind: storage.MutDeltaAttr,
				Key: types.Key{Pid: pid, Name: attrName}, Delta: storage.AttrDelta{LinkCount: n}})
		}
	}
}

// randomBatches draws a pre-existing namespace and a batch over it: dirs
// and objects on every shard, parents in and outside the batch (the root
// included), re-listed directories and objects, keys repeated within the
// batch, empty directories, all in shuffled order (children may precede
// their parent).
func randomBatches(rng *rand.Rand) (pre, batch []types.Entry) {
	const nd = 24
	pids := make([]types.InodeID, nd)
	inPre, inBatch := make([]bool, nd), make([]bool, nd)
	dir := func(k int) types.Entry {
		return types.Entry{Pid: pids[k], Name: fmt.Sprintf("d%d", k), ID: types.InodeID(100 + k),
			Kind: types.KindDir, Perm: types.PermAll}
	}
	placed := func(pid types.InodeID, set []bool) bool {
		return pid == types.RootID || set[pid-100]
	}
	for k := range pids {
		pids[k] = types.RootID
		if k >= 3 {
			pids[k] = types.InodeID(100 + rng.IntN(k))
		}
		if rng.IntN(2) == 0 && placed(pids[k], inPre) {
			inPre[k] = true
			pre = append(pre, dir(k))
		}
	}
	for k := range pids {
		relist := inPre[k] && rng.IntN(3) == 0
		fresh := !inPre[k] && rng.IntN(2) == 0 && (placed(pids[k], inPre) || placed(pids[k], inBatch))
		if relist || fresh {
			inBatch[k] = true
			batch = append(batch, dir(k))
		}
	}
	objects := func(n int, homes []bool, firstID types.InodeID) []types.Entry {
		parents := []types.InodeID{types.RootID}
		for k, ok := range homes {
			if ok {
				parents = append(parents, types.InodeID(100+k))
			}
		}
		out := make([]types.Entry, n)
		for i := range out {
			out[i] = types.Entry{Pid: parents[rng.IntN(len(parents))], Name: fmt.Sprintf("o%d", rng.IntN(8)),
				ID: firstID + types.InodeID(i), Kind: types.KindObject, Perm: types.PermAll,
				Attr: types.Attr{Size: rng.Int64N(1 << 20)}}
		}
		return out
	}
	pre = append(pre, objects(20, inPre, 1000)...)
	homes := make([]bool, nd)
	for k := range homes {
		homes[k] = inPre[k] || inBatch[k]
	}
	batch = append(batch, objects(60, homes, 2000)...)
	for i := 0; i < 10; i++ {
		dup := batch[rng.IntN(len(batch))]
		if !dup.IsDir() {
			dup.ID, dup.Attr.Size = types.InodeID(3000+i), rng.Int64N(1<<20)
		}
		batch = append(batch, dup)
	}
	rng.Shuffle(len(batch), func(i, j int) { batch[i], batch[j] = batch[j], batch[i] })
	return pre, batch
}

// TestBulkInsertMatchesLoggedApply is the bulk loader's differential
// test: seeded random batches go through BulkInsert (the unlogged B-tree
// rebuild, and the chunked logged fallback of a shard with a WAL) and
// through applyPerRow, and every row must match — every key Get or a
// children scan can reach, and every primary attribute row with its link
// count and version (the fallback's overwrites advance the version, so
// its versions are not compared). fsck must pass on all three.
func TestBulkInsertMatchesLoggedApply(t *testing.T) {
	seeds := 40
	if testing.Short() {
		seeds = 10
	}
	var sawObj, sawDir [4]bool
	for seed := uint64(1); seed <= uint64(seeds); seed++ {
		rng := rand.New(rand.NewPCG(seed, 25))
		pre, batch := randomBatches(rng)
		newDB := func(walSync time.Duration) *tafdb.DB {
			db := tafdb.New(tafdb.Config{Shards: 4, WALSyncCost: walSync})
			t.Cleanup(db.Stop)
			root := types.Entry{Pid: types.RootID, Name: attrName, ID: types.RootID, Kind: types.KindDir, Perm: types.PermAll}
			if err := db.ApplyToShard(db.ShardOf(types.RootID), []storage.Mutation{{
				Kind: storage.MutPut, Key: types.Key{Pid: types.RootID, Name: attrName}, Entry: root,
			}}); err != nil {
				t.Fatal(err)
			}
			applyPerRow(t, db, pre)
			return db
		}
		bulk, logged, ref := newDB(0), newDB(time.Microsecond), newDB(0)
		for _, db := range []*tafdb.DB{bulk, logged} {
			if err := db.BulkInsert(append([]types.Entry(nil), batch...)); err != nil {
				t.Fatal(err)
			}
		}
		applyPerRow(t, ref, batch)
		for _, e := range batch {
			if e.IsDir() {
				sawDir[ref.ShardOf(e.ID)] = true
			} else {
				sawObj[ref.ShardOf(e.Pid)] = true
			}
		}

		want := dumpRows(ref)
		for _, side := range []struct {
			name     string
			db       *tafdb.DB
			versions bool
		}{{"bulk", bulk, true}, {"logged", logged, false}} {
			got := dumpRows(side.db)
			if len(got) != len(want) {
				t.Fatalf("seed %d %s: %d rows, reference %d", seed, side.name, len(got), len(want))
			}
			for i := range want {
				g, w := got[i], want[i]
				if !side.versions {
					g.Version, w.Version = 0, 0
				}
				if g != w {
					t.Fatalf("seed %d %s: row %d is %+v v%d, reference %+v v%d",
						seed, side.name, i, g.Entry, g.Version, w.Entry, w.Version)
				}
			}
		}
		for _, db := range []*tafdb.DB{bulk, logged, ref} {
			m, err := core.NewWithDB(core.Config{Index: indexnode.Config{Voters: 1}}, db)
			if err != nil {
				t.Fatal(err)
			}
			m.RebuildIndex()
			mustClean(t, m, fmt.Sprintf("seed %d", seed))
			m.Stop()
		}
	}
	for si := range sawObj {
		if !sawObj[si] || !sawDir[si] {
			t.Fatalf("shard %d never received a batch object (%v) or directory (%v)", si, sawObj[si], sawDir[si])
		}
	}
}

func dumpRows(db *tafdb.DB) []storage.Row {
	var rows []storage.Row
	db.ForEachRow(func(r storage.Row) { rows = append(rows, r) })
	return rows
}
