package dbtable

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"testing"
	"time"

	"mantle/internal/api"
	"mantle/internal/storage"
	"mantle/internal/types"
)

// allRows lists every row of the store, shard by shard in key order.
func allRows(s *Store) []storage.Row {
	var rows []storage.Row
	for _, p := range s.parts {
		p.Shard.Scan(types.Key{}, types.Key{Pid: ^types.InodeID(0)}, func(r storage.Row) bool {
			rows = append(rows, r)
			return true
		})
	}
	return rows
}

// popRows is the rows src writes, with the IDs the bulk loader gives
// them: every directory's ID reserved, then one allocated per object in
// order.
func popRows(ids *types.IDAlloc, src api.PopSource) []types.Entry {
	var rows []types.Entry
	src.Rows(func(e *types.Entry) bool {
		rows = append(rows, *e)
		ids.ReserveIDs(e.ID)
		return true
	})
	for i := range rows {
		if rows[i].ID == types.InvalidID {
			rows[i].ID = ids.NewID()
		}
	}
	return rows
}

// applyPerRow is the reference Populate is held to: the deduplicated
// stream — the last write of each key — one Apply per row, a row that
// replaces a held one deleting it first (a fresh row, version 1) and a
// directory row keeping the held row's link count. Then every directory
// row, the root's synthetic row included, gains its children that were
// new keys.
func applyPerRow(t *testing.T, s *Store, batch []types.Entry) {
	t.Helper()
	apply := func(m storage.Mutation) {
		if err := s.ShardFor(m.Key.Pid).Shard.Apply([]storage.Mutation{m}); err != nil {
			t.Fatal(err)
		}
	}
	key := func(e types.Entry) types.Key { return types.Key{Pid: e.Pid, Name: e.Name} }
	last := map[types.Key]int{}
	for i, e := range batch {
		last[key(e)] = i
	}
	held := map[types.Key]types.Entry{}
	fresh := map[types.InodeID]int64{}
	for k := range last {
		if e, ok := s.GetDirect(k); ok {
			held[k] = e
		} else {
			fresh[k.Pid]++
		}
	}
	for i, e := range batch {
		k := key(e)
		if last[k] != i {
			continue
		}
		if old, ok := held[k]; ok {
			apply(storage.Mutation{Kind: storage.MutDelete, Key: k})
			if e.IsDir() {
				e.Attr.LinkCount = old.Attr.LinkCount
			}
		}
		apply(storage.Mutation{Kind: storage.MutPut, Key: k, Entry: e})
	}
	for _, r := range allRows(s) {
		if n := fresh[r.Entry.ID]; n > 0 && r.Entry.IsDir() {
			apply(storage.Mutation{Kind: storage.MutDeltaAttr, Key: key(r.Entry), Delta: storage.AttrDelta{LinkCount: n}})
		}
	}
}

// TestPopulateSequencesMatchPerRowApply: after every call of a random
// sequence of Populate calls — re-listed directories, re-populated and
// duplicated object names, parents in and outside each batch, the root
// included — every directory row's link count equals the rows under its
// ID, and every row equals what applyPerRow writes from the same stream
// (the root rows' creation times aside).
func TestPopulateSequencesMatchPerRowApply(t *testing.T) {
	seeds := 12
	if testing.Short() {
		seeds = 4
	}
	for seed := uint64(1); seed <= uint64(seeds); seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			rng := rand.New(rand.NewPCG(seed, 19))
			bulk, ref := New(Config{Shards: 4}), New(Config{Shards: 4})
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
				if err := Populate(bulk, api.SlicePop(dirs, objs)); err != nil {
					t.Fatal(err)
				}
				applyPerRow(t, ref, popRows(&ref.IDAlloc, api.SlicePop(dirs, objs)))
				for k := range in {
					exists[k] = exists[k] || in[k]
				}

				got, want := allRows(bulk), allRows(ref)
				if len(got) != len(want) {
					t.Fatalf("call %d: %d rows, reference %d", call, len(got), len(want))
				}
				for i := range want {
					g, w := got[i], want[i]
					g.Entry.Attr.MTime, w.Entry.Attr.MTime = time.Time{}, time.Time{}
					if g != w {
						t.Fatalf("call %d: row %d is %+v v%d, reference %+v v%d", call, i, g.Entry, g.Version, w.Entry, w.Version)
					}
				}
				for _, r := range got {
					if !r.Entry.IsDir() {
						continue
					}
					var n int64
					bulk.ShardFor(r.Entry.ID).Shard.ScanChildren(r.Entry.ID, func(storage.Row) bool { n++; return true })
					if r.Entry.Attr.LinkCount != n {
						t.Fatalf("call %d: %s (id %d) counts %d links, %d rows under it", call, r.Entry.Name, r.Entry.ID, r.Entry.Attr.LinkCount, n)
					}
				}
			}
		})
	}
}

// BenchmarkBulkInsert populates a BuildScale-shaped namespace (groups of
// 64 directories of 64 objects under one top directory) into a fresh
// 8-shard store per iteration, reporting the cost per entry of Populate:
// the row conversion, the bulk load and the landed link counts.
func BenchmarkBulkInsert(b *testing.B) {
	const groups = 25 // ~100K entries
	top := types.InodeID(1 << 20)
	dirs := []api.PopDir{{Path: "/s", ID: top, Pid: types.RootID}}
	var objs []api.PopObject
	next := top + 1
	for g := 0; g < groups; g++ {
		gid := next
		next++
		gpath := fmt.Sprintf("/s/g%d", g)
		dirs = append(dirs, api.PopDir{Path: gpath, ID: gid, Pid: top})
		for d := 0; d < 64; d++ {
			dirs = append(dirs, api.PopDir{Path: fmt.Sprintf("%s/d%d", gpath, d), ID: next, Pid: gid})
			for k := 0; k < 64; k++ {
				objs = append(objs, api.PopObject{Pid: next, Name: fmt.Sprintf("o%d", k), Size: 64 << 10})
			}
			next++
		}
	}
	var elapsed time.Duration
	var alloc uint64
	var ms runtime.MemStats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := New(Config{Shards: 8})
		runtime.ReadMemStats(&ms)
		alloc0, t0 := ms.TotalAlloc, time.Now()
		if err := Populate(s, api.SlicePop(dirs, objs)); err != nil {
			b.Fatal(err)
		}
		elapsed += time.Since(t0)
		runtime.ReadMemStats(&ms)
		alloc += ms.TotalAlloc - alloc0
	}
	n := float64(b.N) * float64(len(dirs)+len(objs))
	b.ReportMetric(float64(elapsed.Nanoseconds())/n, "ns/entry")
	b.ReportMetric(float64(alloc)/n, "B/entry")
}
