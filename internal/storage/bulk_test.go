package storage

import (
	"cmp"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"mantle/internal/types"
)

// bulkPids have a 0xFF byte, bytes that vary above bit 32, or both, so
// every radix pass and its bucket boundaries are exercised. Byte 6 is 0
// in all of them: loaded into one shard they take seven scatters, an
// odd number, so a pass that reverses equal pids cannot undo itself.
var bulkPids = []types.InodeID{
	2, 0xFF, 0x1FF, 0xFF00, 0xFFFF, 0x1_0000_00FF, 0xFF_0000_0000,
	1<<40 | 0xFF00, 0xFF00_FFFF_FFFF_FF00,
}

// bulkOrderInput is a BulkInsert batch with duplicate keys (each
// duplicate written after the one it replaces, in slice order) and the
// rows the shards hold before it: directory rows whose link counts the
// load must keep, a held link row the load bumps, and rows it overwrites.
func bulkOrderInput(linkName string) (entries []types.Entry, held []Mutation) {
	rng := rand.New(rand.NewSource(1))
	dir := func(pid, id types.InodeID, name string, perm types.Perm) types.Entry {
		return types.Entry{Pid: pid, Name: name, ID: id, Kind: types.KindDir, Perm: perm}
	}
	next := types.InodeID(1 << 50)
	// Every pid's directory is in the batch but the last, whose link row
	// the shards already hold (as the root's is).
	for i, pid := range bulkPids[:len(bulkPids)-1] {
		parent := types.InodeID(1)
		if i > 0 && i%3 == 0 {
			parent = bulkPids[i-1]
		}
		entries = append(entries, dir(parent, pid, fmt.Sprintf("d%d", i), types.PermAll))
	}
	for _, pid := range bulkPids {
		for k := 0; k < 40; k++ {
			name := fmt.Sprintf("o%d", k)
			if k%4 == 3 {
				name = fmt.Sprintf("x%03d", rng.Intn(1000))
			}
			entries = append(entries, types.Entry{Pid: pid, Name: name, ID: next, Kind: types.KindObject, Perm: types.PermAll, Attr: types.Attr{Size: int64(k)}})
			next++
		}
	}
	// Rewrites of earlier keys, some twice: an object's size and ID
	// change, a directory's permission (its ID, and so its link row's
	// pid, stays).
	for n := 0; n < 60; n++ {
		e := entries[rng.Intn(len(entries))]
		if e.IsDir() {
			e.Perm ^= types.PermAll
		} else {
			e.ID, e.Attr.Size = next, 1000+int64(n)
			next++
		}
		entries = append(entries, e)
	}
	put := func(e types.Entry) {
		held = append(held, Mutation{Kind: MutPut, Key: types.Key{Pid: e.Pid, Name: e.Name}, Entry: e})
	}
	last := bulkPids[len(bulkPids)-1]
	root := dir(1, 1, linkName, types.PermAll)
	root.Attr.LinkCount = 3
	if linkName != "" {
		put(root)
		lastLink := dir(last, last, linkName, types.PermAll)
		lastLink.Attr.LinkCount = 7
		put(lastLink)
	}
	replaced := entries[3] // a directory row the batch rewrites
	replaced.Attr.LinkCount = 5
	put(replaced)
	for _, e := range entries[len(bulkPids) : len(bulkPids)+50 : len(bulkPids)+50] {
		if e.Attr.Size%7 == 0 { // objects the batch overwrites
			e.Attr.Size = -1
			put(e)
		}
	}
	put(types.Entry{Pid: 0xFF, Name: "untouched", ID: 99, Kind: types.KindObject}) // a row the batch leaves alone
	return entries, held
}

// bulkModel is what a BulkInsert of entries, in that order, must leave
// in shards holding rows: the last write of each key wins, a directory
// row keeps the link count of the row it replaces, and each pid's count
// of new keys (link rows aside) lands on its link row or is returned.
func bulkModel(rows map[types.Key]Row, linkName string, logged bool, entries []types.Entry) (map[types.Key]Row, map[types.InodeID]int64) {
	want := make(map[types.Key]Row, len(rows))
	for k, r := range rows {
		want[k] = r
	}
	last := map[types.Key]types.Entry{}
	for _, e := range entries {
		last[types.Key{Pid: e.Pid, Name: e.Name}] = e
		if linkName != "" && e.IsDir() {
			l := e
			l.Pid, l.Name = e.ID, linkName
			last[types.Key{Pid: l.Pid, Name: l.Name}] = l
		}
	}
	fresh := map[types.InodeID]int64{}
	for k, e := range last {
		old, ok := rows[k]
		if !ok && k.Name != linkName {
			fresh[k.Pid]++
		}
		if e.IsDir() {
			e.Attr.LinkCount = old.Entry.Attr.LinkCount
		}
		v := uint64(1)
		if logged && ok {
			v = old.Version + 1
		}
		want[k] = Row{Entry: e, Version: v}
	}
	if linkName == "" {
		return want, fresh
	}
	for pid, n := range fresh {
		k := types.Key{Pid: pid, Name: linkName}
		r := want[k]
		r.Entry.Attr.LinkCount += n
		if _, wrote := last[k]; !wrote {
			r.Version++
		}
		want[k] = r
	}
	return want, map[types.InodeID]int64{}
}

// keepWriteOrder rearranges order, a permutation of entries' indices, so
// each key's writes keep their relative order: the same last write wins
// whatever order the keys arrive in.
func keepWriteOrder(entries []types.Entry, order []int) []types.Entry {
	byKey := map[types.Key][]int{}
	for _, i := range order {
		k := types.Key{Pid: entries[i].Pid, Name: entries[i].Name}
		byKey[k] = append(byKey[k], i)
	}
	for _, is := range byKey {
		slices.Sort(is)
	}
	out := make([]types.Entry, 0, len(order))
	for _, i := range order {
		k := types.Key{Pid: entries[i].Pid, Name: entries[i].Name}
		out = append(out, entries[byKey[k][0]])
		byKey[k] = byKey[k][1:]
	}
	return out
}

// TestBulkInsertOrderIndependent loads one multiset of writes in key
// order, shuffled and reversed, into one shard and into three, and every
// load must leave the rows, versions and link counts the model does and
// return its counts.
func TestBulkInsertOrderIndependent(t *testing.T) {
	for _, tc := range []struct {
		name, linkName string
		logged         bool
	}{
		{"link-rows", "\x00attr", false},
		{"counts", "", false},
		{"logged", "\x00attr", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			entries, held := bulkOrderInput(tc.linkName)
			byKey := make([]int, len(entries))
			for i := range byKey {
				byKey[i] = i
			}
			slices.SortStableFunc(byKey, func(a, b int) int {
				return cmp.Or(cmp.Compare(entries[a].Pid, entries[b].Pid), strings.Compare(entries[a].Name, entries[b].Name))
			})
			shuffled := slices.Clone(byKey)
			rand.New(rand.NewSource(2)).Shuffle(len(shuffled), func(i, j int) {
				shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
			})
			reversed := slices.Clone(byKey)
			slices.Reverse(reversed)
			var first map[types.Key]Row
			for _, load := range []struct {
				name   string
				idx    []int
				shards int
			}{
				{"key-order", byKey, 1}, {"shuffled", shuffled, 1}, {"reversed", reversed, 1},
				{"key-order/3-shards", byKey, 3}, {"shuffled/3-shards", shuffled, 3}, {"reversed/3-shards", reversed, 3},
			} {
				shards := make([]*Shard, load.shards)
				for i := range shards {
					shards[i] = NewShard(fmt.Sprint(i))
					if tc.logged {
						shards[i].AttachWAL(NewWAL(0))
					}
				}
				shardOf := func(pid types.InodeID) int { return HashShard(pid, len(shards)) }
				for _, m := range held {
					if err := shards[shardOf(m.Key.Pid)].Apply([]Mutation{m}); err != nil {
						t.Fatal(err)
					}
				}
				in := keepWriteOrder(entries, load.idx)
				want, wantCounts := bulkModel(shardRows(t, shards, shardOf), tc.linkName, tc.logged, in)
				counts, err := BulkInsert(shards, shardOf, tc.linkName, new(types.IDAlloc), Entries(in))
				if err != nil {
					t.Fatalf("%s: %v", load.name, err)
				}
				if !reflect.DeepEqual(counts, wantCounts) {
					t.Errorf("%s: counts = %v, want %v", load.name, counts, wantCounts)
				}
				loaded := shardRows(t, shards, shardOf)
				for k, w := range want {
					if r, ok := loaded[k]; !ok || !reflect.DeepEqual(r, w) {
						t.Errorf("%s: row %v = %+v (present %v), want %+v", load.name, k, r, ok, w)
					}
				}
				if len(loaded) != len(want) {
					t.Errorf("%s: %d rows, want %d", load.name, len(loaded), len(want))
				}
				if first == nil {
					first = loaded
				} else if !reflect.DeepEqual(loaded, first) {
					t.Errorf("%s: rows differ from the first load", load.name)
				}
			}
		})
	}
}

// shardRows returns the shards' rows by key, failing t for a row held off
// its shard, out of key order in its shard's scan, or that a point lookup
// does not find (a tree built from misordered keys).
func shardRows(t *testing.T, shards []*Shard, shardOf func(types.InodeID) int) map[types.Key]Row {
	out := map[types.Key]Row{}
	for si, s := range shards {
		rows, _ := s.SnapshotRows()
		for i, r := range rows {
			k := types.Key{Pid: r.Entry.Pid, Name: r.Entry.Name}
			if shardOf(k.Pid) != si {
				t.Errorf("%v held on shard %d", k, si)
			}
			if i > 0 && !(types.Key{Pid: rows[i-1].Entry.Pid, Name: rows[i-1].Entry.Name}).Less(k) {
				t.Errorf("shard %d scans %v out of key order", si, k)
			}
			if g, ok := s.Get(k); !ok || !reflect.DeepEqual(g, r) {
				t.Errorf("shard %d: Get(%v) = %+v (found %v), scan has %+v", si, k, g, ok, r)
			}
			out[k] = r
		}
	}
	return out
}

// TestBulkInsertUnstableSource: a row source that yields other rows on
// its second pull fails the load, which then leaves the shards as they
// were, rather than indexing past a shard's share.
func TestBulkInsertUnstableSource(t *testing.T) {
	for _, extra := range []int{1, -1} {
		pulls := 0
		rows := func(yield func(*types.Entry) bool) {
			pulls++
			n := 10
			if pulls == 2 {
				n += extra
			}
			for i := 0; i < n; i++ {
				e := types.Entry{Pid: 7, Name: fmt.Sprintf("o%d", i), ID: types.InodeID(100 + i), Kind: types.KindObject}
				if !yield(&e) {
					return
				}
			}
		}
		shards := []*Shard{NewShard("0"), NewShard("1")}
		shardOf := func(pid types.InodeID) int { return HashShard(pid, len(shards)) }
		if _, err := BulkInsert(shards, shardOf, "", new(types.IDAlloc), rows); err == nil {
			t.Fatalf("%+d rows on the second pull: no error", extra)
		}
		for i, s := range shards {
			if s.Len() != 0 {
				t.Fatalf("%+d rows on the second pull: shard %d holds %d rows", extra, i, s.Len())
			}
		}
	}
}
