package storage

import (
	"cmp"
	"errors"
	"fmt"
	"maps"
	"math"
	"runtime"
	"slices"
	"strings"
	"sync"

	"mantle/internal/intern"
	"mantle/internal/types"
)

// BulkChunk bounds the mutations per logged Apply when a WAL shard takes
// a bulk load: one WAL record and one sync wait per chunk, not per row.
const BulkChunk = 256

// HashShard is the static pid→shard hash of every sharded MetaTable:
// Fibonacci hashing spreads sequential IDs over n shards.
func HashShard(pid types.InodeID, n int) int {
	return int(uint64(pid) * 0x9E3779B97F4A7C15 % uint64(n))
}

// bulkRef names one row of a BulkInsert batch without copying it: ref is
// the entry's index<<1, plus 1 for a directory's link row, and pid is the
// row key's pid.
type bulkRef struct {
	pid types.InodeID
	ref uint32
}

// BulkInsert is the one bulk loader of every system: it writes entries
// into shards directly — no transactions, locks or RPC charging — to
// build a namespace before it takes traffic. shardOf maps a row key's pid
// to its shard. Every entry writes its row (e.Pid, e.Name); with linkName
// set, a directory entry also writes its link row (e.ID, linkName), a
// copy of the entry under its own ID (TafDB's primary attribute row).
//
// The last write of a key wins, as with Apply. Link counts count the rows
// that land, never the input: per pid, the keys the batch wrote that the
// shard did not already hold, link rows aside. A loaded directory row
// takes the link count of the row it replaces, not its entry's. With
// linkName set, each pid's count lands on its link row, which shares the
// pid and so the shard: folded into the row when the batch writes it, a
// delta on the held row otherwise. Without, BulkInsert returns the
// counts, and the caller lands each on its directory's row.
//
// One counting pass interns the entries' names in place (population is
// where nearly every name enters the process) and sizes every shard's
// slice of one reference array: rows are referenced, never copied, until
// Shard.BulkLoad rebuilds each B-tree bottom-up. Each shard orders and
// dedupes its own references: a stable radix pass groups them by pid,
// then each pid's run is name-sorted, in one linear walk when it is in
// name order already, as the workload generators emit it (BuildScale's
// byte-ordered name tables, Build's zero-padded f%06d / x%06d). Up to
// GOMAXPROCS shards load at once; one with a WAL attached applies the
// rows logged, BulkChunk mutations per Apply. Quiesce the namespace.
func BulkInsert(shards []*Shard, shardOf func(types.InodeID) int, linkName string, entries []types.Entry) (map[types.InodeID]int64, error) {
	if len(entries) > math.MaxUint32>>1 {
		return nil, fmt.Errorf("bulk insert: %d entries overflow a 32-bit row reference", len(entries))
	}
	linked := func(e *types.Entry) bool { return linkName != "" && e.IsDir() }
	// off[si]..off[si+1] is shard si's slice of one reference array.
	off := make([]int, len(shards)+1)
	for i := range entries {
		e := &entries[i]
		e.Name = intern.Intern(e.Name)
		off[shardOf(e.Pid)+1]++
		if linked(e) {
			off[shardOf(e.ID)+1]++
		}
	}
	for si := range shards {
		off[si+1] += off[si]
	}
	refs := make([]bulkRef, off[len(shards)])
	fill := slices.Clone(off[:len(shards)])
	for i := range entries {
		e := &entries[i]
		si := shardOf(e.Pid)
		refs[fill[si]] = bulkRef{pid: e.Pid, ref: uint32(i) << 1}
		fill[si]++
		if linked(e) {
			si = shardOf(e.ID)
			refs[fill[si]] = bulkRef{pid: e.ID, ref: uint32(i)<<1 | 1}
			fill[si]++
		}
	}
	counts := make([]map[types.InodeID]int64, len(shards))
	errs := make([]error, len(shards))
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for si, s := range shards {
		if off[si] == off[si+1] {
			continue
		}
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer func() { <-sem; wg.Done() }()
			counts[si], errs[si] = s.bulkInsert(entries, refs[off[si]:off[si+1]], linkName)
		}()
	}
	wg.Wait()
	out := map[types.InodeID]int64{}
	for _, c := range counts {
		maps.Copy(out, c)
	}
	return out, errors.Join(errs...)
}

// byPid orders refs, which are not empty, by pid and keeps each pid's
// refs in input order: a stable LSD radix sort with one counting scatter
// per pid byte, skipping a byte that puts every ref in one bucket. buf,
// as long as refs, is the scatter target; the result is refs or buf.
func byPid(refs, buf []bulkRef) []bulkRef {
	var hist [8][256]int
	for _, r := range refs {
		for b := range hist {
			hist[b][byte(r.pid>>(8*b))]++
		}
	}
	for b := range hist {
		h := &hist[b]
		if h[byte(refs[0].pid>>(8*b))] == len(refs) {
			continue
		}
		at := 0
		for d, n := range h {
			h[d], at = at, at+n
		}
		for _, r := range refs {
			d := byte(r.pid >> (8 * b))
			buf[h[d]] = r
			h[d]++
		}
		refs, buf = buf, refs
	}
	return refs
}

// bulkInsert orders, dedupes and loads one shard's share of a BulkInsert
// batch, returning the link counts it did not land.
func (s *Shard) bulkInsert(entries []types.Entry, refs []bulkRef, linkName string) (map[types.InodeID]int64, error) {
	name := func(r bulkRef) string {
		if r.ref&1 != 0 {
			return linkName
		}
		return entries[r.ref>>1].Name
	}
	// refs were filled in input order, and the stable pid pass keeps
	// each pid run so. The name sort (one linear walk for a run already
	// in order) breaks ties on input position, so the last of a run of
	// equal keys is the last write, and that one is kept.
	refs = byPid(refs, make([]bulkRef, len(refs)))
	byName := func(a, b bulkRef) int {
		return cmp.Or(strings.Compare(name(a), name(b)), cmp.Compare(a.ref, b.ref))
	}
	check := s.Len() > 0     // only a non-empty shard can hold a batch key
	links := map[int]int64{} // by kept position: the row's link count
	counts := map[types.InodeID]int64{}
	var bumps []Mutation
	w := 0
	for lo := 0; lo < len(refs); {
		pid, hi := refs[lo].pid, lo+1
		for hi < len(refs) && refs[hi].pid == pid {
			hi++
		}
		run := refs[lo:hi]
		slices.SortFunc(run, byName)
		link, n := -1, int64(0)
		for i, r := range run {
			if i+1 < len(run) && name(run[i+1]) == name(r) {
				continue
			}
			var old Row
			held := false
			if check {
				old, held = s.Get(types.Key{Pid: pid, Name: name(r)})
			}
			if l := old.Entry.Attr.LinkCount; l != 0 {
				links[w] = l
			}
			if r.ref&1 != 0 {
				link = w
			} else if !held {
				n++
			}
			refs[w] = r
			w++
		}
		switch {
		case n == 0:
		case link >= 0:
			links[link] += n
		case linkName != "":
			bumps = append(bumps, Mutation{
				Kind: MutDeltaAttr, Key: types.Key{Pid: pid, Name: linkName},
				Delta: AttrDelta{LinkCount: n},
			})
		default:
			counts[pid] = n
		}
		lo = hi
	}
	refs = refs[:w]
	row := func(i int) (types.Key, types.Entry) {
		r := refs[i]
		e := entries[r.ref>>1]
		if r.ref&1 != 0 {
			e.Pid, e.Name = e.ID, linkName
		}
		if e.IsDir() {
			e.Attr.LinkCount = links[i]
		}
		return types.Key{Pid: e.Pid, Name: e.Name}, e
	}
	if s.BulkLoad(len(refs), row) {
		if len(bumps) == 0 {
			return counts, nil
		}
		return counts, s.Apply(bumps)
	}
	// Logged: the rows, then the bumps, BulkChunk mutations per Apply (a
	// disjoint, never reused slice each: the replication hook may keep it).
	muts := make([]Mutation, len(refs), len(refs)+len(bumps))
	for i := range refs {
		k, e := row(i)
		muts[i] = Mutation{Kind: MutPut, Key: k, Entry: e}
	}
	muts = append(muts, bumps...)
	for lo := 0; lo < len(muts); lo += BulkChunk {
		hi := min(lo+BulkChunk, len(muts))
		if err := s.Apply(muts[lo:hi:hi]); err != nil {
			return counts, err
		}
	}
	return counts, nil
}
