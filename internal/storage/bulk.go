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

// Rows is a re-iterable row source: every call yields the same rows in
// the same order, until yield returns false. A yielded entry is read,
// never written, and only during the yield, so a source may reuse one
// entry for every row.
type Rows func(yield func(*types.Entry) bool)

// Entries is the Rows of a slice.
func Entries(es []types.Entry) Rows {
	return func(yield func(*types.Entry) bool) {
		for i := range es {
			if !yield(&es[i]) {
				return
			}
		}
	}
}

// bulkRow is one row of a BulkInsert batch, in its shard's share: the
// fields the tree keeps, its name as an index into the batch's name
// table, and its position in the batch. It holds no pointer, so a batch
// of them costs the GC nothing to scan.
type bulkRow struct {
	pid, id     types.InodeID
	size, mtime int64
	name, seq   uint32
	owner       uint32
	perm        types.Perm
	kind        types.EntryKind
	link        bool // a directory's link row
}

// bulkNames is a batch's name table: each distinct name once, as the
// canonical string intern.Intern returns, found through a map local to
// the load. A batch repeats few names over many rows (the 1M rows of a
// BuildScale namespace carry 375), so the shared table's lock and
// counters are paid once per name, not once per row.
type bulkNames struct {
	idx  map[string]uint32
	tab  []string
	rank []uint32 // rank[i]: tab[i]'s position in byte order
}

func (n *bulkNames) index(s string) uint32 {
	if i, ok := n.idx[s]; ok {
		return i
	}
	i := uint32(len(n.tab))
	c := intern.Intern(s)
	n.tab = append(n.tab, c)
	n.idx[c] = i
	return i
}

// ranked sets rank once the table is complete, so rows compare names as
// integers.
func (n *bulkNames) ranked() {
	order := make([]uint32, len(n.tab))
	for i := range order {
		order[i] = uint32(i)
	}
	slices.SortFunc(order, func(a, b uint32) int { return strings.Compare(n.tab[a], n.tab[b]) })
	n.rank = make([]uint32, len(n.tab))
	for r, i := range order {
		n.rank[i] = uint32(r)
	}
}

// BulkInsert is the one bulk loader of every system: it writes rows into
// shards directly — no transactions, locks or RPC charging — to build a
// namespace before it takes traffic. shardOf maps a row key's pid to its
// shard. Every row writes its key (e.Pid, e.Name); with linkName set, a
// directory also writes its link row (e.ID, linkName), a copy of the
// entry under its own ID (TafDB's primary attribute row). A row loads its
// key, ID, kind, permission, size, mtime and owner; its link count is the
// loader's, below.
//
// IDs: every ID the batch names is reserved in ids, and an object row
// without one (ID zero) takes the next of one block allocated from ids
// after that, in row order, so the two never collide.
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
// rows is pulled twice and never held whole. The first pass counts each
// shard's rows and the IDs to allocate. The second interns each name
// through the batch's name table (population is where nearly every name
// enters the process) and fills each shard's share of one array of
// compact rows. Each shard orders and dedupes its own share: a stable
// radix pass groups it by pid, then each pid's run is sorted by name
// rank, in one linear walk when it is in order already, as the workload
// generators emit it (BuildScale's byte-ordered name tables, Build's
// zero-padded f%06d / x%06d). Up to GOMAXPROCS shards load at once; one
// with a WAL attached applies the rows logged, BulkChunk mutations per
// Apply. Quiesce the namespace.
func BulkInsert(shards []*Shard, shardOf func(types.InodeID) int, linkName string, ids *types.IDAlloc, rows Rows) (map[types.InodeID]int64, error) {
	linked := func(e *types.Entry) bool { return linkName != "" && e.IsDir() }
	unnamed := func(e *types.Entry) bool { return e.ID == types.InvalidID && !e.IsDir() }
	// off[si]..off[si+1] is shard si's share of one row array.
	off := make([]int, len(shards)+1)
	n, fresh, maxID := 0, 0, types.InvalidID
	rows(func(e *types.Entry) bool {
		off[shardOf(e.Pid)+1]++
		if linked(e) {
			off[shardOf(e.ID)+1]++
		}
		if unnamed(e) {
			fresh++
		}
		maxID = max(maxID, e.ID)
		n++
		return true
	})
	if n > math.MaxUint32 {
		return nil, fmt.Errorf("bulk insert: %d rows overflow a 32-bit row position", n)
	}
	for si := range shards {
		off[si+1] += off[si]
	}
	ids.ReserveIDs(maxID)
	next := ids.NewIDs(fresh)

	all := make([]bulkRow, off[len(shards)])
	fill := slices.Clone(off[:len(shards)])
	// Index 0 is linkName, an internal row name kept out of the shared
	// intern table (or "", which Intern returns as is).
	names := &bulkNames{idx: map[string]uint32{linkName: 0}, tab: []string{linkName}}
	// slot claims the next row of pid's shard, nil once the share is
	// full: a source that yields more rows than it did on the first pass.
	overflow := false
	slot := func(pid types.InodeID) *bulkRow {
		si := shardOf(pid)
		if fill[si] == off[si+1] {
			overflow = true
			return nil
		}
		fill[si]++
		return &all[fill[si]-1]
	}
	seq := 0
	rows(func(e *types.Entry) bool {
		r := slot(e.Pid)
		if r == nil {
			return false
		}
		*r = bulkRow{
			pid: e.Pid, id: e.ID, size: e.Attr.Size, mtime: packTime(e.Attr.MTime),
			name: names.index(e.Name), seq: uint32(seq), owner: e.Attr.Owner, perm: e.Perm, kind: e.Kind,
		}
		if unnamed(e) {
			r.id = next
			next++
		}
		seq++
		if linked(e) {
			l := slot(e.ID)
			if l == nil {
				return false
			}
			*l = *r
			l.pid, l.name, l.link = e.ID, 0, true
		}
		return true
	})
	if overflow || !slices.Equal(fill, off[1:]) {
		return nil, errors.New("bulk insert: the row source yielded other rows on its second pass")
	}
	names.ranked()

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
			counts[si], errs[si] = s.bulkInsert(all[off[si]:off[si+1]], names, linkName)
		}()
	}
	wg.Wait()
	out := map[types.InodeID]int64{}
	for _, c := range counts {
		maps.Copy(out, c)
	}
	return out, errors.Join(errs...)
}

// byPid orders rows, which are not empty, by pid and keeps each pid's
// rows in batch order: a stable LSD radix sort with one counting scatter
// per pid byte that differs between rows. buf, as long as rows, is the
// scatter target; the result is rows or buf.
func byPid(rows, buf []bulkRow) []bulkRow {
	var diff types.InodeID
	for i := range rows {
		diff |= rows[i].pid ^ rows[0].pid
	}
	for shift := 0; diff>>shift != 0; shift += 8 {
		if byte(diff>>shift) == 0 {
			continue
		}
		var h [256]int
		for i := range rows {
			h[byte(rows[i].pid>>shift)]++
		}
		at := 0
		for d, n := range h {
			h[d], at = at, at+n
		}
		for i := range rows {
			d := byte(rows[i].pid >> shift)
			buf[h[d]] = rows[i]
			h[d]++
		}
		rows, buf = buf, rows
	}
	return rows
}

// bulkInsert orders, dedupes and loads one shard's share of a BulkInsert
// batch, returning the link counts it did not land.
func (s *Shard) bulkInsert(rows []bulkRow, names *bulkNames, linkName string) (map[types.InodeID]int64, error) {
	// The share is in batch order, and the stable pid pass keeps each
	// pid run so. The name sort (one linear walk for a run already in
	// order) breaks ties on batch position, so the last of a run of
	// equal keys is the last write, and that one is kept.
	rows = byPid(rows, make([]bulkRow, len(rows)))
	rank := names.rank
	byName := func(a, b bulkRow) int {
		return cmp.Or(cmp.Compare(rank[a.name], rank[b.name]), cmp.Compare(a.seq, b.seq))
	}
	key := func(r *bulkRow) types.Key { return types.Key{Pid: r.pid, Name: names.tab[r.name]} }
	check := s.Len() > 0     // only a non-empty shard can hold a batch key
	links := map[int]int64{} // by kept position: the row's link count
	counts := map[types.InodeID]int64{}
	var bumps []Mutation
	w := 0
	for lo := 0; lo < len(rows); {
		pid, hi := rows[lo].pid, lo+1
		for hi < len(rows) && rows[hi].pid == pid {
			hi++
		}
		run := rows[lo:hi]
		slices.SortFunc(run, byName)
		link, n := -1, int64(0)
		for i := range run {
			r := &run[i]
			if i+1 < len(run) && run[i+1].name == r.name {
				continue
			}
			var old Row
			held := false
			if check {
				old, held = s.Get(key(r))
			}
			if l := old.Entry.Attr.LinkCount; l != 0 {
				links[w] = l
			}
			if r.link {
				link = w
			} else if !held {
				n++
			}
			rows[w] = *r
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
	rows = rows[:w]
	row := func(i int) (types.Key, packedRow) {
		r := &rows[i]
		p := packedRow{
			id: uint64(r.id), size: r.size, mtime: r.mtime, version: 1,
			owner: r.owner, perm: uint16(r.perm), kind: uint8(r.kind),
		}
		if r.kind == types.KindDir {
			p.link = links[i]
		}
		return key(r), p
	}
	if s.load(len(rows), row) {
		if len(bumps) == 0 {
			return counts, nil
		}
		return counts, s.Apply(bumps)
	}
	// Logged: the rows, then the bumps, BulkChunk mutations per Apply.
	// Apply keeps nothing of a slice after it returns (the DR link reads
	// the durable WAL records), so the chunks are windows of one array.
	muts := make([]Mutation, len(rows), len(rows)+len(bumps))
	for i := range rows {
		k, p := row(i)
		muts[i] = Mutation{Kind: MutPut, Key: k, Entry: p.entry(k)}
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
