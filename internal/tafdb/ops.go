package tafdb

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"
	"sync"
	"time"

	"mantle/internal/intern"
	"mantle/internal/rpc"
	"mantle/internal/storage"
	"mantle/internal/txn"
	"mantle/internal/types"
)

// CreateRoot initialises the primary attribute row for a namespace root
// (or any pre-allocated directory ID) without transactions. Used during
// bootstrap and bulk population.
func (db *DB) CreateRoot(root types.InodeID) error {
	p := db.shardFor(root)
	return p.Shard.Apply([]storage.Mutation{{
		Kind: storage.MutPut,
		Key:  attrKey(root),
		Entry: types.Entry{
			Pid: root, Name: attrName, ID: root,
			Kind: types.KindDir, Perm: types.PermAll,
			Attr: types.Attr{MTime: time.Now()},
		},
	}})
}

// read runs fn against pid's home shard as one RPC: the routing retry, the
// shard's read-heat accounting and the call charge every read shares. fn
// may run twice when a migration flips the routing mid-read, so it
// overwrites (never accumulates into) what it returns through.
func (db *DB) read(op *rpc.Op, pid types.InodeID, fn func(s *storage.Shard) error) error {
	return db.readRetry(pid, func(si int) error {
		p := db.parts[si]
		db.noteRead(si, pid)
		return op.Call(p.Node, db.cfg.OpCost, func() error { return fn(p.Shard) })
	})
}

// GetAccess reads the access row (pid, name): the id/kind/permission of
// the named child. One RPC to the owning shard.
func (db *DB) GetAccess(op *rpc.Op, pid types.InodeID, name string) (types.Entry, error) {
	var out types.Entry
	err := db.read(op, pid, func(s *storage.Shard) error {
		row, ok := s.Get(types.Key{Pid: pid, Name: name})
		if !ok {
			return fmt.Errorf("get %d/%s: %w", pid, name, types.ErrNotFound)
		}
		out = row.Entry
		return nil
	})
	return out, err
}

// StatObject returns the full metadata of object (pid, name).
func (db *DB) StatObject(op *rpc.Op, pid types.InodeID, name string) (types.Entry, error) {
	e, err := db.GetAccess(op, pid, name)
	if err != nil {
		return types.Entry{}, err
	}
	if e.IsDir() {
		return types.Entry{}, fmt.Errorf("objstat %d/%s: %w", pid, name, types.ErrIsDir)
	}
	return e, nil
}

// StatDir returns directory dir's attributes, merging any live delta
// records into the primary attribute record — the read-side cost of the
// delta design (§5.2.1). One RPC (primary row and deltas colocate).
func (db *DB) StatDir(op *rpc.Op, dir types.InodeID) (types.Entry, error) {
	var out types.Entry
	err := db.read(op, dir, func(s *storage.Shard) error {
		row, ok := s.Get(attrKey(dir))
		if !ok {
			return fmt.Errorf("dirstat %d: %w", dir, types.ErrNotFound)
		}
		out = row.Entry
		s.Scan(
			types.Key{Pid: dir, Name: deltaPrefix},
			types.Key{Pid: dir, Name: childrenLo},
			func(r storage.Row) bool {
				foldDelta(&out, r.Entry)
				return true
			})
		return nil
	})
	return out, err
}

// ReadDir lists all of directory dir's children in name order: one
// unlimited page.
func (db *DB) ReadDir(op *rpc.Op, dir types.InodeID) ([]types.Entry, error) {
	out, _, err := db.ReadDirPage(op, dir, "", math.MaxInt)
	return out, err
}

// CreateObject inserts object name under parent, updating the parent's
// attribute metadata. Access row and parent attributes share the
// parent's shard, so this is a single-shard transaction; contention on
// the parent's primary attribute row follows the configured delta mode.
// Returns the new entry and the retry count consumed.
func (db *DB) CreateObject(op *rpc.Op, parent types.InodeID, name string, size int64) (types.Entry, int, error) {
	id := db.NewID()
	entry := types.Entry{
		Pid: parent, Name: name, ID: id, Kind: types.KindObject,
		Perm: types.PermAll,
		Attr: types.Attr{Size: size, MTime: time.Now()},
	}
	retries, err := db.runTxn(op, parent, nil, func(int) ([]txn.Piece, error) {
		// Resolve routing inside the build so a retry after a directory
		// migration targets the new home shard.
		p := db.shardFor(parent)
		mut, guard := db.parentAttrMutation(parent, storage.AttrDelta{LinkCount: 1, Size: size}, time.Now())
		return []txn.Piece{{
			P:      p,
			Guards: []storage.Guard{guard},
			Muts: []storage.Mutation{
				{Kind: storage.MutPut, Key: types.Key{Pid: parent, Name: name}, Entry: entry, IfAbsent: true},
				mut,
			},
		}}, nil
	})
	if err != nil {
		return types.Entry{}, retries, err
	}
	return entry, retries, nil
}

// DeleteObject removes object name from parent.
func (db *DB) DeleteObject(op *rpc.Op, parent types.InodeID, name string) (int, error) {
	return db.runTxn(op, parent, nil, func(int) ([]txn.Piece, error) {
		p := db.shardFor(parent)
		mut, guard := db.parentAttrMutation(parent, storage.AttrDelta{LinkCount: -1}, time.Now())
		return []txn.Piece{{
			P:      p,
			Guards: []storage.Guard{guard},
			Muts: []storage.Mutation{
				{Kind: storage.MutDelete, Key: types.Key{Pid: parent, Name: name},
					MustExist: true, WantKind: types.KindObject},
				mut,
			},
		}}, nil
	})
}

// Mkdir creates directory name under parent with a pre-allocated id (the
// caller — Mantle's proxy — allocates it so IndexNode can be updated with
// the same id). The transaction spans the parent's shard (access row +
// parent attribute update) and the new directory's shard (its primary
// attribute row), mirroring Figure 2's node3/node4 example. then (may be
// nil) commits alongside the transaction; see txn.Runner. Rmdir,
// RenameDir and SetDirPerm take it the same way.
func (db *DB) Mkdir(op *rpc.Op, parent types.InodeID, name string, id types.InodeID, perm types.Perm, then func()) (types.Entry, int, error) {
	access := types.Entry{
		Pid: parent, Name: name, ID: id, Kind: types.KindDir, Perm: perm,
		Attr: types.Attr{MTime: time.Now()},
	}
	primary := types.Entry{
		Pid: id, Name: attrName, ID: id, Kind: types.KindDir, Perm: perm,
		Attr: types.Attr{MTime: time.Now()},
	}
	retries, err := db.runTxn(op, parent, then, func(int) ([]txn.Piece, error) {
		pParent := db.shardFor(parent)
		pDir := db.shardFor(id)
		mut, guard := db.parentAttrMutation(parent, storage.AttrDelta{LinkCount: 1}, time.Now())
		return []txn.Piece{{
			P:      pParent,
			Guards: []storage.Guard{guard},
			Muts: []storage.Mutation{
				{Kind: storage.MutPut, Key: types.Key{Pid: parent, Name: name}, Entry: access, IfAbsent: true},
				mut,
			},
		}, {
			P: pDir,
			Muts: []storage.Mutation{
				{Kind: storage.MutPut, Key: attrKey(id), Entry: primary, IfAbsent: true},
			},
		}}, nil
	})
	if err != nil {
		return types.Entry{}, retries, err
	}
	return access, retries, nil
}

// Rmdir removes empty directory (parent, name, dir). The transaction
// deletes the access row and decrements the parent's attributes on the
// parent's shard, and deletes the primary attribute row on the
// directory's shard under a range-emptiness guard: because every
// child-creating transaction holds a shared lock on the directory's
// primary attribute row, the exclusive delete serialises against them
// and the emptiness check cannot miss an in-flight create.
func (db *DB) Rmdir(op *rpc.Op, parent types.InodeID, name string, dir types.InodeID, then func()) (int, error) {
	// Fold any outstanding deltas first so the primary row is current.
	db.compactDir(dir)
	return db.runTxn(op, parent, then, func(int) ([]txn.Piece, error) {
		pParent := db.shardFor(parent)
		pDir := db.shardFor(dir)
		mut, guard := db.parentAttrMutation(parent, storage.AttrDelta{LinkCount: -1}, time.Now())
		return []txn.Piece{{
			P:      pParent,
			Guards: []storage.Guard{guard},
			Muts: []storage.Mutation{
				{Kind: storage.MutDelete, Key: types.Key{Pid: parent, Name: name}, MustExist: true},
				mut,
			},
		}, {
			P: pDir,
			Guards: []storage.Guard{{
				Kind:  storage.GuardRangeEmpty,
				Key:   types.Key{Pid: dir, Name: childrenLo},
				KeyHi: types.Key{Pid: dir + 1, Name: ""},
			}},
			Muts: []storage.Mutation{
				{Kind: storage.MutDelete, Key: attrKey(dir), MustExist: true},
			},
		}}, nil
	})
}

// RenameDir moves directory dir from (srcParent, srcName) to (dstParent,
// dstName). The directory's own attribute row is untouched; only the two
// parents' shards participate. Loop detection is NOT performed here —
// Mantle offloads it to IndexNode (§5.2.2); baseline systems implement
// their own strategies.
func (db *DB) RenameDir(op *rpc.Op, srcParent types.InodeID, srcName string,
	dstParent types.InodeID, dstName string, dir types.InodeID, perm types.Perm, then func()) (int, error) {

	access := types.Entry{
		Pid: dstParent, Name: dstName, ID: dir, Kind: types.KindDir, Perm: perm,
		Attr: types.Attr{MTime: time.Now()},
	}
	contended := srcParent
	if dstParent != srcParent {
		contended = dstParent // rename storms typically contend on the shared destination
	}
	return db.runTxn(op, contended, then, func(int) ([]txn.Piece, error) {
		pSrc := db.shardFor(srcParent)
		pDst := db.shardFor(dstParent)
		now := time.Now()
		srcMut, srcGuard := db.parentAttrMutation(srcParent, storage.AttrDelta{LinkCount: -1}, now)
		srcPiece := txn.Piece{
			P:      pSrc,
			Guards: []storage.Guard{srcGuard},
			Muts: []storage.Mutation{
				{Kind: storage.MutDelete, Key: types.Key{Pid: srcParent, Name: srcName}, MustExist: true},
				srcMut,
			},
		}
		if srcParent == dstParent {
			// Same-directory rename: no attribute change, one shard.
			srcPiece.Muts = []storage.Mutation{
				{Kind: storage.MutDelete, Key: types.Key{Pid: srcParent, Name: srcName}, MustExist: true},
				{Kind: storage.MutPut, Key: types.Key{Pid: dstParent, Name: dstName}, Entry: access, IfAbsent: true},
			}
			return []txn.Piece{srcPiece}, nil
		}
		dstMut, dstGuard := db.parentAttrMutation(dstParent, storage.AttrDelta{LinkCount: 1}, now)
		return []txn.Piece{srcPiece, {
			P:      pDst,
			Guards: []storage.Guard{dstGuard},
			Muts: []storage.Mutation{
				{Kind: storage.MutPut, Key: types.Key{Pid: dstParent, Name: dstName}, Entry: access, IfAbsent: true},
				dstMut,
			},
		}}, nil
	})
}

// SetDirPerm changes directory dir's permission transactionally in both
// places TafDB records it: the access row under the parent (what
// lookups and fsck read) and the primary attribute row (what a restored
// or replicated site rebuilds its index from). The two rows may live on
// different shards, so this is a 2PC when they do. The root directory
// has no access row; its attribute row alone is updated.
func (db *DB) SetDirPerm(op *rpc.Op, parent types.InodeID, name string, dir types.InodeID, perm types.Perm, then func()) (int, error) {
	return db.runTxn(op, dir, then, func(int) ([]txn.Piece, error) {
		pDir := db.shardFor(dir)
		row, ok := pDir.Shard.Get(attrKey(dir))
		if !ok {
			return nil, fmt.Errorf("setperm %d: %w", dir, types.ErrNotFound)
		}
		attrEntry := row.Entry
		attrEntry.Perm = perm
		attrEntry.Attr.MTime = time.Now()
		attrPiece := txn.Piece{
			P: pDir,
			Guards: []storage.Guard{{
				Key: attrKey(dir), Kind: storage.GuardVersion, Version: row.Version,
			}},
			Muts: []storage.Mutation{
				{Kind: storage.MutPut, Key: attrKey(dir), Entry: attrEntry},
			},
		}
		if name == "" || parent == 0 {
			return []txn.Piece{attrPiece}, nil // root: attribute row only
		}
		pAcc := db.shardFor(parent)
		accKey := types.Key{Pid: parent, Name: name}
		accRow, ok := pAcc.Shard.Get(accKey)
		if !ok {
			return nil, fmt.Errorf("setperm %d/%s: %w", parent, name, types.ErrNotFound)
		}
		if accRow.Entry.Kind != types.KindDir {
			return nil, fmt.Errorf("setperm %d/%s: %w", parent, name, types.ErrNotDir)
		}
		accEntry := accRow.Entry
		accEntry.Perm = perm
		return []txn.Piece{{
			P: pAcc,
			Guards: []storage.Guard{{
				Key: accKey, Kind: storage.GuardVersion, Version: accRow.Version,
			}},
			Muts: []storage.Mutation{
				{Kind: storage.MutPut, Key: accKey, Entry: accEntry},
			},
		}, attrPiece}, nil
	})
}

// rowRef names one row of a BulkInsert batch without copying it: ref is
// the entry's index<<1, plus 1 for a directory's primary attribute row,
// and pid is the row key's pid.
type rowRef struct {
	pid types.InodeID
	ref uint32
}

// walChunk bounds the mutations per logged Apply when a WAL shard takes a
// bulk load: one WAL record and one sync wait per chunk, not per row.
const walChunk = 256

// BulkInsert loads entries directly into the shards without transactions
// or RPC charging — the mdtest-style population step used to build
// billion-scale (scaled-down) namespaces before experiments.
//
// One counting pass interns the entries' names in place (population is
// where nearly every name enters the process, so popular components
// collapse to one allocation namespace-wide) and sizes every shard's
// slice of one rowRef array: rows are referenced, never copied, until
// Shard.BulkLoad rebuilds each B-tree bottom-up at ~97% node occupancy.
// Each shard sorts and dedupes its own references (the last write of a
// key wins, as with Apply); up to GOMAXPROCS shards load at once.
//
// A directory's link count gains the distinct keys under it that its
// shard did not already hold: on top of the primary row the batch
// replaces, or as a bump when the primary row is outside the batch (the
// bootstrap root, an existing directory). A primary row and its children
// share the directory's pid, so each count is local to one shard.
//
// Shards with a WAL attached refuse the unlogged fast path (a crash would
// silently lose the rows) and apply the same rows logged, walChunk per
// Apply. Run it on a quiesced namespace.
func (db *DB) BulkInsert(entries []types.Entry) error {
	if len(entries) > math.MaxUint32>>1 {
		return fmt.Errorf("bulk insert: %d entries overflow a 32-bit row reference", len(entries))
	}
	rt := db.routing.Load()
	// off[si]..off[si+1] is shard si's slice of one reference array.
	off := make([]int, len(db.parts)+1)
	for i := range entries {
		e := &entries[i]
		e.Name = intern.Intern(e.Name)
		off[rt.shardIdx(db, e.Pid)+1]++
		if e.IsDir() {
			off[rt.shardIdx(db, e.ID)+1]++
		}
	}
	for si := range db.parts {
		off[si+1] += off[si]
	}
	refs := make([]rowRef, off[len(db.parts)])
	fill := slices.Clone(off[:len(db.parts)])
	for i := range entries {
		e := &entries[i]
		si := rt.shardIdx(db, e.Pid)
		refs[fill[si]] = rowRef{pid: e.Pid, ref: uint32(i) << 1}
		fill[si]++
		if e.IsDir() {
			si = rt.shardIdx(db, e.ID)
			refs[fill[si]] = rowRef{pid: e.ID, ref: uint32(i)<<1 | 1}
			fill[si]++
		}
	}
	errs := make([]error, len(db.parts))
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for si, p := range db.parts {
		if off[si] == off[si+1] {
			continue
		}
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer func() { <-sem; wg.Done() }()
			errs[si] = loadShard(p.Shard, entries, refs[off[si]:off[si+1]])
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// loadShard sorts, dedupes and loads one shard's share of a BulkInsert
// batch, then bumps the link counts of its out-of-batch parents.
func loadShard(s *storage.Shard, entries []types.Entry, refs []rowRef) error {
	name := func(r rowRef) string {
		if r.ref&1 != 0 {
			return attrName
		}
		return entries[r.ref>>1].Name
	}
	slices.SortFunc(refs, func(a, b rowRef) int {
		return cmp.Or(cmp.Compare(a.pid, b.pid), cmp.Compare(a.ref, b.ref))
	})
	// Name-sort each pid run, ties on input position, so the last of a
	// run of equal keys is the last write, and keep that one. A primary
	// row heads its run ("\x00attr" sorts below every name): it gets the
	// link count of the row it replaces plus the run's children the shard
	// did not hold; without one, those children bump the parent.
	byName := func(a, b rowRef) int {
		return cmp.Or(strings.Compare(name(a), name(b)), cmp.Compare(a.ref, b.ref))
	}
	check := s.Len() > 0 // only a non-empty shard can hold a batch key
	links := map[types.InodeID]int64{}
	var bumps []storage.Mutation
	w := 0
	for lo := 0; lo < len(refs); {
		pid, hi := refs[lo].pid, lo+1
		for hi < len(refs) && refs[hi].pid == pid {
			hi++
		}
		run := refs[lo:hi]
		slices.SortFunc(run, byName)
		head, n := w, int64(0)
		for i, r := range run {
			if i+1 < len(run) && name(run[i+1]) == name(r) {
				continue
			}
			var old storage.Row
			held := false
			if check {
				old, held = s.Get(types.Key{Pid: pid, Name: name(r)})
			}
			switch {
			case r.ref&1 != 0:
				n += old.Entry.Attr.LinkCount
			case !held:
				n++
			}
			refs[w] = r
			w++
		}
		if refs[head].ref&1 != 0 {
			links[pid] = n
		} else if n > 0 {
			bumps = append(bumps, storage.Mutation{
				Kind: storage.MutDeltaAttr, Key: attrKey(pid),
				Delta: storage.AttrDelta{LinkCount: n},
			})
		}
		lo = hi
	}
	refs = refs[:w]
	row := func(i int) (types.Key, types.Entry) {
		r := refs[i]
		e := entries[r.ref>>1]
		if r.ref&1 != 0 {
			e.Pid, e.Name, e.Attr.LinkCount = e.ID, attrName, links[e.ID]
		}
		return types.Key{Pid: e.Pid, Name: e.Name}, e
	}
	if s.BulkLoad(len(refs), row) {
		if len(bumps) == 0 {
			return nil
		}
		return s.Apply(bumps)
	}
	// Logged: the rows, then the bumps, walChunk mutations per Apply (a
	// fresh slice each, since the replication hook may keep it).
	total := len(refs) + len(bumps)
	for lo := 0; lo < total; lo += walChunk {
		chunk := make([]storage.Mutation, 0, min(walChunk, total-lo))
		for j := lo; j < lo+cap(chunk); j++ {
			if j >= len(refs) {
				chunk = append(chunk, bumps[j-len(refs)])
				continue
			}
			k, e := row(j)
			chunk = append(chunk, storage.Mutation{Kind: storage.MutPut, Key: k, Entry: e})
		}
		if err := s.Apply(chunk); err != nil {
			return err
		}
	}
	return nil
}

// BumpLink adjusts a directory's link count directly, bypassing
// transactions — link-count drift injection for fsck tests.
func (db *DB) BumpLink(dir types.InodeID, delta int64) {
	p := db.shardFor(dir)
	_ = p.Shard.Apply([]storage.Mutation{{
		Kind: storage.MutDeltaAttr, Key: attrKey(dir),
		Delta: storage.AttrDelta{LinkCount: delta},
	}})
}

// TotalRows returns the number of MetaTable rows across shards
// (diagnostics and scale experiments).
func (db *DB) TotalRows() int {
	total := 0
	for _, p := range db.parts {
		total += p.Shard.Len()
	}
	return total
}

// DeleteRowDirect removes a MetaTable row bypassing transactions —
// corruption injection for fsck tests. Never used by the service path.
func (db *DB) DeleteRowDirect(pid types.InodeID, name string) {
	p := db.shardFor(pid)
	_ = p.Shard.Apply([]storage.Mutation{{
		Kind: storage.MutDelete, Key: types.Key{Pid: pid, Name: name},
	}})
}

// ReadDirPage lists up to limit children of dir with names greater than
// startAfter, in name order — the COSS ListObjects continuation pattern.
// Internal attribute and delta rows are excluded. It returns the page and
// the name to pass as the next page's startAfter ("" when the listing is
// complete). One RPC.
func (db *DB) ReadDirPage(op *rpc.Op, dir types.InodeID, startAfter string, limit int) ([]types.Entry, string, error) {
	if limit <= 0 {
		limit = 1000
	}
	var out []types.Entry
	more := false
	lo := childrenLo
	if startAfter != "" {
		lo = startAfter + "\x00" // strictly after startAfter
	}
	err := db.read(op, dir, func(s *storage.Shard) error {
		// Size the page once: the directory's attribute row tracks its
		// child count (LinkCount), and the page holds at most limit.
		out, more = nil, false
		if row, ok := s.Get(attrKey(dir)); ok {
			if hint := min(row.Entry.Attr.LinkCount, int64(limit)); hint > 0 {
				out = make([]types.Entry, 0, hint)
			}
		}
		s.Scan(
			types.Key{Pid: dir, Name: lo},
			types.Key{Pid: dir + 1, Name: ""},
			func(r storage.Row) bool {
				if len(out) == limit {
					more = true
					return false
				}
				out = append(out, r.Entry)
				return true
			})
		return nil
	})
	next := ""
	if more && len(out) > 0 {
		next = out[len(out)-1].Name
	}
	return out, next, err
}
