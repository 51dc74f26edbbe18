package indexnode

import (
	"fmt"
	"sync"
	"sync/atomic"

	"mantle/internal/pathutil"
	"mantle/internal/radix"
	"mantle/internal/singleflight"
	"mantle/internal/types"
	"mantle/internal/wire"
)

// Replica is one IndexNode replica: the IndexTable, TopDirPathCache, and
// Invalidator, mutated exclusively through the Raft apply thread (plus
// bulk population before experiments). Rename lock bits are
// leader-volatile state: they are not replicated, vanish on failover,
// and are re-acquired by the proxy's idempotent retry with its request
// UUID (§5.3).
type Replica struct {
	table atomic.Pointer[IndexTable]
	cache *radix.Cache[CacheEntry]
	inv   *Invalidator

	// k is the TopDirPathCache truncation distance (§5.1.1).
	k int
	// cacheEnabled gates TopDirPathCache (the "+pathcache" ablation).
	cacheEnabled bool

	// Rename locks: directory ID → owning request UUID.
	lockMu sync.Mutex
	locks  map[types.InodeID]string

	// applySeq counts applied state mutations; it is bumped *after* each
	// mutation lands so a lookup that begins after the bump keys its
	// singleflight on the new sequence and can never join (or share the
	// result of) a walk that predates the mutation.
	applySeq atomic.Uint64
	// flight coalesces concurrent identical lookups into one IndexTable
	// walk; joiners surface with LookupResult.Coalesced set so the group
	// charges them base RPC cost only.
	flight singleflight.Group[lookupFlight, LookupResult]
}

// CacheEntry is a TopDirPathCache value: the resolution result for a
// truncated path prefix — the directory's ID and the aggregated
// permission mask of the whole prefix, intersected per the Lazy-Hybrid
// approach (§5.1.1). TopDirPathCache itself is a radix.Cache: static
// entries keyed by full path prefix (Figure 6), removed only by
// invalidation; the k-truncation rule (callers cache only prefixes ending
// at least k levels above the leaf) keeps the cached region of the
// namespace stable, because production renames concentrate near the
// leaves.
type CacheEntry struct {
	ID   types.InodeID
	Perm types.Perm
}

// lookupFlight keys a coalesced walk: same path AND same applied-state
// sequence. Serial lookups never overlap, so they never coalesce.
type lookupFlight struct {
	path string
	seq  uint64
}

// NewReplica builds an empty replica with truncation distance k.
func NewReplica(k int, cacheEnabled bool) *Replica {
	cache := radix.NewCache[CacheEntry]()
	r := &Replica{
		cache:        cache,
		inv:          NewInvalidator(cache),
		k:            k,
		cacheEnabled: cacheEnabled,
		locks:        make(map[types.InodeID]string),
	}
	r.table.Store(NewIndexTable())
	return r
}

// Close stops the replica's invalidator.
func (r *Replica) Close() { r.inv.Stop() }

// Table exposes the IndexTable (read-mostly; used by tests and stats).
func (r *Replica) Table() *IndexTable { return r.table.Load() }

// Cache exposes the TopDirPathCache.
func (r *Replica) Cache() *radix.Cache[CacheEntry] { return r.cache }

// Invalidator exposes the invalidator.
func (r *Replica) Invalidator() *Invalidator { return r.inv }

// Apply is the Raft state-machine hook: it decodes and applies one
// replicated command, bumping the modification epoch and driving cache
// invalidation exactly as §5.1.3 prescribes (invalidation info rides in
// the log, so follower and learner caches stay coherent).
func (r *Replica) Apply(_ uint64, cmd []byte) {
	c, err := DecodeCmd(cmd)
	if err != nil {
		// A corrupt replicated command is unrecoverable state divergence.
		panic(fmt.Sprintf("indexnode: apply: %v", err))
	}
	// Bump after the mutation is visible (defer): lookups starting later
	// key their coalescing flights on the new sequence.
	defer r.applySeq.Add(1)
	switch c.Kind {
	case CmdAddDir:
		// A new directory cannot invalidate any cached prefix (prefixes
		// resolve existing ancestors), so no epoch bump: the paper's
		// condition (b) tracks RemovalList-relevant modifications only,
		// and bumping here would needlessly suppress cache fills during
		// mkdir-heavy workloads.
		r.table.Load().Put(types.AccessEntry{Pid: c.Pid, Name: c.Name, ID: c.ID, Perm: c.Perm})
	case CmdRemoveDir:
		r.table.Load().Delete(c.Pid, c.Name, c.ID)
		// rmdir fast path: exact-entry invalidation, no RemovalList.
		r.cache.Delete(pathutil.Clean(c.Path))
	case CmdRename:
		r.inv.BeginModification(c.Path)
		r.table.Load().Rename(c.Pid, c.Name, c.ID, c.DstPid, c.DstName, c.Perm)
		if r.unlock(c.ID, c.LockID) {
			// This replica led the PrepareRename, which holds its own
			// RemovalList registration; release it alongside the lock.
			r.inv.AbortModification(c.Path)
		}
		r.inv.Invalidate(c.Path)
	case CmdSetPerm:
		r.inv.BeginModification(c.Path)
		r.table.Load().SetPerm(c.ID, c.Perm)
		r.inv.Invalidate(c.Path)
	}
}

// BulkAdd inserts directory entries directly (population before
// experiments; bypasses Raft on every replica identically), returning how
// many new entries each parent gained.
func (r *Replica) BulkAdd(entries []types.AccessEntry) map[types.InodeID]int64 {
	gained := r.table.Load().bulkPut(entries)
	r.applySeq.Add(1)
	return gained
}

// LookupResult is the outcome of a local path resolution.
type LookupResult struct {
	ID       types.InodeID // ID of the final directory
	ParentID types.InodeID // ID of the final directory's parent
	Perm     types.Perm    // aggregated (intersected) path permission
	Levels   int           // IndexTable levels walked (CPU-cost driver)
	Hit      bool          // TopDirPathCache hit
	// Coalesced marks a result shared from another lookup's in-flight
	// walk: the serving replica did the walk once, so the group charges
	// this caller the base RPC cost without the per-level component.
	Coalesced bool
}

// Lookup resolves an absolute directory path against local state,
// following the Figure 7 workflow:
//
//  1. scan RemovalList; under an in-flight modification, bypass the cache,
//  2. otherwise consult TopDirPathCache with the k-truncated prefix,
//  3. resolve the remaining levels through IndexTable,
//  4. on a miss, offer the prefix to the cache, which keeps it only if no
//     modification raced this lookup (radix.Cache.Fill).
//
// A TopDirPathCache hit bypasses the flight entirely: the remaining
// suffix is at most k cheap IndexTable gets, not worth the flight's
// per-call allocation and registry churn. Only the full walk — the
// expensive case a miss storm multiplies — coalesces: concurrent misses
// of the same path against the same applied state share one walk, and a
// lookup that begins after any applied mutation keys a fresh flight and
// therefore always observes that mutation.
func (r *Replica) Lookup(path string) (LookupResult, error) {
	path = pathutil.Clean(path)
	epoch0 := r.cache.Epoch()
	fill := ""
	if r.cacheEnabled && !r.inv.Blocked(path) {
		if prefix, suffix := pathutil.TruncateRel(path, r.k); prefix != "/" {
			if e, ok := r.cache.Get(prefix); ok {
				res := LookupResult{Hit: true}
				err := r.walk(path, suffix, e.ID, e.Perm, &res, nil)
				return res, err
			}
			fill = prefix
		}
	}
	res, err, shared := r.flight.Do(lookupFlight{path, r.applySeq.Load()}, func() (LookupResult, error) {
		return r.resolve(path, fill, epoch0)
	})
	if shared {
		res.Coalesced = true
	}
	return res, err
}

// CoalescedLookups returns how many lookups shared another lookup's
// walk instead of walking the IndexTable themselves.
func (r *Replica) CoalescedLookups() int64 { return r.flight.Coalesced() }

// resolve is Lookup's miss path: the full walk from the root, then — when
// Lookup probed the cache for prefix fill and missed — the fill, guarded
// by the epoch Lookup captured before it looked at anything.
func (r *Replica) resolve(path, fill string, epoch0 uint64) (LookupResult, error) {
	var res LookupResult
	// The walk passes through fill on its way down: have it report what it
	// held there, with only the suffix below fill (path = fill + "/" +
	// suffix, k >= 1) left to resolve. Without a fill nothing matches.
	at := fillPoint{rest: len(path) - len(fill) - 1}
	err := r.walk(path, pathutil.Rel(path), types.RootID, types.PermAll, &res, &at)
	if err == nil && fill != "" {
		r.cache.Fill(fill, at.CacheEntry, epoch0)
	}
	return res, err
}

// fillPoint asks walk for the directory it stands in when rest bytes of
// the path remain unresolved.
type fillPoint struct {
	rest int
	CacheEntry
}

// walk resolves rest (a relative component sequence, possibly empty)
// starting at (startID, startPerm), accumulating levels walked and the
// final (ID, ParentID, Perm) into res. It iterates components in place
// (pathutil.NextComponent) — the hottest loop in the service — and
// allocates nothing. A non-nil at receives the (ID, aggregated Perm)
// reached at its boundary.
func (r *Replica) walk(path, rest string, startID types.InodeID, startPerm types.Perm, res *LookupResult, at *fillPoint) error {
	id, perm := startID, startPerm
	parent := types.RootID
	table := r.table.Load()
	for rest != "" {
		name, remainder := pathutil.NextComponent(rest)
		e, ok := table.Get(id, name)
		if !ok {
			return fmt.Errorf("lookup %s at %q: %w", path, name, types.ErrNotFound)
		}
		res.Levels++
		parent = id
		id = e.ID
		perm = perm.Intersect(e.Perm)
		// Traversal permission applies to directories entered on the way
		// to the target; the final component is the target itself, and
		// its aggregated permission is returned for the caller to check
		// against the operation's needs.
		if remainder != "" && !perm.Allows(types.PermLookup) {
			return fmt.Errorf("lookup %s at %q: %w", path, name, types.ErrPermission)
		}
		if at != nil && len(remainder) == at.rest {
			at.CacheEntry = CacheEntry{ID: id, Perm: perm}
		}
		rest = remainder
	}
	res.ID, res.ParentID, res.Perm = id, parent, perm
	return nil
}

// TryLock sets the rename lock bit on directory id for request lockID.
// Re-acquiring with the same lockID succeeds (idempotent proxy retry,
// §5.3); a different holder yields types.ErrLocked.
func (r *Replica) TryLock(id types.InodeID, lockID string) error {
	r.lockMu.Lock()
	defer r.lockMu.Unlock()
	if holder, held := r.locks[id]; held && holder != lockID {
		return fmt.Errorf("dir %d locked by %s: %w", id, holder, types.ErrLocked)
	}
	r.locks[id] = lockID
	return nil
}

// IsLocked reports whether id carries a rename lock held by a different
// request than lockID.
func (r *Replica) IsLocked(id types.InodeID, lockID string) bool {
	r.lockMu.Lock()
	defer r.lockMu.Unlock()
	holder, held := r.locks[id]
	return held && holder != lockID
}

// unlock clears the lock if lockID holds it, reporting whether a lock
// was actually released (i.e. this replica was the prepare-time leader).
func (r *Replica) unlock(id types.InodeID, lockID string) bool {
	r.lockMu.Lock()
	defer r.lockMu.Unlock()
	if holder, held := r.locks[id]; held && (holder == lockID || lockID == "") {
		delete(r.locks, id)
		return true
	}
	return false
}

// RenamePrep is the result of PrepareRename: everything the proxy needs
// to run the commit transaction.
type RenamePrep struct {
	SrcPid  types.InodeID
	SrcName string
	SrcID   types.InodeID
	SrcPerm types.Perm
	DstPid  types.InodeID // resolved destination parent
	Levels  int           // IndexTable levels walked (CPU cost)
	// Replica is the group index of the replica that prepared — the one
	// holding the lock and the RemovalList registration (set by
	// Group.PrepareRename; an abort goes there, not to whoever leads now).
	Replica int
}

// PrepareRename executes Figure 9 steps 1–7 locally on the leader in one
// RPC: resolve source and destination-parent paths, insert the source
// path into the RemovalList, lock the source directory, run loop
// detection (src must not be an ancestor of dst), and check rename locks
// along the LCA→destination chain. On conflict the operation is unwound
// and the proxy retries.
func (r *Replica) PrepareRename(srcPath, dstParentPath, dstName, lockID string) (RenamePrep, error) {
	var prep RenamePrep
	srcPath = pathutil.Clean(srcPath)
	dstParentPath = pathutil.Clean(dstParentPath)
	if srcPath == "/" {
		return prep, fmt.Errorf("rename root: %w", types.ErrLoop)
	}

	// Resolve the source's parent, then the source entry itself.
	srcParent := pathutil.Dir(srcPath)
	pres, err := r.Lookup(srcParent)
	if err != nil {
		return prep, err
	}
	prep.Levels += pres.Levels
	srcName := pathutil.Base(srcPath)
	srcEntry, ok := r.table.Load().Get(pres.ID, srcName)
	if !ok {
		return prep, fmt.Errorf("rename src %s: %w", srcPath, types.ErrNotFound)
	}
	prep.Levels++

	// Resolve the destination parent.
	dres, err := r.Lookup(dstParentPath)
	if err != nil {
		return prep, err
	}
	prep.Levels += dres.Levels
	if !dres.Perm.Allows(types.PermWrite) {
		return prep, fmt.Errorf("rename into %s: %w", dstParentPath, types.ErrPermission)
	}

	// Idempotent proxy retry: if this request already holds the lock
	// from a previous attempt, its RemovalList registration is live too;
	// do not double-register.
	r.lockMu.Lock()
	alreadyHeld := r.locks[srcEntry.ID] == lockID
	r.lockMu.Unlock()

	// Step 4: shield the source subtree from caching.
	if !alreadyHeld {
		r.inv.BeginModification(srcPath)
	}
	// Step 5: lock the source directory.
	if err := r.TryLock(srcEntry.ID, lockID); err != nil {
		if !alreadyHeld {
			r.inv.AbortModification(srcPath)
		}
		return prep, err
	}
	// unwind releases the lock and the (single live) registration —
	// whether taken by this attempt or inherited from a crashed one.
	unwind := func(err error) (RenamePrep, error) {
		r.unlock(srcEntry.ID, lockID)
		r.inv.AbortModification(srcPath)
		return prep, err
	}

	// Loop detection: src must not be an ancestor of (or equal to) the
	// destination parent.
	if r.table.Load().IsAncestorID(srcEntry.ID, dres.ID) {
		return unwind(fmt.Errorf("rename %s under %s: %w", srcPath, dstParentPath, types.ErrLoop))
	}
	// Step 6: check locks from the LCA of src and dst down to dst. A
	// locked ancestor there means a concurrent rename could move the
	// destination under the source after our check.
	lca := pathutil.LCA(srcPath, dstParentPath)
	steps := pathutil.Depth(dstParentPath) - pathutil.Depth(lca)
	cur := dres.ID
	for i := 0; i < steps && cur != types.RootID; i++ {
		if r.IsLocked(cur, lockID) {
			return unwind(fmt.Errorf("ancestor %d of %s locked: %w", cur, dstParentPath, types.ErrLocked))
		}
		e, ok := r.table.Load().GetByID(cur)
		if !ok {
			break
		}
		cur = e.Pid
		prep.Levels++
	}

	// Destination name must be free.
	if _, exists := r.table.Load().Get(dres.ID, dstName); exists {
		return unwind(fmt.Errorf("rename dst %s/%s: %w", dstParentPath, dstName, types.ErrExists))
	}

	prep.SrcPid = pres.ID
	prep.SrcName = srcName
	prep.SrcID = srcEntry.ID
	prep.SrcPerm = srcEntry.Perm
	prep.DstPid = dres.ID
	return prep, nil
}

// AbortRename unwinds a prepared rename that failed downstream (TafDB
// transaction conflict): clears the lock and, only if this replica
// actually held it for lockID, the RemovalList registration taken with
// it — a stray abort must not strip another request's protection.
func (r *Replica) AbortRename(srcID types.InodeID, srcPath, lockID string) {
	if r.unlock(srcID, lockID) {
		r.inv.AbortModification(srcPath)
	}
}

// Snapshot serialises the replica's IndexTable for Raft log compaction
// (raft.Snapshotter). Volatile state — TopDirPathCache, the Invalidator's
// structures, and rename locks — is intentionally excluded: caches
// rebuild on demand and locks are leader-volatile by design (§5.3).
func (r *Replica) Snapshot() []byte {
	table := r.table.Load()
	var w wire.Writer
	w.U64(uint64(table.Len()))
	table.ForEach(func(e types.AccessEntry) bool {
		w.U64(uint64(e.Pid))
		w.U64(uint64(e.ID))
		w.U16(uint16(e.Perm))
		w.String32(e.Name)
		return true
	})
	return w.Bytes()
}

// Restore replaces the replica's state from a snapshot (raft.Snapshotter)
// and drops all cached resolution state; empty data is the empty table
// of a replica restarting with no snapshot. A snapshot that does not
// decode exactly — short, over-counted, or with bytes left over — is,
// like a corrupt command in Apply, unrecoverable state divergence:
// installing the readable part would silently drop directories.
func (r *Replica) Restore(data []byte) {
	corrupt := func(off int, what string) {
		panic(fmt.Sprintf("indexnode: restore: %s at offset %d of %d", what, off, len(data)))
	}
	rd := wire.NewReader(data)
	n := rd.U64()
	if rd.Err() != nil && len(data) > 0 {
		corrupt(0, "truncated entry count")
	}
	table := NewIndexTable()
	for i := uint64(0); i < n; i++ {
		off := rd.Offset()
		e := types.AccessEntry{
			Pid:  types.InodeID(rd.U64()),
			ID:   types.InodeID(rd.U64()),
			Perm: types.Perm(rd.U16()),
			Name: rd.String32(),
		}
		if rd.Err() != nil {
			corrupt(off, fmt.Sprintf("entry %d of %d truncated", i, n))
		}
		table.Put(e)
	}
	if rd.Len() != 0 {
		corrupt(rd.Offset(), "trailing bytes")
	}
	// Swap in the rebuilt table, then invalidate every cached resolution.
	r.table.Store(table)
	r.applySeq.Add(1)
	r.cache.InvalidateSubtree("/")
	// Rename locks are leader-volatile: a replica restarting from its log
	// must not come back holding its previous life's.
	r.lockMu.Lock()
	clear(r.locks)
	r.lockMu.Unlock()
}
