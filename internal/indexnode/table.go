package indexnode

import (
	"sync"

	"mantle/internal/intern"
	"mantle/internal/types"
)

// IndexTable is the in-memory directory access-metadata index of one
// IndexNode replica (Figure 6): (pid, dirname) → {id, permission, lock
// bit}, plus a reverse id → entry index used by rename loop detection to
// walk a directory's ancestor chain without touching TafDB.
//
// The table is striped for concurrent reads; mutations arrive only from
// the Raft apply thread (plus bulk population before experiments), so
// write contention is negligible. Each entry is ~80 bytes, matching the
// paper's estimate for per-directory access metadata.
type IndexTable struct {
	stripes [tableStripes]tableStripe
	length  int64
	lenMu   sync.Mutex
}

const tableStripes = 64

type tableStripe struct {
	mu    sync.RWMutex
	byKey map[types.Key]types.AccessEntry
	byID  map[types.InodeID]types.AccessEntry
}

// NewIndexTable creates an empty table.
func NewIndexTable() *IndexTable {
	t := &IndexTable{}
	for i := range t.stripes {
		t.stripes[i].byKey = make(map[types.Key]types.AccessEntry)
		t.stripes[i].byID = make(map[types.InodeID]types.AccessEntry)
	}
	return t
}

func (t *IndexTable) stripeFor(pid types.InodeID) *tableStripe {
	return &t.stripes[stripeIdx(pid)]
}

func stripeIdx(pid types.InodeID) uint64 {
	return uint64(pid) * 0x9E3779B97F4A7C15 % tableStripes
}

// stripeForID locates the stripe holding the reverse-index entry for id.
// Entries are placed in the stripe of their *own* id for the reverse
// index and the stripe of their pid for the forward index; the two can
// differ, so each entry is stored in both stripes' maps.
func (t *IndexTable) stripeForID(id types.InodeID) *tableStripe {
	return t.stripeFor(id)
}

// bulkPut is Put over a batch, in order, so the last entry of a key
// wins. It first makes each empty stripe's maps at the size the batch
// gives them, rather than growing them from empty. It returns how many
// new entries each parent gained.
func (t *IndexTable) bulkPut(entries []types.AccessEntry) map[types.InodeID]int64 {
	var fwd, rev [tableStripes]int
	for i := range entries {
		fwd[stripeIdx(entries[i].Pid)]++
		rev[stripeIdx(entries[i].ID)]++
	}
	for i := range t.stripes {
		s := &t.stripes[i]
		s.mu.Lock()
		if len(s.byKey) == 0 && fwd[i] > 0 {
			s.byKey = make(map[types.Key]types.AccessEntry, fwd[i])
		}
		if len(s.byID) == 0 && rev[i] > 0 {
			s.byID = make(map[types.InodeID]types.AccessEntry, rev[i])
		}
		s.mu.Unlock()
	}
	gained := map[types.InodeID]int64{}
	for _, e := range entries {
		if t.Put(e) {
			gained[e.Pid]++
		}
	}
	return gained
}

// Get returns the access entry for (pid, name).
func (t *IndexTable) Get(pid types.InodeID, name string) (types.AccessEntry, bool) {
	s := t.stripeFor(pid)
	s.mu.RLock()
	defer s.mu.RUnlock()
	e, ok := s.byKey[types.Key{Pid: pid, Name: name}]
	return e, ok
}

// GetByID returns the access entry for a directory ID (reverse index).
func (t *IndexTable) GetByID(id types.InodeID) (types.AccessEntry, bool) {
	s := t.stripeForID(id)
	s.mu.RLock()
	defer s.mu.RUnlock()
	e, ok := s.byID[id]
	return e, ok
}

// Put inserts or replaces the entry, reporting whether it was new.
// The component name is interned: every replica of the group (and the
// TafDB access row, and any cache keys) then shares one string backing
// for the same directory name instead of one copy per table.
func (t *IndexTable) Put(e types.AccessEntry) bool {
	e.Name = intern.Intern(e.Name)
	fresh := false
	fwd := t.stripeFor(e.Pid)
	fwd.mu.Lock()
	k := types.Key{Pid: e.Pid, Name: e.Name}
	if _, exists := fwd.byKey[k]; !exists {
		fresh = true
	}
	fwd.byKey[k] = e
	fwd.mu.Unlock()

	rev := t.stripeForID(e.ID)
	rev.mu.Lock()
	rev.byID[e.ID] = e
	rev.mu.Unlock()

	if fresh {
		t.lenMu.Lock()
		t.length++
		t.lenMu.Unlock()
	}
	return fresh
}

// Delete removes (pid, name) and its reverse entry, reporting presence.
func (t *IndexTable) Delete(pid types.InodeID, name string, id types.InodeID) bool {
	fwd := t.stripeFor(pid)
	fwd.mu.Lock()
	k := types.Key{Pid: pid, Name: name}
	_, ok := fwd.byKey[k]
	delete(fwd.byKey, k)
	fwd.mu.Unlock()
	if !ok {
		return false
	}
	rev := t.stripeForID(id)
	rev.mu.Lock()
	if e, has := rev.byID[id]; has && e.Pid == pid && e.Name == name {
		delete(rev.byID, id)
	}
	rev.mu.Unlock()
	t.lenMu.Lock()
	t.length--
	t.lenMu.Unlock()
	return true
}

// Rename atomically re-homes entry id from (pid, name) to (dstPid,
// dstName) with the given permission.
func (t *IndexTable) Rename(pid types.InodeID, name string, id types.InodeID,
	dstPid types.InodeID, dstName string, perm types.Perm) bool {

	if !t.Delete(pid, name, id) {
		return false
	}
	t.Put(types.AccessEntry{Pid: dstPid, Name: dstName, ID: id, Perm: perm})
	return true
}

// SetPerm updates the permission of entry id in both indices.
func (t *IndexTable) SetPerm(id types.InodeID, perm types.Perm) bool {
	rev := t.stripeForID(id)
	rev.mu.Lock()
	e, ok := rev.byID[id]
	if !ok {
		rev.mu.Unlock()
		return false
	}
	e.Perm = perm
	rev.byID[id] = e
	rev.mu.Unlock()

	fwd := t.stripeFor(e.Pid)
	fwd.mu.Lock()
	k := types.Key{Pid: e.Pid, Name: e.Name}
	if fe, ok := fwd.byKey[k]; ok {
		fe.Perm = perm
		fwd.byKey[k] = fe
	}
	fwd.mu.Unlock()
	return true
}

// Len returns the number of directory entries.
func (t *IndexTable) Len() int {
	t.lenMu.Lock()
	defer t.lenMu.Unlock()
	return int(t.length)
}

// PathOf reconstructs the full path of directory id by walking the
// reverse index to the root — the ancestor walk rename loop detection
// uses. Returns false if the chain is broken (entry missing).
func (t *IndexTable) PathOf(id types.InodeID) (string, bool) {
	if id == types.RootID {
		return "/", true
	}
	var comps []string
	cur := id
	for cur != types.RootID {
		e, ok := t.GetByID(cur)
		if !ok {
			return "", false
		}
		comps = append(comps, e.Name)
		cur = e.Pid
	}
	// Reverse.
	n := 0
	for i := len(comps) - 1; i >= 0; i-- {
		n += len(comps[i]) + 1
	}
	b := make([]byte, 0, n)
	for i := len(comps) - 1; i >= 0; i-- {
		b = append(b, '/')
		b = append(b, comps[i]...)
	}
	return string(b), true
}

// IsAncestorID reports whether anc is an ancestor of (or equal to) id in
// the directory tree, walking the reverse index. This is the loop check
// for cross-directory renames (§5.2.2): renaming S under D loops iff S
// is an ancestor of D.
func (t *IndexTable) IsAncestorID(anc, id types.InodeID) bool {
	cur := id
	for {
		if cur == anc {
			return true
		}
		if cur == types.RootID {
			return false
		}
		e, ok := t.GetByID(cur)
		if !ok {
			return false
		}
		cur = e.Pid
	}
}

// ForEach visits every entry (order unspecified) until fn returns false.
func (t *IndexTable) ForEach(fn func(e types.AccessEntry) bool) {
	for i := range t.stripes {
		s := &t.stripes[i]
		s.mu.RLock()
		for _, e := range s.byKey {
			if !fn(e) {
				s.mu.RUnlock()
				return
			}
		}
		s.mu.RUnlock()
	}
}
