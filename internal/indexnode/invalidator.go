package indexnode

import (
	"sync"
	"sync/atomic"
	"time"

	"mantle/internal/pathutil"
	"mantle/internal/radix"
	"mantle/internal/skiplist"
)

// Invalidator coordinates lookups with directory modifications (§5.1.2).
// It owns three structures:
//
//   - RemovalList: a concurrent skiplist of the full paths of directories
//     currently being modified. Every lookup scans it (an O(1) emptiness
//     check in the common case) and bypasses TopDirPathCache for paths
//     under a listed prefix.
//   - PrefixTree: a path radix tree mirroring every cached prefix, so an
//     invalidation can find the affected cache range — hash tables cannot
//     answer range queries.
//   - a background worker that drains invalidation requests: it removes
//     the affected subtree from PrefixTree and TopDirPathCache, then
//     deletes the path from RemovalList.
//
// A modification epoch implements the paper's "conventional timestamp
// mechanism": lookups snapshot the epoch before resolving and only cache
// their result if no modification intervened.
type Invalidator struct {
	cache   *TopDirPathCache
	removal *skiplist.List
	prefix  *radix.Tree
	epoch   atomic.Uint64

	// refs counts concurrent registrations per path: two renames racing
	// on the same source must not strip each other's RemovalList
	// protection when one aborts. The skiplist stays the lock-free read
	// structure; refs is touched only on (rare) modifications.
	refMu sync.Mutex
	refs  map[string]int

	queue    chan string
	wg       sync.WaitGroup
	stopOnce sync.Once
	stopCh   chan struct{}
}

// NewInvalidator creates an invalidator bound to cache and starts its
// background worker.
func NewInvalidator(cache *TopDirPathCache) *Invalidator {
	inv := &Invalidator{
		cache:   cache,
		removal: skiplist.New(),
		prefix:  radix.New(),
		refs:    make(map[string]int),
		queue:   make(chan string, 1024),
		stopCh:  make(chan struct{}),
	}
	inv.wg.Add(1)
	go inv.worker()
	return inv
}

// Stop terminates the background worker after draining pending work.
func (inv *Invalidator) Stop() {
	inv.stopOnce.Do(func() { close(inv.stopCh) })
	inv.wg.Wait()
}

// Epoch returns the current modification epoch.
func (inv *Invalidator) Epoch() uint64 { return inv.epoch.Load() }

// BumpEpoch advances the modification epoch (called by every applied
// directory modification).
func (inv *Invalidator) BumpEpoch() { inv.epoch.Add(1) }

// BeginModification registers path as being modified: lookups under it
// bypass the cache until a matching Invalidate or AbortModification.
// Registrations are reference-counted, so concurrent modifications of
// the same path (two renames racing on one source; the loser aborts)
// cannot strip each other's protection. Reports whether the path was
// newly inserted into the RemovalList.
func (inv *Invalidator) BeginModification(path string) bool {
	path = pathutil.Clean(path)
	inv.BumpEpoch()
	inv.refMu.Lock()
	inv.refs[path]++
	fresh := inv.refs[path] == 1
	inv.refMu.Unlock()
	if fresh {
		return inv.removal.Insert(path)
	}
	return false
}

// AbortModification releases one registration of path without
// invalidating anything (the modification did not happen).
func (inv *Invalidator) AbortModification(path string) {
	inv.release(pathutil.Clean(path))
}

// release drops one reference; the last one removes the RemovalList
// entry.
func (inv *Invalidator) release(path string) {
	inv.refMu.Lock()
	inv.refs[path]--
	gone := inv.refs[path] <= 0
	if gone {
		delete(inv.refs, path)
	}
	inv.refMu.Unlock()
	if gone {
		inv.removal.Remove(path)
	}
}

// Invalidate enqueues asynchronous invalidation of every cached prefix
// under path (inclusive), then removal of path from the RemovalList.
func (inv *Invalidator) Invalidate(path string) {
	inv.BumpEpoch()
	select {
	case inv.queue <- pathutil.Clean(path):
	case <-inv.stopCh:
		inv.invalidateNow(pathutil.Clean(path))
	}
}

// InvalidateExact synchronously removes the exact cache entry for path —
// the rmdir fast path (§5.1.2): an empty directory cannot be a strict
// prefix of any other cached path, so no range scan or RemovalList
// round trip is needed.
func (inv *Invalidator) InvalidateExact(path string) {
	path = pathutil.Clean(path)
	inv.BumpEpoch()
	inv.prefix.Remove(path)
	inv.cache.Delete(path)
}

// Blocked reports whether path (or any of its ancestors) appears in the
// RemovalList, meaning the lookup must bypass TopDirPathCache. The empty
// check is wait-free and is the common case.
func (inv *Invalidator) Blocked(path string) bool {
	if inv.removal.IsEmpty() {
		return false
	}
	blocked := false
	inv.removal.Range(func(p string) bool {
		if pathutil.IsAncestor(p, path, true) {
			blocked = true
			return false
		}
		// Keys are sorted; once past path lexically there can still be
		// shorter ancestors later? No: an ancestor of path is a strict
		// string prefix, so it sorts <= path. Stop once beyond.
		return p <= path
	})
	return blocked
}

// NoteCached records a freshly cached prefix in the PrefixTree (the
// synchronous mirror update of §5.1.2).
func (inv *Invalidator) NoteCached(prefix string) {
	inv.prefix.Insert(pathutil.Clean(prefix))
}

// RemovalLen returns the RemovalList's current length.
func (inv *Invalidator) RemovalLen() int { return inv.removal.Len() }

func (inv *Invalidator) worker() {
	defer inv.wg.Done()
	for {
		select {
		case p := <-inv.queue:
			inv.invalidateNow(p)
		case <-inv.stopCh:
			// Drain remaining work, then exit.
			for {
				select {
				case p := <-inv.queue:
					inv.invalidateNow(p)
				default:
					return
				}
			}
		}
	}
}

func (inv *Invalidator) invalidateNow(path string) {
	for _, p := range inv.prefix.RemoveSubtree(path) {
		inv.cache.Delete(p)
	}
	inv.release(path)
}

// WaitIdle blocks until the invalidation queue is drained and the
// RemovalList is empty. Test helper.
func (inv *Invalidator) WaitIdle() {
	for {
		if len(inv.queue) == 0 && inv.removal.IsEmpty() {
			return
		}
		select {
		case <-inv.stopCh:
			return
		case <-time.After(100 * time.Microsecond):
		}
	}
}
