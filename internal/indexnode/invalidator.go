package indexnode

import (
	"sync"
	"sync/atomic"
	"time"

	"mantle/internal/pathutil"
	"mantle/internal/radix"
)

// Invalidator coordinates lookups with directory modifications (§5.1.2).
// The cache finds and removes what a modification made stale; the
// Invalidator owns when:
//
//   - RemovalList: the full paths of directories currently being
//     modified, as a refcounted set whose keys are published as an
//     immutable snapshot. Every lookup loads the snapshot (nil — one
//     atomic load — in the common case) and bypasses TopDirPathCache for
//     paths under a listed prefix.
//   - a background worker that drains invalidation requests: it sweeps
//     the affected subtree out of the cache, then deletes the path from
//     RemovalList.
//
// Every registration and every applied modification bumps the cache's
// epoch at once, so a lookup that raced it cannot fill (radix.Cache).
type Invalidator struct {
	cache *radix.Cache[CacheEntry]

	// refs is the RemovalList. It counts concurrent registrations per
	// path: two renames racing on the same source must not strip each
	// other's protection when one aborts. Writers (rare: rename
	// prepare/commit/abort, setperm) update it under refMu and publish its
	// keys through removal, which readers load without blocking; a
	// published slice is never mutated, and nil means empty.
	refMu   sync.Mutex
	refs    map[string]int
	removal atomic.Pointer[[]string]

	queue    chan string
	wg       sync.WaitGroup
	stopOnce sync.Once
	stopCh   chan struct{}
}

// NewInvalidator creates an invalidator bound to cache and starts its
// background worker.
func NewInvalidator(cache *radix.Cache[CacheEntry]) *Invalidator {
	inv := &Invalidator{
		cache:  cache,
		refs:   make(map[string]int),
		queue:  make(chan string, 1024),
		stopCh: make(chan struct{}),
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

// BeginModification registers path as being modified: lookups under it
// bypass the cache until a matching Invalidate or AbortModification.
// Registrations are reference-counted, so concurrent modifications of
// the same path (two renames racing on one source; the loser aborts)
// cannot strip each other's protection. Reports whether the path was
// newly inserted into the RemovalList.
func (inv *Invalidator) BeginModification(path string) bool {
	inv.cache.Bump()
	return inv.ref(pathutil.Clean(path), 1)
}

// AbortModification releases one registration of path without
// invalidating anything (the modification did not happen).
func (inv *Invalidator) AbortModification(path string) {
	inv.ref(pathutil.Clean(path), -1)
}

// ref moves path's registration count by delta; a count that reaches
// zero leaves the RemovalList. When the set of listed paths changed it
// publishes a fresh snapshot and reports true.
func (inv *Invalidator) ref(path string, delta int) bool {
	inv.refMu.Lock()
	defer inv.refMu.Unlock()
	before := len(inv.refs)
	if n := inv.refs[path] + delta; n > 0 {
		inv.refs[path] = n
	} else {
		delete(inv.refs, path)
	}
	if len(inv.refs) == before {
		return false
	}
	var snap *[]string
	if len(inv.refs) > 0 {
		paths := make([]string, 0, len(inv.refs))
		for p := range inv.refs {
			paths = append(paths, p)
		}
		snap = &paths
	}
	inv.removal.Store(snap)
	return true
}

// Invalidate enqueues asynchronous invalidation of every cached prefix
// under path (inclusive), then removal of path from the RemovalList.
func (inv *Invalidator) Invalidate(path string) {
	inv.cache.Bump()
	select {
	case inv.queue <- pathutil.Clean(path):
	case <-inv.stopCh:
		inv.invalidateNow(pathutil.Clean(path))
	}
}

// Blocked reports whether path or one of its ancestors is in the
// RemovalList, meaning the lookup must bypass TopDirPathCache. It is
// wait-free: one atomic load (nil while nothing is being modified, the
// common case), then a scan of the handful of in-flight paths.
func (inv *Invalidator) Blocked(path string) bool {
	snap := inv.removal.Load()
	if snap == nil {
		return false
	}
	for _, p := range *snap {
		if pathutil.IsAncestor(p, path, true) {
			return true
		}
	}
	return false
}

// RemovalLen returns the RemovalList's current length.
func (inv *Invalidator) RemovalLen() int {
	if snap := inv.removal.Load(); snap != nil {
		return len(*snap)
	}
	return 0
}

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
	inv.cache.InvalidateSubtree(path)
	inv.ref(path, -1)
}

// WaitIdle blocks until the invalidation queue is drained and the
// RemovalList is empty. Test helper.
func (inv *Invalidator) WaitIdle() {
	for {
		if len(inv.queue) == 0 && inv.removal.Load() == nil {
			return
		}
		select {
		case <-inv.stopCh:
			return
		case <-time.After(100 * time.Microsecond):
		}
	}
}
