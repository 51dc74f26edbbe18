package radix

import (
	"maps"
	"sync"
	"sync/atomic"
	"unsafe"

	"mantle/internal/intern"
	"mantle/internal/pathutil"
)

// Cache is the prefix-invalidated path cache of §5.1.1–5.1.2: a striped
// hash table of resolved paths for the lookup fast path, a Tree mirroring
// its keys so a directory modification can find every cached path under
// it, and the modification epoch (the paper's "conventional timestamp
// mechanism") that keeps a lookup which raced a modification from caching
// its result. IndexNode's TopDirPathCache, the Figure 20 proxy cache and
// InfiniFS's AM-Cache are all this type.
//
// Keys are cleaned absolute paths; callers clean. Entries are static —
// there is no eviction policy, only invalidation.
//
// The fill protocol: a reader captures Epoch before it resolves and hands
// it to Fill; every invalidation bumps the epoch before it removes
// anything. A fill therefore either lands before the invalidation's sweep
// (and is swept: index and map change together under the key's stripe
// lock, so the map never holds a key the index lacks) or finds the epoch
// moved and removes itself. A stale entry cannot outlive the
// invalidation that made it stale.
type Cache[V any] struct {
	stripes [cacheStripes]stripe[V]
	index   *Tree
	epoch   atomic.Uint64
	hits    atomic.Int64
	misses  atomic.Int64
}

const cacheStripes = 64

type stripe[V any] struct {
	mu sync.RWMutex
	m  map[string]V
}

// NewCache returns an empty cache.
func NewCache[V any]() *Cache[V] {
	c := &Cache[V]{index: New()}
	for i := range c.stripes {
		c.stripes[i].m = make(map[string]V)
	}
	return c
}

func (c *Cache[V]) stripeFor(path string) *stripe[V] {
	return &c.stripes[intern.Hash(path)%cacheStripes]
}

// Get returns the cached value of path: one stripe read-lock, one map
// read, no allocation.
func (c *Cache[V]) Get(path string) (V, bool) {
	s := c.stripeFor(path)
	s.mu.RLock()
	v, ok := s.m[path]
	s.mu.RUnlock()
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	return v, ok
}

// Epoch returns the modification epoch, to be captured before resolving
// a path whose result will be offered to Fill.
func (c *Cache[V]) Epoch() uint64 { return c.epoch.Load() }

// Bump advances the epoch without removing anything: a modification has
// begun or landed whose sweep comes later (InvalidateSubtree), and fills
// that straddle this moment must not stick.
func (c *Cache[V]) Bump() { c.epoch.Add(1) }

// Fill caches v for path unless the epoch moved since the caller
// captured epoch0; the root is never cached. A fresh key is interned:
// callers pass paths sliced from request paths, and a map key that is a
// substring would pin the whole request for the entry's lifetime
// (existing keys are left alone — Go maps keep the original key string
// on overwrite).
func (c *Cache[V]) Fill(path string, v V, epoch0 uint64) {
	if path == "/" || c.epoch.Load() != epoch0 {
		return
	}
	s := c.stripeFor(path)
	s.mu.Lock()
	c.index.Insert(path)
	if _, ok := s.m[path]; !ok {
		path = pathutil.Intern(path)
	}
	s.m[path] = v
	s.mu.Unlock()
	if c.epoch.Load() != epoch0 {
		// An invalidation started during the insert and may have swept
		// the index before the insert landed.
		c.remove(s, path)
	}
}

func (c *Cache[V]) remove(s *stripe[V], path string) bool {
	s.mu.Lock()
	c.index.Remove(path)
	_, ok := s.m[path]
	delete(s.m, path)
	s.mu.Unlock()
	return ok
}

// Delete invalidates exactly path, reporting whether it was cached — the
// rmdir fast path (§5.1.2): an empty directory is a strict prefix of no
// other cached path, so no range scan is needed.
func (c *Cache[V]) Delete(path string) bool {
	c.epoch.Add(1)
	return c.remove(c.stripeFor(path), path)
}

// InvalidateSubtree removes every cached path under dir (inclusive).
func (c *Cache[V]) InvalidateSubtree(dir string) {
	c.epoch.Add(1)
	for _, p := range c.index.RemoveSubtree(dir) {
		s := c.stripeFor(p)
		s.mu.Lock()
		delete(s.m, p)
		s.mu.Unlock()
	}
}

// Len returns the number of cached paths.
func (c *Cache[V]) Len() int {
	n := 0
	for i := range c.stripes {
		c.stripes[i].mu.RLock()
		n += len(c.stripes[i].m)
		c.stripes[i].mu.RUnlock()
	}
	return n
}

// Stats returns the cumulative Get hit and miss counts.
func (c *Cache[V]) Stats() (hits, misses int64) {
	return c.hits.Load(), c.misses.Load()
}

// MemoryBytes estimates the footprint: per entry, the key's bytes, the
// value, and 32 bytes of map overhead (the Figure 18 k-sweep's column).
func (c *Cache[V]) MemoryBytes() int64 {
	var v V
	var total int64
	for i := range c.stripes {
		s := &c.stripes[i]
		s.mu.RLock()
		for k := range s.m {
			total += int64(len(k)) + int64(unsafe.Sizeof(v)) + 32
		}
		s.mu.RUnlock()
	}
	return total
}

// Range calls fn for every cached (path, value) pair until fn returns
// false (audits: tests compare the contents with authoritative lookups).
// fn runs on a copy of each stripe, outside its lock.
func (c *Cache[V]) Range(fn func(path string, v V) bool) {
	for i := range c.stripes {
		s := &c.stripes[i]
		s.mu.RLock()
		snap := maps.Clone(s.m)
		s.mu.RUnlock()
		for p, v := range snap {
			if !fn(p, v) {
				return
			}
		}
	}
}
