package core

import (
	"sync"
	"sync/atomic"

	"mantle/internal/indexnode"
	"mantle/internal/pathutil"
	"mantle/internal/radix"
	"mantle/internal/singleflight"
)

// proxyCache is the optional proxy-side metadata cache evaluated in the
// paper's Figure 20 ("we equip InfiniFS and Mantle with metadata
// caching"): directory-path resolution results cached at the proxy
// layer, short-circuiting even the single IndexNode RPC. The paper's
// point — and this reproduction's — is that it helps Mantle only
// modestly, because single-RPC lookups leave little to save; it is off
// by default (§6.5: "metadata caching isn't adopted in Mantle's
// design").
//
// Concurrency: the hot path (get) touches only one of pcStripes
// hash-striped RWMutexes, so concurrent readers of different — and
// mostly even the same — paths never serialise on a global lock. The
// radix PrefixTree, which answers "which cached paths lie under
// directory D?" for subtree invalidation, is shared across stripes and
// guarded by its own internal lock; it is touched only on fill and
// invalidation, never on a hit.
//
// Invalidation correctness across stripes uses an epoch: invalidate
// bumps the epoch *before* removing entries, and put re-checks the
// epoch captured before the miss's RPC both before and after
// inserting, deleting its own insert if an invalidation raced it. A
// fill therefore either completes before the invalidation sweep (and is
// removed by it — the insert is radix-first, so the sweep always finds
// it) or observes the bumped epoch and self-destructs; stale
// post-invalidation hits are impossible.
//
// Invalidation works here because the example "proxy fleet" is
// goroutines sharing one process; the paper's stateless multi-node
// proxy layer is precisely why the design rejects this cache.
type proxyCache struct {
	stripes [pcStripes]pcStripe
	prefix  *radix.Tree
	epoch   atomic.Uint64

	// flight coalesces concurrent misses of one path into a single
	// IndexNode RPC. Keys carry the epoch, so lookups beginning after an
	// invalidation never join (and thus never return) a
	// pre-invalidation flight's result.
	flight singleflight.Group[pcFlightKey, indexnode.LookupResult]
}

const pcStripes = 64

type pcStripe struct {
	mu sync.RWMutex
	m  map[string]indexnode.LookupResult
}

type pcFlightKey struct {
	path  string
	epoch uint64
}

func newProxyCache() *proxyCache {
	c := &proxyCache{prefix: radix.New()}
	for i := range c.stripes {
		c.stripes[i].m = make(map[string]indexnode.LookupResult)
	}
	return c
}

// stripeFor hashes a cleaned path to its stripe (FNV-1a).
func (c *proxyCache) stripeFor(path string) *pcStripe {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(path); i++ {
		h ^= uint64(path[i])
		h *= 1099511628211
	}
	return &c.stripes[h%pcStripes]
}

// get returns the cached resolution of path. It cleans path itself, so
// every entry point normalises identically — callers may pass raw
// user-supplied paths.
func (c *proxyCache) get(path string) (indexnode.LookupResult, bool) {
	path = pathutil.Clean(path)
	s := c.stripeFor(path)
	s.mu.RLock()
	res, ok := s.m[path]
	s.mu.RUnlock()
	return res, ok
}

// put stores the resolution of path, provided no invalidation ran since
// the caller captured epoch0 (before issuing the lookup RPC). The
// radix-first insert plus the post-insert epoch re-check make the fill
// linearizable with invalidate: a racing invalidation either sweeps the
// entry away or forces the fill to remove itself.
func (c *proxyCache) put(path string, res indexnode.LookupResult, epoch0 uint64) {
	path = pathutil.Clean(path)
	if path == "/" {
		return
	}
	if c.epoch.Load() != epoch0 {
		return // an invalidation raced the RPC; the result may be stale
	}
	// Retention-safe key: don't let the cache pin the caller's request
	// path, and share the backing across stripes and repeated fills.
	path = pathutil.Intern(path)
	c.prefix.Insert(path)
	s := c.stripeFor(path)
	s.mu.Lock()
	s.m[path] = res
	s.mu.Unlock()
	if c.epoch.Load() != epoch0 {
		// An invalidation started during the insert; it may have swept
		// the radix tree before our Insert landed, so drop the entry
		// conservatively.
		c.prefix.Remove(path)
		s.mu.Lock()
		delete(s.m, path)
		s.mu.Unlock()
	}
}

// invalidate drops every cached entry under path (inclusive). The epoch
// bump happens first, so fills racing this sweep self-destruct.
func (c *proxyCache) invalidate(path string) {
	c.epoch.Add(1)
	for _, p := range c.prefix.RemoveSubtree(pathutil.Clean(path)) {
		s := c.stripeFor(p)
		s.mu.Lock()
		delete(s.m, p)
		s.mu.Unlock()
	}
}

// forEach visits every cached (path, result) pair (tests: the stress
// suite audits cache contents against authoritative lookups).
func (c *proxyCache) forEach(fn func(path string, res indexnode.LookupResult) bool) {
	for i := range c.stripes {
		s := &c.stripes[i]
		s.mu.RLock()
		for p, r := range s.m {
			if !fn(p, r) {
				s.mu.RUnlock()
				return
			}
		}
		s.mu.RUnlock()
	}
}
