package core

import (
	"mantle/internal/indexnode"
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
// It is a radix.Cache (whose epoch-guarded fill makes a stale
// post-invalidation hit impossible) plus the flight that coalesces
// concurrent misses of one path into a single IndexNode RPC. Flight keys
// carry the epoch, so lookups beginning after an invalidation never join
// (and thus never return) a pre-invalidation flight's result.
//
// Invalidation works here because the example "proxy fleet" is
// goroutines sharing one process; the paper's stateless multi-node
// proxy layer is precisely why the design rejects this cache.
type proxyCache struct {
	*radix.Cache[indexnode.LookupResult]
	flight singleflight.Group[pcFlightKey, indexnode.LookupResult]
}

type pcFlightKey struct {
	path  string
	epoch uint64
}

func newProxyCache() *proxyCache {
	return &proxyCache{Cache: radix.NewCache[indexnode.LookupResult]()}
}
