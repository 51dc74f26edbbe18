// Package singleflight provides duplicate-call suppression for the
// lookup hot path: N concurrent identical lookups of one hot directory
// collapse into a single IndexNode RPC (proxy layer) or a single
// IndexTable walk (replica layer), and the N-1 joiners share the
// leader's result. This is the standard coalescing pattern popularised
// by groupcache's singleflight, reimplemented here (stdlib only) with a
// comparable generic key — callers key flights on (path, epoch) structs
// without allocating — and built-in coalescing counters for the metrics
// registry.
//
// Correctness under invalidation is the caller's job: a shared result
// reflects the state at the moment the leader started. Both cache
// layers therefore key flights with a modification epoch, so lookups
// that begin after an invalidation never join a pre-invalidation
// flight (see DESIGN.md "Concurrency model").
package singleflight

import (
	"sync"
	"sync/atomic"
)

// call is one in-flight leader execution. Calls are recycled: the last
// of the leader and its joiners to read the result returns the call to
// its group, so a flight allocates nothing once the group is warm.
type call[V any] struct {
	wg      sync.WaitGroup
	val     V
	err     error
	readers int // leader and joiners yet to read val; under Group.mu
}

// Group suppresses duplicate concurrent calls per key. The zero value
// is ready to use.
type Group[K comparable, V any] struct {
	mu   sync.Mutex
	m    map[K]*call[V]
	free []*call[V] // recycled calls, under mu

	flights   atomic.Int64 // leader executions
	coalesced atomic.Int64 // joiners that shared a leader's result
}

// Do executes fn once per key among concurrent callers: the first
// caller (the leader) runs fn; callers arriving while it runs block and
// receive the same result with shared=true. Once the leader returns,
// the key is forgotten — later calls start a fresh flight, so results
// are never cached beyond the overlap window.
func (g *Group[K, V]) Do(key K, fn func() (V, error)) (v V, err error, shared bool) {
	g.mu.Lock()
	if g.m == nil {
		g.m = make(map[K]*call[V])
	}
	if c, ok := g.m[key]; ok {
		c.readers++
		g.mu.Unlock()
		c.wg.Wait()
		g.coalesced.Add(1)
		v, err = c.val, c.err
		g.mu.Lock()
		g.releaseLocked(c)
		g.mu.Unlock()
		return v, err, true
	}
	var c *call[V]
	if n := len(g.free); n > 0 {
		c, g.free = g.free[n-1], g.free[:n-1]
	} else {
		c = new(call[V])
	}
	c.readers = 1
	c.wg.Add(1)
	g.m[key] = c
	g.mu.Unlock()

	g.flights.Add(1)
	func() {
		defer func() {
			// A panicking fn must not strand joiners on the WaitGroup:
			// forget the key and release them before re-panicking.
			if r := recover(); r != nil {
				g.forget(key)
				c.wg.Done()
				panic(r)
			}
		}()
		c.val, c.err = fn()
	}()

	v, err = c.val, c.err
	g.mu.Lock()
	delete(g.m, key)
	c.wg.Done()
	g.releaseLocked(c)
	g.mu.Unlock()
	return v, err, false
}

// releaseLocked drops one reader of c; the last one clears c and returns
// it to the free list. Called with g.mu held.
func (g *Group[K, V]) releaseLocked(c *call[V]) {
	if c.readers--; c.readers == 0 {
		var zero V
		c.val, c.err = zero, nil
		g.free = append(g.free, c)
	}
}

func (g *Group[K, V]) forget(key K) {
	g.mu.Lock()
	delete(g.m, key)
	g.mu.Unlock()
}

// Flights returns how many leader executions have run.
func (g *Group[K, V]) Flights() int64 { return g.flights.Load() }

// Coalesced returns how many callers shared a leader's result instead
// of executing their own call.
func (g *Group[K, V]) Coalesced() int64 { return g.coalesced.Load() }
