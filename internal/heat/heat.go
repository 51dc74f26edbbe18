// Package heat is the hotspot-telemetry toolkit of the metadata path:
// a concurrency-safe space-saving top-K sketch (heavy hitters with
// per-item error bounds) and a windowed EWMA rate tracker, with the
// repo's flat "name value" text exposition. The proxy, IndexNode, and
// TafDB layers each keep a sketch of their hottest directories and a
// rate of their op stream; the future split/migration machinery (the
// ROADMAP's elastic hotspot management item) reads these to decide
// what to move, and /status renders them live.
//
// The sketch is Metwally's space-saving algorithm: at most k keys are
// tracked; an untracked key evicts the current minimum and inherits its
// count (recorded as the new key's error bound), so for every reported
// item the true frequency lies in [Count-Err, Count], and any key whose
// true count exceeds the smallest tracked count is guaranteed present.
//
// Hot-path cost. A hit (the key is tracked) is a read-locked map probe
// and one atomic add on the key's slot. A miss takes the write lock; on
// a full sketch it scans the k contiguous counters for the minimum and
// re-keys that slot in place — one map delete, one map insert, no
// allocation, no map iteration, and no clock read unless the sketch
// decays. A stream spread uniformly over more than k keys (a stat mix
// over 64 directories against k = 32, or a 1 M-entry namespace) misses
// on most records, so the miss is as much the hot path as the hit: it
// is O(k) under the write lock, which serialises concurrent recorders.
package heat

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// cell is one slot of the sketch: a tracked key and its counter. count
// is atomic so read-locked recorders can bump it concurrently; key and
// err are written only under the sketch's write lock (insert, evict,
// fold) and read under either lock.
type cell[K comparable] struct {
	key   K
	count atomic.Int64
	err   int64
}

// TopK is a space-saving heavy-hitter sketch over keys of any
// comparable type (string paths at the proxy and IndexNode, inode IDs
// at TafDB — an ID key avoids formatting allocations on the shard hot
// path). Safe for concurrent use. Counts are cumulative since creation
// (or the last Reset) unless a decay half-life is configured
// (NewTopKDecay), in which case counts are exponentially decayed at
// read time so keys that stop arriving fade out instead of pinning
// their peak forever — the property the hot-set demotion logic needs.
type TopK[K comparable] struct {
	k        int
	halfLife time.Duration // 0 = cumulative (no decay)
	mu       sync.RWMutex
	cells    []cell[K]   // tracked slots; cap k, allocated once, never moved
	idx      map[K]int32 // key -> its slot in cells
	lastFold time.Time   // last decay fold (guarded by mu in write mode)
}

// NewTopK creates a sketch tracking at most k keys (minimum 1).
func NewTopK[K comparable](k int) *TopK[K] {
	if k < 1 {
		k = 1
	}
	return &TopK[K]{k: k, cells: make([]cell[K], 0, k), idx: make(map[K]int32, k)}
}

// NewTopKDecay creates a sketch whose counts decay with the given
// half-life (the same lazy fold Rate uses): a key recorded at rate r
// converges to a steady count of ~r·halfLife/ln2, and a key that stops
// arriving halves every halfLife until it drops out of the sketch.
// Decay folds lazily on Snapshot/eviction, so the record fast path is
// unchanged. A non-positive halfLife disables decay.
func NewTopKDecay[K comparable](k int, halfLife time.Duration) *TopK[K] {
	t := NewTopK[K](k)
	if halfLife > 0 {
		t.halfLife = halfLife
		t.lastFold = time.Now()
	}
	return t
}

// Record counts one occurrence of key.
func (t *TopK[K]) Record(key K) { t.RecordN(key, 1) }

// RecordN counts n occurrences of key. Tracked keys pay a read-locked
// map probe and one atomic add; untracked keys take the write lock and
// either occupy a free slot or take over the minimum's slot, inheriting
// its count as their error bound (the space-saving rule).
func (t *TopK[K]) RecordN(key K, n int64) {
	if n <= 0 {
		return
	}
	t.mu.RLock()
	if i, ok := t.idx[key]; ok {
		t.cells[i].count.Add(n)
		t.mu.RUnlock()
		return
	}
	t.mu.RUnlock()

	t.mu.Lock()
	defer t.mu.Unlock()
	if i, ok := t.idx[key]; ok { // raced with another inserter
		t.cells[i].count.Add(n)
		return
	}
	// Fold decay before an eviction decision so the minimum reflects
	// current (decayed) heat, not a stale peak.
	if t.halfLife > 0 {
		t.foldLocked(time.Now())
	}
	slot, inherited := len(t.cells), int64(0)
	if slot < t.k {
		t.cells = t.cells[:slot+1]
	} else {
		// Take over the minimum-count slot; the newcomer inherits its
		// count as an overestimate bound.
		slot, inherited = 0, t.cells[0].count.Load()
		for i := 1; i < len(t.cells); i++ {
			if v := t.cells[i].count.Load(); v < inherited {
				slot, inherited = i, v
			}
		}
		delete(t.idx, t.cells[slot].key)
	}
	t.setSlot(slot, key, inherited+n, inherited)
}

// setSlot makes cells[slot] track key. Caller holds t.mu in write mode.
func (t *TopK[K]) setSlot(slot int, key K, count, err int64) {
	c := &t.cells[slot]
	c.key, c.err = key, err
	c.count.Store(count)
	t.idx[key] = int32(slot)
}

// Item is one reported heavy hitter. Count overestimates the key's true
// frequency by at most Err: the true count lies in [Count-Err, Count].
type Item[K comparable] struct {
	Key   K     `json:"key"`
	Count int64 `json:"count"`
	Err   int64 `json:"err"`
}

// Snapshot returns the tracked keys sorted by descending count, keys of
// equal count in slot order, so an unchanged sketch renders the same way
// on every scrape. On a decaying sketch it first folds the elapsed
// decay, so counts shrink — and fully-cooled keys disappear — even when
// nothing records.
func (t *TopK[K]) Snapshot() []Item[K] {
	return t.snapshotAt(time.Now())
}

// snapshotAt is Snapshot with an injectable clock (deterministic tests).
func (t *TopK[K]) snapshotAt(now time.Time) []Item[K] {
	if t.halfLife > 0 {
		t.mu.Lock()
		t.foldLocked(now)
		t.mu.Unlock()
	}
	t.mu.RLock()
	out := make([]Item[K], len(t.cells))
	for i := range t.cells {
		c := &t.cells[i]
		out[i] = Item[K]{Key: c.key, Count: c.count.Load(), Err: c.err}
	}
	t.mu.RUnlock()
	sort.SliceStable(out, func(i, j int) bool { return out[i].Count > out[j].Count })
	return out
}

// foldLocked applies the decay accumulated since the last fold:
// every count (and its error bound) is scaled by 2^(-dt/halfLife), and
// slots that decay below one event are swap-removed so the sketch frees
// them for current traffic. Caller holds t.mu in write mode on a
// decaying sketch (halfLife > 0). No-op inside the minFold window.
func (t *TopK[K]) foldLocked(now time.Time) {
	dt := now.Sub(t.lastFold)
	if dt < minFold {
		return
	}
	t.lastFold = now
	factor := math.Exp2(-dt.Seconds() / t.halfLife.Seconds())
	for i := 0; i < len(t.cells); {
		c := &t.cells[i]
		// Load+store is safe: writers that could race the fold hold the
		// read lock, which t.mu excludes here.
		if v := int64(float64(c.count.Load()) * factor); v >= 1 {
			c.count.Store(v)
			c.err = int64(float64(c.err) * factor)
			i++
			continue
		}
		delete(t.idx, c.key)
		last := len(t.cells) - 1
		if l := &t.cells[last]; i != last {
			t.setSlot(i, l.key, l.count.Load(), l.err)
		}
		var zero K
		t.cells[last].key = zero // a vacated slot must not pin a string key
		t.cells = t.cells[:last]
	}
}

// Len returns the number of tracked keys.
func (t *TopK[K]) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.cells)
}

// Reset clears the sketch.
func (t *TopK[K]) Reset() {
	t.mu.Lock()
	clear(t.cells)
	t.cells = t.cells[:0]
	clear(t.idx)
	t.mu.Unlock()
}

// Rate tracks an exponentially weighted moving average of an event
// rate. Add is one atomic increment; the EWMA folds lazily at read
// time, decaying with the configured half-life, so idle trackers cost
// nothing and hot paths never take the fold lock.
type Rate struct {
	halfLife time.Duration
	events   atomic.Int64 // events since the last fold
	total    atomic.Int64

	mu   sync.Mutex
	last time.Time
	ewma float64 // events per second
}

// minFold is the shortest window folded into the EWMA; reads inside it
// return the previous estimate instead of dividing by a tiny dt.
const minFold = 10 * time.Millisecond

// NewRate creates a tracker whose estimate decays with the given
// half-life (default 10s when non-positive).
func NewRate(halfLife time.Duration) *Rate {
	if halfLife <= 0 {
		halfLife = 10 * time.Second
	}
	return &Rate{halfLife: halfLife, last: time.Now()}
}

// Add records n events (one atomic add; n ≤ 0 records nothing).
func (r *Rate) Add(n int64) {
	if n <= 0 {
		return
	}
	r.events.Add(n)
	r.total.Add(n)
}

// Total returns the cumulative event count.
func (r *Rate) Total() int64 { return r.total.Load() }

// PerSecond returns the current EWMA rate in events per second.
func (r *Rate) PerSecond() float64 { return r.foldAt(time.Now()) }

// foldAt folds events accumulated since the last fold into the EWMA
// with weight 1-2^(-dt/halfLife) (split out for deterministic tests).
func (r *Rate) foldAt(now time.Time) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	dt := now.Sub(r.last)
	if dt < minFold {
		return r.ewma
	}
	inst := float64(r.events.Swap(0)) / dt.Seconds()
	w := 1 - math.Exp2(-dt.Seconds()/r.halfLife.Seconds())
	r.ewma += w * (inst - r.ewma)
	r.last = now
	return r.ewma
}
