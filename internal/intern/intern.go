// Package intern implements a concurrency-safe string interning table
// for path components and other short, heavily repeated names. A
// namespace of tens of millions of entries holds only a few thousand
// distinct component names (mdtest-style "f000017", per-level "d4"
// directories, application prefixes), yet the naive representation keeps
// one heap-allocated copy per row — across TafDB row keys, IndexNode's
// AccessEntry table, and the proxy/TopDir cache keys. Interning collapses
// those copies to one shared backing string, which is a first-order term
// in resident bytes/entry at the Figure-19a scale sweep's sizes.
//
// Ownership rules (see DESIGN.md §10):
//
//   - The table is append-only: an interned string is immortal for the
//     process lifetime. Callers therefore intern only *bounded
//     vocabularies* — component names, not whole paths with unbounded
//     cardinality, and never names above MaxLen or the "\x00"-prefixed
//     internal row names (whose timestamp suffixes are unique by
//     construction).
//   - Interned strings are plain Go strings; callers may retain them
//     forever and compare them with == like any other string.
//   - Intern never blocks writers behind readers on the hot path: the
//     table is sharded 64 ways and hits take only a shard read-lock.
package intern

import (
	"sync"
	"sync/atomic"
)

// MaxLen is the longest string worth interning. Longer names are almost
// certainly unique (UUIDs, content hashes); interning them would grow
// the append-only table without any sharing in return. Intern returns
// such strings unchanged.
const MaxLen = 64

const shards = 64

// Table is a sharded intern table. The zero value is not usable; create
// tables with NewTable. Most callers use the package-level Intern on the
// shared Default table.
type Table struct {
	shards [shards]shard

	hits   atomic.Int64
	misses atomic.Int64
	bytes  atomic.Int64 // backing bytes held by distinct interned strings
}

type shard struct {
	mu sync.RWMutex
	m  map[string]string
}

// NewTable creates an empty intern table.
func NewTable() *Table {
	t := &Table{}
	for i := range t.shards {
		t.shards[i].m = make(map[string]string)
	}
	return t
}

// Hash is 64-bit FNV-1a, the shard selector here and the stripe selector
// of radix.Cache.
func Hash(s string) uint64 {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// Intern returns the canonical shared copy of s, inserting it on first
// sight. Strings longer than MaxLen and the empty string are returned
// unchanged without touching the table.
func (t *Table) Intern(s string) string {
	if len(s) == 0 || len(s) > MaxLen {
		return s
	}
	sh := &t.shards[Hash(s)%shards]
	sh.mu.RLock()
	c, ok := sh.m[s]
	sh.mu.RUnlock()
	if ok {
		t.hits.Add(1)
		return c
	}
	sh.mu.Lock()
	if c, ok = sh.m[s]; !ok {
		// Re-allocate the key so the canonical copy never pins a larger
		// string the argument may be a substring of.
		c = string(append([]byte(nil), s...))
		sh.m[c] = c
		t.bytes.Add(int64(len(c)))
		t.misses.Add(1)
	} else {
		t.hits.Add(1)
	}
	sh.mu.Unlock()
	return c
}

// Len returns the number of distinct interned strings.
func (t *Table) Len() int {
	n := 0
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.RLock()
		n += len(sh.m)
		sh.mu.RUnlock()
	}
	return n
}

// Stats is a snapshot of the table's accounting.
type Stats struct {
	Strings int   // distinct interned strings
	Bytes   int64 // backing bytes held by them
	Hits    int64 // Intern calls answered with an existing copy
	Misses  int64 // Intern calls that inserted
}

// Stats snapshots the table.
func (t *Table) Stats() Stats {
	return Stats{
		Strings: t.Len(),
		Bytes:   t.bytes.Load(),
		Hits:    t.hits.Load(),
		Misses:  t.misses.Load(),
	}
}

// Default is the process-wide table shared by the metadata stores. One
// table (not one per shard or replica) maximises cross-component
// sharing: a TafDB row key and its IndexNode AccessEntry name resolve to
// the same backing bytes.
var Default = NewTable()

// Intern interns s in the Default table.
func Intern(s string) string { return Default.Intern(s) }
