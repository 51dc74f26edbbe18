package btree

import (
	"math/rand"
	"testing"
)

// checkInvariants validates the structural B-tree invariants: key-count
// bounds per node, children = keys+1 for interior nodes, uniform leaf
// depth, and strictly ascending full traversal order.
func checkInvariants(t *testing.T, tr *Tree[int, int]) {
	t.Helper()
	if tr.root == nil {
		if tr.length != 0 {
			t.Fatalf("nil root but length %d", tr.length)
		}
		return
	}
	deg := tr.degree
	leafDepth := -1
	var walk func(n *node[int, int], depth int, isRoot bool)
	walk = func(n *node[int, int], depth int, isRoot bool) {
		if len(n.keys) != len(n.values) {
			t.Fatalf("keys/values mismatch: %d vs %d", len(n.keys), len(n.values))
		}
		if len(n.keys) > 2*deg-1 {
			t.Fatalf("node overfull: %d keys (max %d)", len(n.keys), 2*deg-1)
		}
		min := deg - 1
		if isRoot {
			min = 1
		}
		if len(n.keys) < min {
			t.Fatalf("node underfull at depth %d: %d keys (min %d)", depth, len(n.keys), min)
		}
		if n.children == nil {
			if leafDepth == -1 {
				leafDepth = depth
			} else if depth != leafDepth {
				t.Fatalf("leaf depth %d != %d", depth, leafDepth)
			}
			return
		}
		if len(n.children) != len(n.keys)+1 {
			t.Fatalf("interior node: %d children for %d keys", len(n.children), len(n.keys))
		}
		for _, c := range n.children {
			walk(c, depth+1, false)
		}
	}
	walk(tr.root, 0, true)

	prev, first, count := 0, true, 0
	tr.Ascend(func(k, v int) bool {
		if !first && k <= prev {
			t.Fatalf("traversal not strictly ascending: %d after %d", k, prev)
		}
		prev, first = k, false
		count++
		return true
	})
	if count != tr.length {
		t.Fatalf("traversal saw %d entries, Len says %d", count, tr.length)
	}
}

func TestBulkLoadSizes(t *testing.T) {
	for _, deg := range []int{2, 3, 16} {
		fill := 2*deg - 2
		sizes := []int{0, 1, 2, fill - 1, fill, fill + 1, fill + 2,
			fill*fill + fill, 1000, 5000}
		for _, n := range sizes {
			tr := NewWithDegree[int, int](deg, func(a, b int) bool { return a < b })
			tr.BulkLoad(n, func(i int) (int, int) { return i * 3, i * 30 })
			if tr.Len() != n {
				t.Fatalf("deg %d n %d: Len = %d", deg, n, tr.Len())
			}
			checkInvariants(t, tr)
			for i := 0; i < n; i++ {
				v, ok := tr.Get(i * 3)
				if !ok || v != i*30 {
					t.Fatalf("deg %d n %d: Get(%d) = %d,%v", deg, n, i*3, v, ok)
				}
			}
			if _, ok := tr.Get(1); ok && n > 0 {
				t.Fatalf("deg %d n %d: found absent key", deg, n)
			}
		}
	}
}

// TestBulkLoadThenMutate verifies the bulk-built tree behaves under
// subsequent random Put/Delete, against a map model.
func TestBulkLoadThenMutate(t *testing.T) {
	tr := NewWithDegree[int, int](3, func(a, b int) bool { return a < b })
	const n = 2000
	model := map[int]int{}
	tr.BulkLoad(n, func(i int) (int, int) { return i * 2, i })
	for i := 0; i < n; i++ {
		model[i*2] = i
	}
	r := rand.New(rand.NewSource(42))
	for step := 0; step < 10000; step++ {
		k := r.Intn(2 * n * 2)
		if r.Intn(2) == 0 {
			v := r.Intn(1 << 20)
			_, existed := model[k]
			if ins := tr.Put(k, v); ins == existed {
				t.Fatalf("step %d: Put(%d) insert=%v existed=%v", step, k, ins, existed)
			}
			model[k] = v
		} else {
			_, existed := model[k]
			if del := tr.Delete(k); del != existed {
				t.Fatalf("step %d: Delete(%d)=%v existed=%v", step, k, del, existed)
			}
			delete(model, k)
		}
		if tr.Len() != len(model) {
			t.Fatalf("step %d: Len=%d model=%d", step, tr.Len(), len(model))
		}
	}
	checkInvariants(t, tr)
	for k, v := range model {
		got, ok := tr.Get(k)
		if !ok || got != v {
			t.Fatalf("Get(%d) = %d,%v want %d", k, got, ok, v)
		}
	}
}

// TestBulkLoadOccupancy asserts the point of bulk loading: node count
// (and so structural overhead) is well below what ascending Put builds.
func TestBulkLoadOccupancy(t *testing.T) {
	count := func(tr *Tree[int, int]) int {
		n := 0
		var walk func(*node[int, int])
		walk = func(nd *node[int, int]) {
			n++
			for _, c := range nd.children {
				walk(c)
			}
		}
		if tr.root != nil {
			walk(tr.root)
		}
		return n
	}
	const n = 100000
	seq := New[int, int](func(a, b int) bool { return a < b })
	for i := 0; i < n; i++ {
		seq.Put(i, i)
	}
	bulk := New[int, int](func(a, b int) bool { return a < b })
	bulk.BulkLoad(n, func(i int) (int, int) { return i, i })
	checkInvariants(t, bulk)
	sn, bn := count(seq), count(bulk)
	// Sequential insert converges to ~50% occupancy, bulk load to ~97%:
	// expect roughly half the nodes, with slack for rounding.
	if bn*3 > sn*2 {
		t.Fatalf("bulk load used %d nodes vs %d sequential — occupancy win missing", bn, sn)
	}
}

func TestArenaRecycling(t *testing.T) {
	tr := NewWithDegree[int, int](3, func(a, b int) bool { return a < b })
	// Grow and shrink repeatedly; merges and root collapses must feed the
	// freelists and recycled nodes must behave identically.
	for round := 0; round < 5; round++ {
		for i := 0; i < 500; i++ {
			tr.Put(i, i+round)
		}
		checkInvariants(t, tr)
		for i := 0; i < 500; i++ {
			if !tr.Delete(i) {
				t.Fatalf("round %d: Delete(%d) failed", round, i)
			}
		}
		if tr.Len() != 0 {
			t.Fatalf("round %d: Len=%d after draining", round, tr.Len())
		}
	}
	if len(tr.arena.freeLeaf)+len(tr.arena.freeInt) == 0 {
		t.Fatal("no nodes were recycled through the freelist")
	}
}

func TestCursorFullScan(t *testing.T) {
	tr := intTree()
	perm := rand.New(rand.NewSource(3)).Perm(1000)
	for _, k := range perm {
		tr.Put(k, k*7)
	}
	var c Cursor[int, int]
	i := 0
	for c.SeekFirst(tr); c.Valid(); c.Next() {
		if c.Key() != i || c.Value() != i*7 {
			t.Fatalf("cursor at %d: key=%d value=%d", i, c.Key(), c.Value())
		}
		i++
	}
	if i != 1000 {
		t.Fatalf("cursor visited %d entries", i)
	}
}

func TestCursorSeek(t *testing.T) {
	tr := intTree()
	for i := 0; i < 200; i += 2 {
		tr.Put(i, i)
	}
	var c Cursor[int, int]
	// Seek to present, absent, before-first, and past-last keys.
	for _, tc := range []struct{ seek, want int }{
		{0, 0}, {50, 50}, {51, 52}, {-5, 0}, {197, 198},
	} {
		c.Seek(tr, tc.seek)
		if !c.Valid() || c.Key() != tc.want {
			t.Fatalf("Seek(%d): valid=%v key=%v want %d", tc.seek, c.Valid(), c.Key(), tc.want)
		}
	}
	c.Seek(tr, 199)
	if c.Valid() {
		t.Fatalf("Seek past end still valid at %d", c.Key())
	}
	// Bounded range walk matches AscendRange.
	var viaCursor, viaClosure []int
	for c.Seek(tr, 31); c.Valid() && tr.Less(c.Key(), 77); c.Next() {
		viaCursor = append(viaCursor, c.Key())
	}
	tr.AscendRange(31, 77, func(k, v int) bool { viaClosure = append(viaClosure, k); return true })
	if len(viaCursor) != len(viaClosure) {
		t.Fatalf("cursor %v vs closure %v", viaCursor, viaClosure)
	}
	for i := range viaCursor {
		if viaCursor[i] != viaClosure[i] {
			t.Fatalf("cursor %v vs closure %v", viaCursor, viaClosure)
		}
	}
}

func TestCursorOnBulkLoaded(t *testing.T) {
	tr := New[int, int](func(a, b int) bool { return a < b })
	tr.BulkLoad(10000, func(i int) (int, int) { return i, i })
	var c Cursor[int, int]
	n := 0
	for c.Seek(tr, 5000); c.Valid(); c.Next() {
		if c.Key() != 5000+n {
			t.Fatalf("at %d: key %d", n, c.Key())
		}
		n++
	}
	if n != 5000 {
		t.Fatalf("visited %d", n)
	}
	c.Reset()
	if c.Valid() {
		t.Fatal("reset cursor still valid")
	}
}
