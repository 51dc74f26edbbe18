package radix

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"mantle/internal/pathutil"
)

// indexed lists the paths in c's private index. Every test below reaches
// the Tree the way production does — through the Cache — and uses this
// only to check that the index and the hash table agree.
func indexed[V any](c *Cache[V]) []string {
	c.index.mu.Lock()
	defer c.index.mu.Unlock()
	var out []string
	collect(c.index.root, "/", &out)
	sort.Strings(out)
	return out
}

// cached lists c's keys as Range yields them.
func cached[V any](c *Cache[V]) []string {
	var out []string
	c.Range(func(p string, _ V) bool { out = append(out, p); return true })
	sort.Strings(out)
	return out
}

func fill(c *Cache[int], paths ...string) {
	for i, p := range paths {
		c.Fill(p, i, c.Epoch())
	}
}

func TestInsertContainsRemove(t *testing.T) {
	c := NewCache[int]()
	if _, ok := c.Get("/a"); ok {
		t.Fatal("empty cache holds /a")
	}
	fill(c, "/a/b/c", "/a/b/c") // the second fill overwrites, it does not add
	if v, ok := c.Get("/a/b/c"); !ok || v != 1 {
		t.Fatalf("Get after fill = (%d, %v)", v, ok)
	}
	// Interior nodes are not entries.
	for _, p := range []string{"/a/b", "/a"} {
		if _, ok := c.Get(p); ok {
			t.Fatalf("interior path %s reported as cached", p)
		}
	}
	if c.Len() != 1 || len(indexed(c)) != 1 {
		t.Fatalf("Len = %d, index %v", c.Len(), indexed(c))
	}
	if !c.Delete("/a/b/c") {
		t.Fatal("delete failed")
	}
	if c.Delete("/a/b/c") {
		t.Fatal("double delete succeeded")
	}
	if c.Len() != 0 || len(indexed(c)) != 0 {
		t.Fatalf("Len = %d, index %v after delete", c.Len(), indexed(c))
	}
}

// An exact Delete prunes only its own leaf: the sibling stays cached and,
// because the index still holds it, is still found by a later sweep.
func TestRemoveKeepsSiblings(t *testing.T) {
	c := NewCache[int]()
	fill(c, "/a/b", "/a/c")
	c.Delete("/a/b")
	if _, ok := c.Get("/a/c"); !ok {
		t.Fatal("sibling removed")
	}
	c.InvalidateSubtree("/a")
	if _, ok := c.Get("/a/c"); ok || c.Len() != 0 {
		t.Fatal("sibling lost from the index: the sweep missed it")
	}
}

func TestRemoveKeepsAncestorTerminal(t *testing.T) {
	c := NewCache[int]()
	fill(c, "/a", "/a/b")
	c.Delete("/a/b")
	if _, ok := c.Get("/a"); !ok {
		t.Fatal("ancestor entry lost")
	}
	if got := indexed(c); fmt.Sprint(got) != "[/a]" {
		t.Fatalf("index = %v, want [/a]", got)
	}
}

// The invalidation range of a directory is itself plus everything that
// has it as an ancestor — by component, not by string prefix.
func TestSubtree(t *testing.T) {
	c := NewCache[int]()
	fill(c, "/a", "/a/b", "/a/b/c", "/a/d", "/ab", "/x/y", "/x")
	c.InvalidateSubtree("/nope")
	if c.Len() != 7 {
		t.Fatalf("InvalidateSubtree(/nope) removed something: %v", cached(c))
	}
	c.InvalidateSubtree("/a")
	want := []string{"/ab", "/x", "/x/y"}
	if got := cached(c); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("after InvalidateSubtree(/a): %v, want %v", got, want)
	}
	if got := indexed(c); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("index after InvalidateSubtree(/a): %v, want %v", got, want)
	}
	c.InvalidateSubtree("/")
	if c.Len() != 0 || len(indexed(c)) != 0 {
		t.Fatalf("InvalidateSubtree(/) left %v", cached(c))
	}
}

func TestRemoveSubtree(t *testing.T) {
	tr := New()
	for _, p := range []string{"/a", "/a/b", "/a/b/c", "/a/d", "/x/y"} {
		tr.Insert(p)
	}
	removed := tr.RemoveSubtree("/a")
	if len(removed) != 4 {
		t.Fatalf("removed = %v", removed)
	}
	if again := tr.RemoveSubtree("/a"); again != nil {
		t.Fatalf("second sweep of /a = %v", again)
	}
	// Removing the root clears everything that was left.
	tr.Insert("/q")
	all := tr.RemoveSubtree("/")
	sort.Strings(all)
	if fmt.Sprint(all) != "[/q /x/y]" {
		t.Fatalf("RemoveSubtree(/) = %v", all)
	}
	if left := tr.RemoveSubtree("/"); left != nil {
		t.Fatalf("tree not empty after clearing: %v", left)
	}
}

// Range visits every entry once, and stops when told to.
func TestWalk(t *testing.T) {
	c := NewCache[int]()
	fill(c, "/a", "/b/c", "/d")
	if got := cached(c); fmt.Sprint(got) != fmt.Sprint([]string{"/a", "/b/c", "/d"}) {
		t.Fatalf("Range = %v", got)
	}
	n := 0
	c.Range(func(string, int) bool { n++; return false })
	if n != 1 {
		t.Fatalf("early stop visited %d", n)
	}
}

func TestQuickSubtreeMatchesIsAncestor(t *testing.T) {
	mk := func(bs []byte) string {
		comps := make([]string, 0, 4)
		for _, b := range bs {
			comps = append(comps, string(rune('a'+int(b)%3)))
			if len(comps) == 4 {
				break
			}
		}
		return pathutil.Join(comps...)
	}
	f := func(raw [][]byte, q []byte) bool {
		tr := New()
		set := map[string]bool{}
		for _, bs := range raw {
			p := mk(bs)
			if p == "/" {
				continue
			}
			tr.Insert(p)
			set[p] = true
		}
		dir := mk(q)
		got := tr.RemoveSubtree(dir)
		want := 0
		for p := range set {
			if pathutil.IsAncestor(dir, p, true) {
				want++
			}
		}
		if len(got) != want {
			return false
		}
		for _, p := range got {
			if !set[p] || !pathutil.IsAncestor(dir, p, true) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Goroutines fill, delete, read and sweep their own subtrees of one cache
// concurrently; at quiesce the hash table, Range and the index agree.
func TestConcurrentAccess(t *testing.T) {
	c := NewCache[int]()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 3000; i++ {
				p := fmt.Sprintf("/g%d/x%d", g, r.Intn(50))
				switch r.Intn(8) {
				case 0, 1, 2:
					c.Fill(p, i, c.Epoch())
				case 3, 4:
					c.Delete(p)
				case 5, 6:
					c.Get(p)
				case 7:
					c.InvalidateSubtree(fmt.Sprintf("/g%d", g))
				}
			}
		}(g)
	}
	wg.Wait()
	got, idx := cached(c), indexed(c)
	if len(got) != c.Len() || fmt.Sprint(got) != fmt.Sprint(idx) {
		t.Fatalf("Len %d, Range %d keys, index %d keys", c.Len(), len(got), len(idx))
	}
}

// TestRemoveSubtreeConcurrentInsert races RemoveSubtree("/a") against
// inserters filling paths under /a — the exact shape of a proxy-cache
// fill racing a subtree invalidation. Invariants: every insert/removal
// is atomic (a path is either fully present or fully absent — never a
// dangling interior), RemoveSubtree returns only inserted paths and
// never returns one path twice across concurrent sweeps, and at quiesce
// a final sweep leaves the subtree empty with Len consistent.
func TestRemoveSubtreeConcurrentInsert(t *testing.T) {
	tr := New()
	const (
		inserters = 4
		perGoro   = 2000
		fanout    = 25
	)
	var wg sync.WaitGroup
	inserted := make([]map[string]int, inserters) // path -> times inserted fresh
	for g := 0; g < inserters; g++ {
		inserted[g] = make(map[string]int)
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perGoro; i++ {
				p := fmt.Sprintf("/a/g%d/x%d/leaf", g, i%fanout)
				if tr.Insert(p) {
					inserted[g][p]++
				}
			}
		}(g)
	}
	removed := make(map[string]int)
	var stop sync.WaitGroup
	stopCh := make(chan struct{})
	stop.Add(1)
	go func() {
		defer stop.Done()
		for {
			for _, p := range tr.RemoveSubtree("/a") {
				removed[p]++
			}
			select {
			case <-stopCh:
				return
			default:
			}
		}
	}()
	wg.Wait()
	close(stopCh)
	stop.Wait()
	for _, p := range tr.RemoveSubtree("/a") {
		removed[p]++
	}

	// Every fresh insert must be matched by exactly that many removals,
	// and nothing was removed that was not inserted.
	for _, m := range inserted {
		for p, n := range m {
			if removed[p] != n {
				t.Fatalf("path %q inserted fresh %d times, removed %d times", p, n, removed[p])
			}
			delete(removed, p)
		}
	}
	for p, n := range removed {
		if n != 0 {
			t.Fatalf("path %q removed %d times but never recorded as inserted", p, n)
		}
	}
	if got := tr.RemoveSubtree("/"); len(got) != 0 {
		t.Fatalf("tree not empty after final sweep: %v", got)
	}
}
