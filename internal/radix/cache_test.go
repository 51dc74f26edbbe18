package radix

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"mantle/internal/pathutil"
)

func TestCacheStatsAndMemory(t *testing.T) {
	c := NewCache[[2]uint64]()
	c.Fill("/a/b", [2]uint64{1}, c.Epoch())
	c.Fill("/", [2]uint64{9}, c.Epoch()) // the root is never cached
	if c.Len() != 1 {
		t.Fatalf("Len = %d", c.Len())
	}
	if _, ok := c.Get("/a/b"); !ok {
		t.Fatal("miss on present key")
	}
	if _, ok := c.Get("/zz"); ok {
		t.Fatal("hit on absent key")
	}
	h, m := c.Stats()
	if h != 1 || m != 1 {
		t.Fatalf("stats = %d, %d", h, m)
	}
	// Key bytes + the 16-byte value + map overhead: the Figure 18 column.
	if got := c.MemoryBytes(); got != 4+16+32 {
		t.Fatalf("MemoryBytes = %d, want 52", got)
	}
	if !c.Delete("/a/b") || c.Delete("/a/b") {
		t.Fatal("delete semantics")
	}
}

// TestCacheMatchesModel drives seeded random traffic against a plain map.
// Every mutation but Fill moves the epoch, and a Fill carries either the
// current epoch or one captured some steps ago — a lookup that raced a
// modification — which must be dropped. The universe holds the
// sibling-prefix traps: /a/b vs /a/bb vs /ab.
func TestCacheMatchesModel(t *testing.T) {
	universe := []string{"/", "/a", "/a/b", "/a/b/c", "/a/bb", "/a/b/c/d", "/x", "/x/y", "/x/y/z", "/ab"}
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := NewCache[int]()
		model := map[string]int{}
		captured := c.Epoch()
		for step := 0; step < 400; step++ {
			p := universe[rng.Intn(len(universe))]
			switch op := rng.Intn(8); op {
			case 0, 1, 2:
				c.Fill(p, step, c.Epoch())
				if p != "/" {
					model[p] = step
				}
			case 3:
				stale := captured != c.Epoch()
				c.Fill(p, -step, captured)
				if !stale && p != "/" {
					model[p] = -step
				}
			case 4:
				captured = c.Epoch()
			case 5:
				c.Bump()
			case 6:
				_, had := model[p]
				if got := c.Delete(p); got != had {
					t.Fatalf("seed %d step %d: Delete(%s) = %v, model had it: %v", seed, step, p, got, had)
				}
				delete(model, p)
			case 7:
				c.InvalidateSubtree(p)
				for q := range model {
					if pathutil.IsAncestor(p, q, true) {
						delete(model, q)
					}
				}
			}
			for _, q := range universe {
				got, ok := c.Get(q)
				want, wok := model[q]
				if ok != wok || got != want {
					t.Fatalf("seed %d step %d: Get(%s) = (%d, %v), model (%d, %v)", seed, step, q, got, ok, want, wok)
				}
			}
			if c.Len() != len(model) || len(indexed(c)) != len(model) {
				t.Fatalf("seed %d step %d: Len = %d, index %d, model %d", seed, step, c.Len(), len(indexed(c)), len(model))
			}
		}
		seen := 0
		c.Range(func(p string, v int) bool {
			if model[p] != v {
				t.Fatalf("seed %d: Range yields %s = %d, model %d", seed, p, v, model[p])
			}
			seen++
			return true
		})
		if seen != len(model) {
			t.Fatalf("seed %d: Range visited %d of %d", seed, seen, len(model))
		}
	}
}

// TestCacheFillRacesInvalidation: fills whose epoch was captured before an
// InvalidateSubtree began race its sweep. Once both have returned nothing
// they filled may remain — whichever side of the sweep each insert
// landed — and the index holds exactly the map's keys. A sibling that
// merely shares a name prefix, filled earlier, is never touched.
func TestCacheFillRacesInvalidation(t *testing.T) {
	c := NewCache[int]()
	c.Fill("/ab/keep", -1, c.Epoch())
	for round := 0; round < 300; round++ {
		epoch0 := c.Epoch()
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < 64; i++ {
					c.Fill(fmt.Sprintf("/a/g%d/x%d", g, i), round, epoch0)
				}
			}(g)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.InvalidateSubtree("/a")
		}()
		wg.Wait()
		if c.Len() != 1 || len(indexed(c)) != 1 {
			c.Range(func(p string, v int) bool {
				t.Errorf("round %d: %s = %d survived", round, p, v)
				return true
			})
			t.Fatalf("round %d: Len = %d, index %d, want the one sibling", round, c.Len(), len(indexed(c)))
		}
	}
	if v, ok := c.Get("/ab/keep"); !ok || v != -1 {
		t.Fatalf("sibling /ab/keep = (%d, %v)", v, ok)
	}
}

func TestCacheGetDoesNotAllocate(t *testing.T) {
	c := NewCache[int]()
	c.Fill("/a/b/c", 7, c.Epoch())
	if n := testing.AllocsPerRun(1000, func() {
		if v, ok := c.Get("/a/b/c"); !ok || v != 7 {
			t.Fatal("miss")
		}
	}); n != 0 {
		t.Fatalf("Get allocates %.1f times per hit", n)
	}
}
