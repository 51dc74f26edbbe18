package indexnode

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"mantle/internal/pathutil"
	"mantle/internal/radix"
)

// modelBlocked is the RemovalList's specification: a path is blocked iff
// some registered path is it or one of its ancestors.
func modelBlocked(model map[string]int, path string) bool {
	for p := range model {
		if pathutil.IsAncestor(p, path, true) {
			return true
		}
	}
	return false
}

// TestInvalidatorMatchesModel drives seeded random registration traffic
// against a plain refcount map. Invalidate releases asynchronously, so
// each step waits for the listed-path count to meet the model's (the
// invalidator's counts only ever trail the model from above, so equal
// sizes mean equal sets) before comparing Blocked over the whole universe.
func TestInvalidatorMatchesModel(t *testing.T) {
	universe := []string{"/", "/a", "/a/b", "/a/b/c", "/a/bb", "/a/b/c/d", "/x", "/x/y", "/x/y/z", "/ab"}
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		inv := NewInvalidator(radix.NewCache[CacheEntry]())
		model := map[string]int{}
		release := func(p string) {
			if model[p] > 0 {
				if model[p]--; model[p] == 0 {
					delete(model, p)
				}
			}
		}
		for step := 0; step < 400; step++ {
			p := universe[1+rng.Intn(len(universe)-1)]
			switch rng.Intn(4) {
			case 0, 1:
				if fresh := inv.BeginModification(p); fresh != (model[p] == 0) {
					t.Fatalf("seed %d step %d: BeginModification(%s) fresh = %v with model count %d", seed, step, p, fresh, model[p])
				}
				model[p]++
			case 2:
				inv.AbortModification(p) // of an unlisted path: a no-op
				release(p)
			case 3:
				// Invalidate completes a registration; one with nothing to
				// complete would strip whichever Begin came next.
				if model[p] == 0 {
					continue
				}
				inv.Invalidate(p)
				release(p)
			}
			deadline := time.Now().Add(5 * time.Second)
			for inv.RemovalLen() != len(model) {
				if time.Now().After(deadline) {
					t.Fatalf("seed %d step %d: RemovalLen = %d, model has %d paths", seed, step, inv.RemovalLen(), len(model))
				}
				time.Sleep(50 * time.Microsecond)
			}
			for _, q := range universe {
				if got, want := inv.Blocked(q), modelBlocked(model, q); got != want {
					t.Fatalf("seed %d step %d: Blocked(%s) = %v, model says %v (%v)", seed, step, q, got, want, model)
				}
			}
		}
		for p, n := range model {
			for ; n > 0; n-- {
				inv.Invalidate(p)
			}
		}
		inv.WaitIdle()
		if inv.RemovalLen() != 0 || inv.Blocked("/a/b/c/d") {
			t.Fatalf("seed %d: RemovalList not empty after releasing everything: %d", seed, inv.RemovalLen())
		}
		inv.Stop()
	}
}

// TestInvalidatorBlockedDuringChurn reads the RemovalList while writers
// replace it: a path registered throughout must read blocked in every
// snapshot, a never-registered one must not, and under -race a snapshot
// mutated after publication is a reported data race.
func TestInvalidatorBlockedDuringChurn(t *testing.T) {
	inv := NewInvalidator(radix.NewCache[CacheEntry]())
	defer inv.Stop()
	inv.BeginModification("/pin")
	stop := make(chan struct{})
	var readers, writers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if !inv.Blocked("/pin/child") {
					t.Error("pinned subtree read unblocked during churn")
					return
				}
				if inv.Blocked("/free/child") {
					t.Error("never-registered subtree read blocked")
					return
				}
				inv.Blocked("/churn/1/x")
			}
		}()
	}
	for w := 0; w < 3; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			paths := []string{"/churn/0", "/churn/1", "/churn/2"}
			for i := 0; i < 2000; i++ {
				p := paths[(i+w)%len(paths)]
				inv.BeginModification(p)
				if i%2 == 0 {
					inv.AbortModification(p)
				} else {
					inv.Invalidate(p)
				}
			}
		}(w)
	}
	writers.Wait()
	close(stop)
	readers.Wait()
	inv.AbortModification("/pin")
	inv.WaitIdle()
	if n := inv.RemovalLen(); n != 0 {
		t.Fatalf("RemovalList holds %d paths after every registration was released", n)
	}
}

// TestStrayAbortKeepsRegistration: an abort for a request that never held
// this replica's lock (leadership moved between its prepare and its
// abort, and another request has prepared the same source here since)
// must leave the holder's lock and RemovalList registration alone.
func TestStrayAbortKeepsRegistration(t *testing.T) {
	r := newTestReplica(t, 1)
	prep, err := r.PrepareRename("/a/b", "/x", "b2", "holder")
	if err != nil {
		t.Fatal(err)
	}
	r.AbortRename(prep.SrcID, "/a/b", "stranger")
	if n := r.Invalidator().RemovalLen(); n != 1 {
		t.Fatalf("RemovalList len = %d after a stranger's abort, want 1", n)
	}
	if !r.Invalidator().Blocked("/a/b/c") {
		t.Fatal("holder's subtree no longer shielded from caching")
	}
	if !r.IsLocked(prep.SrcID, "stranger") {
		t.Fatal("holder's lock released by a stranger's abort")
	}
}
