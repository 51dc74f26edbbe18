package infinifs

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"mantle/internal/api"
	"mantle/internal/baselines/dbtable"
	"mantle/internal/conformance"
	"mantle/internal/pathutil"
	"mantle/internal/types"
)

func TestConformance(t *testing.T) {
	conformance.Run(t, conformance.Caps{LoopDetection: true}, func(t *testing.T) api.Service {
		return New(Config{Store: dbtable.Config{Shards: 4}})
	})
}

func TestConformanceWithAMCache(t *testing.T) {
	conformance.Run(t, conformance.Caps{LoopDetection: true}, func(t *testing.T) api.Service {
		return New(Config{Store: dbtable.Config{Shards: 4}, AMCache: true})
	})
}

func TestParallelLookupRPCCount(t *testing.T) {
	s := New(Config{Store: dbtable.Config{Shards: 4}})
	defer s.Stop()
	if err := conformance.MkdirAll(s, "/a/b/c/d/e"); err != nil {
		t.Fatal(err)
	}
	op := s.Caller().Begin()
	if _, err := s.Lookup(op, "/a/b/c/d/e"); err != nil {
		t.Fatal(err)
	}
	// Parallel resolution issues the same number of RPCs as sequential
	// (the paper's point: it does not reduce RPC count, only overlaps
	// latency).
	if op.RTTs() != 5 {
		t.Fatalf("lookup RTTs = %d, want 5", op.RTTs())
	}
}

func TestAMCacheHitSkipsRPCs(t *testing.T) {
	s := New(Config{Store: dbtable.Config{Shards: 4}, AMCache: true})
	defer s.Stop()
	if err := conformance.MkdirAll(s, "/a/b/c"); err != nil {
		t.Fatal(err)
	}
	op1 := s.Caller().Begin()
	if _, err := s.Lookup(op1, "/a/b/c"); err != nil {
		t.Fatal(err)
	}
	op2 := s.Caller().Begin()
	if _, err := s.Lookup(op2, "/a/b/c"); err != nil {
		t.Fatal(err)
	}
	if op2.RTTs() != 0 {
		t.Fatalf("cached lookup RTTs = %d, want 0", op2.RTTs())
	}
	// Rename invalidates the cached subtree.
	if err := conformance.MkdirAll(s, "/dst"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.DirRename(s.Caller().Begin(), "/a/b", "/dst/b2"); err != nil {
		t.Fatal(err)
	}
	op3 := s.Caller().Begin()
	if _, err := s.Lookup(op3, "/dst/b2/c"); err != nil {
		t.Fatal(err)
	}
	if op3.RTTs() == 0 {
		t.Fatal("lookup served stale cache after rename")
	}
}

// TestAMCacheFillRacingRenameIsDropped replays resolve's miss path by hand
// with a rename landing between the resolution and the fill. The fill
// carries the epoch captured before resolving, so the cache must drop it;
// an unguarded put at the same point would serve /a/b from the cache
// forever, since the rename's sweep has already been and gone.
func TestAMCacheFillRacingRenameIsDropped(t *testing.T) {
	s := New(Config{Store: dbtable.Config{Shards: 4}, AMCache: true})
	defer s.Stop()
	if err := conformance.MkdirAll(s, "/a/b"); err != nil {
		t.Fatal(err)
	}
	epoch0 := s.amCache.Epoch()
	e, perm, err := s.Store.ResolvePathParallel(s.Caller().Begin(), "/a/b")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.DirRename(s.Caller().Begin(), "/a", "/c"); err != nil {
		t.Fatal(err)
	}
	s.amCache.Fill("/a/b", resolved{e, perm}, epoch0)

	if _, err := s.Lookup(s.Caller().Begin(), "/a/b"); !errors.Is(err, types.ErrNotFound) {
		t.Fatalf("lookup of the renamed-away /a/b: %v, want ErrNotFound", err)
	}
	s.amCache.Range(func(p string, _ resolved) bool {
		if pathutil.IsAncestor("/a", p, true) {
			t.Errorf("AM-Cache still holds %s after /a was renamed", p)
		}
		return true
	})
}

// TestAMCacheConcurrentRenameAudit races resolvers against a writer that
// renames directories back and forth under them. The writer must see its
// own rename at once (old path gone, new path there), and at quiesce every
// entry left in the AM-Cache must agree with an uncached resolution. Run
// with -race.
func TestAMCacheConcurrentRenameAudit(t *testing.T) {
	s := New(Config{Store: dbtable.Config{Shards: 4}, AMCache: true})
	defer s.Stop()
	const dirs = 4
	for d := 0; d < dirs; d++ {
		if err := conformance.MkdirAll(s, fmt.Sprintf("/r/hot/d%d/leaf", d)); err != nil {
			t.Fatal(err)
		}
	}
	if err := conformance.MkdirAll(s, "/r/alt"); err != nil {
		t.Fatal(err)
	}
	var done atomic.Bool
	var readers sync.WaitGroup
	for g := 0; g < 4; g++ {
		readers.Add(1)
		go func(g int) {
			defer readers.Done()
			for i := 0; !done.Load(); i++ {
				for _, side := range []string{"hot", "alt"} {
					p := fmt.Sprintf("/r/%s/d%d/leaf", side, (g+i)%dirs)
					if _, err := s.Lookup(s.Caller().Begin(), p); err != nil && !errors.Is(err, types.ErrNotFound) {
						t.Errorf("lookup %s: %v", p, err)
						return
					}
				}
			}
		}(g)
	}
	for i := 0; i < 24 && !t.Failed(); i++ {
		src, dst := fmt.Sprintf("/r/hot/d%d", i%dirs), fmt.Sprintf("/r/alt/d%d", i%dirs)
		if (i/dirs)%2 == 1 {
			src, dst = dst, src
		}
		if _, err := s.DirRename(s.Caller().Begin(), src, dst); err != nil {
			t.Errorf("rename %s -> %s: %v", src, dst, err)
			break
		}
		if _, err := s.Lookup(s.Caller().Begin(), src+"/leaf"); !errors.Is(err, types.ErrNotFound) {
			t.Errorf("stale hit after rename: lookup %s/leaf: %v", src, err)
		}
		if _, err := s.Lookup(s.Caller().Begin(), dst+"/leaf"); err != nil {
			t.Errorf("lookup %s/leaf after rename: %v", dst, err)
		}
	}
	done.Store(true)
	readers.Wait()

	audited := 0
	s.amCache.Range(func(p string, cached resolved) bool {
		e, perm, err := s.Store.ResolvePathParallel(s.Caller().Begin(), p)
		if err != nil || e.ID != cached.e.ID || perm != cached.perm {
			t.Errorf("stale AM-Cache entry %s: cached id=%d perm=%v, authoritative id=%d perm=%v err=%v",
				p, cached.e.ID, cached.perm, e.ID, perm, err)
		}
		audited++
		return true
	})
	t.Logf("audited %d surviving AM-Cache entries", audited)
}
