package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mantle/internal/indexnode"
	"mantle/internal/netsim"
	"mantle/internal/types"
)

// TestProxyCacheCleansPathsOnGet is the regression test for a
// path-cleaning asymmetry: fills and invalidations used cleaned paths but
// the probe did not, so an un-cleaned caller path ("//pc//a/" vs "/pc/a")
// missed the cache every time and paid the lookup RPC the cache had
// already absorbed. radix.Cache keys are cleaned paths and Mantle.lookup
// cleans once for probe, flight key and fill alike: a messy path must hit
// the entry filled by the canonical one (stat = 1 RPC, the TafDB read).
func TestProxyCacheCleansPathsOnGet(t *testing.T) {
	m := newTestMantle(t, func(c *Config) { c.ProxyCache = true })
	for _, p := range []string{"/pc", "/pc/a"} {
		if _, err := m.Mkdir(op(m), p); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.Create(op(m), "/pc/a/o", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := m.ObjStat(op(m), "/pc/a/o"); err != nil {
		t.Fatal(err)
	}
	for _, messy := range []string{"//pc//a/o", "/pc/a//o", "/pc/./a/o", "//pc/./a//o"} {
		r2, err := m.ObjStat(op(m), messy)
		if err != nil {
			t.Fatal(err)
		}
		if r2.RTTs != 1 {
			t.Fatalf("cached objstat %q RTTs = %d, want 1 (proxy cache missed)", messy, r2.RTTs)
		}
	}
}

// TestLookupMissStormCoalesces pins down the singleflight guarantee on
// the proxy miss path: with a cold proxy cache and a slow RPC, N
// concurrent lookups of one path issue one IndexNode RPC between them —
// the rest join the in-flight lookup, observe the identical result, and
// are counted by lookup_coalesced_rpc.
func TestLookupMissStormCoalesces(t *testing.T) {
	m := newTestMantle(t, func(c *Config) {
		c.ProxyCache = true
		// A visible RTT holds the leader's RPC open long enough that the
		// other racers are guaranteed to arrive while it is in flight.
		c.Fabric = netsim.NewFabric(netsim.Config{RTT: 2 * time.Millisecond})
	})
	for _, p := range []string{"/storm", "/storm/dir"} {
		if _, err := m.Mkdir(op(m), p); err != nil {
			t.Fatal(err)
		}
	}
	// Drop the fills the mkdirs left behind so every racer misses.
	m.pcache.InvalidateSubtree("/storm")

	const racers = 8
	start := make(chan struct{})
	var wg sync.WaitGroup
	results := make([]indexnode.LookupResult, racers)
	errs := make([]error, racers)
	for i := 0; i < racers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			results[i], errs[i] = m.lookup(op(m), "/storm/dir")
		}(i)
	}
	close(start)
	wg.Wait()
	for i := 0; i < racers; i++ {
		if errs[i] != nil {
			t.Fatalf("racer %d: %v", i, errs[i])
		}
		if results[i].ID != results[0].ID || results[i].Perm != results[0].Perm {
			t.Fatalf("racer %d diverged: %+v vs %+v", i, results[i], results[0])
		}
	}
	if got := m.coalescedRPC.Value(); got == 0 {
		t.Fatalf("lookup_coalesced_rpc = 0: %d concurrent misses should have shared one RPC", racers)
	}
}

// TestConcurrentInvalidationStress drives hot lookups and stats through
// both cache layers (proxy cache + TopDirPathCache) while writers churn
// the same namespace with DirRename and SetPerm — the workload the
// striped/epoch/singleflight design must keep linearizable. It asserts:
//
//   - a writer observes its own invalidation immediately (no stale
//     post-invalidation hit: the old path fails, the new path resolves),
//   - a writer's SetPerm is visible to its own next lookup,
//   - at quiesce, every surviving proxy-cache entry agrees with the
//     authoritative IndexNode resolution (model check via Range).
//
// Run with -race: the striped cache, singleflight groups, and shard
// RWMutex all get exercised concurrently here.
func TestConcurrentInvalidationStress(t *testing.T) {
	m := newTestMantle(t, func(c *Config) { c.ProxyCache = true })

	const (
		subdirs = 4
		objects = 3
	)
	for _, p := range []string{"/stress", "/stress/hot", "/stress/alt"} {
		if _, err := m.Mkdir(op(m), p); err != nil {
			t.Fatal(err)
		}
	}
	for d := 0; d < subdirs; d++ {
		dir := fmt.Sprintf("/stress/hot/d%d", d)
		if _, err := m.Mkdir(op(m), dir); err != nil {
			t.Fatal(err)
		}
		for o := 0; o < objects; o++ {
			if _, err := m.Create(op(m), fmt.Sprintf("%s/o%d", dir, o), 1); err != nil {
				t.Fatal(err)
			}
		}
	}

	renames := 30
	setperms := 60
	if testing.Short() {
		renames, setperms = 10, 20
	}

	var done atomic.Bool
	var wg, writers sync.WaitGroup
	fail := func(format string, args ...any) {
		t.Errorf(format, args...)
		done.Store(true)
	}

	// Readers: hammer lookups and stats on every directory. Transient
	// ErrNotFound (a rename in flight) and ErrPermission (a SetPerm in
	// flight) are expected; anything else is a failure.
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			i := r
			for !done.Load() {
				d := i % subdirs
				switch i % 3 {
				case 0:
					_, err := m.Lookup(op(m), fmt.Sprintf("/stress/hot/d%d", d))
					if err != nil && !errors.Is(err, types.ErrNotFound) && !errors.Is(err, types.ErrPermission) {
						fail("reader lookup: %v", err)
					}
				case 1:
					_, err := m.ObjStat(op(m), fmt.Sprintf("/stress/hot/d%d/o%d", d, i%objects))
					if err != nil && !errors.Is(err, types.ErrNotFound) && !errors.Is(err, types.ErrPermission) {
						fail("reader objstat: %v", err)
					}
				case 2:
					_, err := m.ObjStat(op(m), fmt.Sprintf("/stress/alt/d0/o%d", i%objects))
					if err != nil && !errors.Is(err, types.ErrNotFound) && !errors.Is(err, types.ErrPermission) {
						fail("reader alt objstat: %v", err)
					}
				}
				i++
			}
		}(r)
	}

	// Rename writer: bounce d0 between /stress/hot and /stress/alt.
	// After each rename, the writer itself must see the invalidation:
	// the old path must not resolve, the new one must.
	wg.Add(1)
	writers.Add(1)
	go func() {
		defer wg.Done()
		defer writers.Done()
		src, dst := "/stress/hot/d0", "/stress/alt/d0"
		for i := 0; i < renames && !done.Load(); i++ {
			if _, err := m.DirRename(op(m), src, dst); err != nil {
				fail("rename %s -> %s: %v", src, dst, err)
				return
			}
			if _, err := m.Lookup(op(m), src); !errors.Is(err, types.ErrNotFound) {
				fail("stale post-rename hit: lookup(%s) after rename to %s: err=%v", src, dst, err)
				return
			}
			if _, err := m.Lookup(op(m), dst); err != nil {
				fail("post-rename lookup(%s): %v", dst, err)
				return
			}
			src, dst = dst, src
		}
		// Leave d0 under /stress/hot for the quiesce audit.
		if src == "/stress/alt/d0" {
			if _, err := m.DirRename(op(m), src, "/stress/hot/d0"); err != nil {
				fail("restore rename: %v", err)
			}
		}
	}()

	// SetPerm writer: toggle d1's permission. Its own next lookup must
	// observe the permission it just set.
	wg.Add(1)
	writers.Add(1)
	go func() {
		defer wg.Done()
		defer writers.Done()
		const dir = "/stress/hot/d1"
		perms := []types.Perm{types.PermRead | types.PermLookup, types.PermAll}
		for i := 0; i < setperms && !done.Load(); i++ {
			want := perms[i%2]
			if _, err := m.SetPerm(op(m), dir, want); err != nil {
				fail("setperm(%s, %v): %v", dir, want, err)
				return
			}
			lres, err := m.lookup(op(m), dir)
			if err != nil {
				fail("post-setperm lookup(%s): %v", dir, err)
				return
			}
			if lres.Perm != want {
				fail("stale post-setperm hit: lookup(%s).Perm = %v, want %v", dir, lres.Perm, want)
				return
			}
		}
		// Restore full permission for the quiesce audit.
		if _, err := m.SetPerm(op(m), dir, types.PermAll); err != nil {
			fail("restore setperm: %v", err)
		}
	}()

	// Readers run until both writers finish their scripted churn.
	go func() {
		writers.Wait()
		done.Store(true)
	}()
	wg.Wait()
	if t.Failed() {
		return
	}

	// Quiesce model check: every entry left in the proxy cache must
	// agree with the authoritative IndexNode resolution of its path.
	audited := 0
	m.pcache.Range(func(path string, cached indexnode.LookupResult) bool {
		authoritative, err := m.idx.Lookup(op(m), path)
		if err != nil {
			t.Errorf("cached path %q no longer resolves: %v", path, err)
			return false
		}
		if cached.ID != authoritative.ID || cached.Perm != authoritative.Perm {
			t.Errorf("stale cache entry %q: cached (id=%d perm=%v), authoritative (id=%d perm=%v)",
				path, cached.ID, cached.Perm, authoritative.ID, authoritative.Perm)
			return false
		}
		audited++
		return true
	})
	t.Logf("audited %d surviving proxy-cache entries; coalesced RPCs: %d, coalesced walks: %d",
		audited, m.coalescedRPC.Value(), m.idx.CoalescedWalks())
}
