package indexnode

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"mantle/internal/faults"
	"mantle/internal/netsim"
	"mantle/internal/raft"
	"mantle/internal/rpc"
	"mantle/internal/types"
)

func newTestGroup(t *testing.T, mutate func(*Config)) (*Group, *rpc.Caller) {
	t.Helper()
	cfg := Config{Voters: 3, K: 1, CacheEnabled: true}
	if mutate != nil {
		mutate(&cfg)
	}
	g, err := NewGroup(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Stop)
	// The raft invariant hook, before the group stops.
	chk := raft.NewChecker(g.Rafts())
	t.Cleanup(func() {
		if err := chk.Check(); err != nil {
			t.Error(err)
		}
	})
	return g, rpc.NewCaller(netsim.NewLocalFabric())
}

// TestZeroConfigGroupDefaults pins what a zero Config deploys: the
// paper's three voters and k=3, and indexnode's own raft template
// (callers such as mantle.New rely on these rather than repeat them).
func TestZeroConfigGroupDefaults(t *testing.T) {
	g, err := NewGroup(Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Stop)
	if len(g.rafts) != 3 || g.cfg.K != 3 {
		t.Errorf("replicas = %d, k = %d; want 3, 3", len(g.rafts), g.cfg.K)
	}
	rc := g.cfg.Raft
	if rc.ElectionTimeout != time.Second || rc.HeartbeatInterval != 50*time.Millisecond || rc.SnapshotThreshold != 8192 {
		t.Errorf("raft template = %v election, %v heartbeat, %d snapshot threshold; want 1s, 50ms, 8192",
			rc.ElectionTimeout, rc.HeartbeatInterval, rc.SnapshotThreshold)
	}
	if off := (Config{Raft: raft.Config{SnapshotThreshold: -1}}).withDefaults(); off.Raft.SnapshotThreshold != 0 {
		t.Errorf("negative snapshot threshold = %d after defaulting, want 0 (off)", off.Raft.SnapshotThreshold)
	}
}

func TestGroupMkdirLookup(t *testing.T) {
	g, caller := newTestGroup(t, nil)
	op := caller.Begin()
	if err := g.AddDir(op, types.RootID, "a", 2, types.PermAll, ""); err != nil {
		t.Fatal(err)
	}
	if err := g.AddDir(caller.Begin(), 2, "b", 3, types.PermAll, ""); err != nil {
		t.Fatal(err)
	}
	lop := caller.Begin()
	res, err := g.Lookup(lop, "/a/b")
	if err != nil {
		t.Fatal(err)
	}
	if res.ID != 3 {
		t.Fatalf("res = %+v", res)
	}
	if lop.RTTs() != 1 {
		t.Fatalf("lookup RTTs = %d, want 1 (single-RPC lookup)", lop.RTTs())
	}
}

func TestGroupLookupMissing(t *testing.T) {
	g, caller := newTestGroup(t, nil)
	if _, err := g.Lookup(caller.Begin(), "/nope"); !errors.Is(err, types.ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
}

func TestGroupFollowerReadsSeeWrites(t *testing.T) {
	g, caller := newTestGroup(t, func(c *Config) {
		c.FollowerRead = true
		c.Learners = 1
	})
	// Writes then many round-robin lookups: every replica must serve a
	// consistent view.
	for i := 0; i < 5; i++ {
		if err := g.AddDir(caller.Begin(), types.RootID, fmt.Sprintf("d%d", i),
			types.InodeID(10+i), types.PermAll, ""); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 20; i++ {
		res, err := g.Lookup(caller.Begin(), fmt.Sprintf("/d%d", i%5))
		if err != nil {
			t.Fatal(err)
		}
		if res.ID != types.InodeID(10+i%5) {
			t.Fatalf("lookup %d = %+v", i, res)
		}
	}
}

// Under the paper's FollowerRead deployment a lookup that follows a
// mkdir costs one ReadIndex trip on whichever replica serves it, not a
// wait for the next heartbeat to tell that replica the mkdir committed.
func TestGroupFollowerReadAfterWrite(t *testing.T) {
	g, caller := newTestGroup(t, func(c *Config) {
		c.FollowerRead = true
		c.Learners = 1
		c.Raft.ElectionTimeout = 10 * time.Second
		c.Raft.HeartbeatInterval = time.Second
	})
	replicas := len(g.Replicas())
	for round := 0; round < 4; round++ {
		name := fmt.Sprintf("d%d", round)
		id := types.InodeID(10 + round)
		if err := g.AddDir(caller.Begin(), types.RootID, name, id, types.PermAll, ""); err != nil {
			t.Fatal(err)
		}
		// Round-robin routing: one lookup per voter and learner.
		for i := 0; i < replicas; i++ {
			start := time.Now()
			res, err := g.Lookup(caller.Begin(), "/"+name)
			d := time.Since(start)
			if err != nil || res.ID != id {
				t.Fatalf("round %d lookup %d = %+v, %v", round, i, res, err)
			}
			// Round 0 introduces the leader to its followers (the first
			// AppendEntries) and is not timed.
			if round > 0 && d > 10*time.Millisecond {
				t.Fatalf("round %d lookup %d after mkdir took %v with a %v heartbeat",
					round, i, d, g.cfg.Raft.HeartbeatInterval)
			}
		}
	}
	if leader, follower, learner := g.ReadMix(); leader == 0 || follower == 0 || learner == 0 {
		t.Fatalf("read mix leader=%d follower=%d learner=%d: some replica kind served nothing", leader, follower, learner)
	}
}

func TestGroupRenameFlow(t *testing.T) {
	g, caller := newTestGroup(t, nil)
	// Build /a/b and /x via Raft.
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(g.AddDir(caller.Begin(), types.RootID, "a", 2, types.PermAll, ""))
	must(g.AddDir(caller.Begin(), 2, "b", 3, types.PermAll, ""))
	must(g.AddDir(caller.Begin(), types.RootID, "x", 5, types.PermAll, ""))

	op := caller.Begin()
	prep, err := g.PrepareRename(op, "/a/b", "/x", "b2", "u1")
	must(err)
	if prep.SrcID != 3 || prep.DstPid != 5 {
		t.Fatalf("prep = %+v", prep)
	}
	must(g.CommitRename(op, prep, "b2", "/a/b", "u1"))
	res, err := g.Lookup(caller.Begin(), "/x/b2")
	must(err)
	if res.ID != 3 {
		t.Fatalf("post-rename = %+v", res)
	}
	if _, err := g.Lookup(caller.Begin(), "/a/b"); !errors.Is(err, types.ErrNotFound) {
		t.Fatalf("old path: %v", err)
	}
	// Loop rename rejected end to end.
	if _, err := g.PrepareRename(caller.Begin(), "/x", "/x/b2", "x2", "u2"); !errors.Is(err, types.ErrLoop) {
		t.Fatalf("loop: %v", err)
	}
}

func TestGroupAbortRename(t *testing.T) {
	g, caller := newTestGroup(t, nil)
	if err := g.AddDir(caller.Begin(), types.RootID, "a", 2, types.PermAll, ""); err != nil {
		t.Fatal(err)
	}
	if err := g.AddDir(caller.Begin(), types.RootID, "x", 5, types.PermAll, ""); err != nil {
		t.Fatal(err)
	}
	op := caller.Begin()
	prep, err := g.PrepareRename(op, "/a", "/x", "a2", "u1")
	if err != nil {
		t.Fatal(err)
	}
	if err := g.AbortRename(op, prep, "/a", "u1"); err != nil {
		t.Fatal(err)
	}
	// Source stays where it was and is rename-able again.
	if _, err := g.Lookup(caller.Begin(), "/a"); err != nil {
		t.Fatal(err)
	}
	if _, err := g.PrepareRename(caller.Begin(), "/a", "/x", "a3", "u2"); err != nil {
		t.Fatalf("after abort: %v", err)
	}
}

// TestGroupAbortRenameReachesPreparingReplica: the rename lock and the
// RemovalList registration live on the replica that ran PrepareRename. If
// it is deposed before the abort, the abort must still land there — sent
// to the new leader it would clear nothing, and the old one would keep
// the lock for good.
func TestGroupAbortRenameReachesPreparingReplica(t *testing.T) {
	fabric := netsim.NewLocalFabric()
	inj := faults.New(17)
	inj.Attach(fabric)
	g, caller := newTestGroup(t, func(c *Config) {
		c.Fabric = fabric
		c.Raft.ElectionTimeout = 50 * time.Millisecond
		c.Raft.HeartbeatInterval = 10 * time.Millisecond
	})
	if err := g.AddDir(caller.Begin(), types.RootID, "a", 2, types.PermAll, ""); err != nil {
		t.Fatal(err)
	}
	if err := g.AddDir(caller.Begin(), types.RootID, "x", 5, types.PermAll, ""); err != nil {
		t.Fatal(err)
	}
	prep, err := g.PrepareRename(caller.Begin(), "/a", "/x", "a2", "u1")
	if err != nil {
		t.Fatal(err)
	}
	old := g.replicas[prep.Replica]
	if g.Leader() != old || !old.IsLocked(prep.SrcID, "other") {
		t.Fatalf("prep.Replica = %d is not the leader holding the lock", prep.Replica)
	}

	// Cut the preparing leader off until the other two elect a successor.
	members := g.MemberIDs()
	var rest []string
	for i, id := range members {
		if i != prep.Replica {
			rest = append(rest, id)
		}
	}
	inj.Partition([]string{members[prep.Replica]}, rest)
	deadline := time.Now().Add(5 * time.Second)
	for li := g.leaderIndex(); li < 0 || li == prep.Replica; li = g.leaderIndex() {
		if time.Now().After(deadline) {
			t.Fatalf("no successor elected (injector seed %d)", inj.Seed())
		}
		time.Sleep(5 * time.Millisecond)
	}
	inj.HealAll()

	if err := g.AbortRename(caller.Begin(), prep, "/a", "u1"); err != nil {
		t.Fatal(err)
	}
	if old.IsLocked(prep.SrcID, "other") {
		t.Fatal("deposed leader still holds the rename lock after the abort")
	}
	if n := old.Invalidator().RemovalLen(); n != 0 {
		t.Fatalf("deposed leader's RemovalList len = %d after the abort", n)
	}
}

func TestGroupConcurrentMkdirs(t *testing.T) {
	g, caller := newTestGroup(t, func(c *Config) { c.Raft.BatchEnabled = true })
	const goroutines, each = 8, 25
	var wg sync.WaitGroup
	var idSeq atomic64
	idSeq.v.Store(100)
	for gi := 0; gi < goroutines; gi++ {
		wg.Add(1)
		go func(gi int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				id := types.InodeID(idSeq.v.Add(1))
				name := fmt.Sprintf("d-%d-%d", gi, i)
				if err := g.AddDir(caller.Begin(), types.RootID, name, id, types.PermAll, ""); err != nil {
					t.Errorf("mkdir %s: %v", name, err)
					return
				}
			}
		}(gi)
	}
	wg.Wait()
	// Every replica converges to the same table size.
	deadline := time.Now().Add(3 * time.Second)
	for _, rep := range g.Replicas() {
		for rep.Table().Len() < goroutines*each && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if n := rep.Table().Len(); n != goroutines*each {
			t.Fatalf("replica table len = %d, want %d", n, goroutines*each)
		}
	}
}

func TestGroupFollowerCacheInvalidation(t *testing.T) {
	// Fill follower caches via follower reads, then rename; follower
	// lookups must observe the rename (no stale cache).
	g, caller := newTestGroup(t, func(c *Config) { c.FollowerRead = true })
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(g.AddDir(caller.Begin(), types.RootID, "a", 2, types.PermAll, ""))
	must(g.AddDir(caller.Begin(), 2, "b", 3, types.PermAll, ""))
	must(g.AddDir(caller.Begin(), 3, "c", 4, types.PermAll, ""))
	must(g.AddDir(caller.Begin(), types.RootID, "x", 5, types.PermAll, ""))
	// Warm every replica's cache (round robin hits all).
	for i := 0; i < 12; i++ {
		if _, err := g.Lookup(caller.Begin(), "/a/b/c"); err != nil {
			t.Fatal(err)
		}
	}
	op := caller.Begin()
	prep, err := g.PrepareRename(op, "/a/b", "/x", "b2", "u1")
	must(err)
	must(g.CommitRename(op, prep, "b2", "/a/b", "u1"))
	// Every subsequent lookup (any replica) must see the new truth.
	for i := 0; i < 12; i++ {
		if _, err := g.Lookup(caller.Begin(), "/a/b/c"); !errors.Is(err, types.ErrNotFound) {
			t.Fatalf("stale lookup %d: %v", i, err)
		}
		res, err := g.Lookup(caller.Begin(), "/x/b2/c")
		if err != nil || res.ID != 4 {
			t.Fatalf("new path lookup %d: %+v err=%v", i, res, err)
		}
	}
}

// atomic64 avoids importing sync/atomic at top level twice in tests.
type atomic64 struct{ v atomicU64 }

type atomicU64 struct {
	mu sync.Mutex
	n  uint64
}

func (a *atomicU64) Add(d uint64) uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.n += d
	return a.n
}

func (a *atomicU64) Store(n uint64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.n = n
}

// TestGroupReadWriteRaceStress hammers lookups (follower reads included)
// concurrently with renames and mkdirs, then verifies the final state on
// every replica: no lookup may error unexpectedly mid-flight, and the
// tables converge.
func TestGroupReadWriteRaceStress(t *testing.T) {
	g, caller := newTestGroup(t, func(c *Config) {
		c.FollowerRead = true
		c.Learners = 1
		c.Raft.BatchEnabled = true
	})
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	// /stress/d<i>/leaf chains.
	must(g.AddDir(caller.Begin(), types.RootID, "stress", 2, types.PermAll, ""))
	const dirs = 16
	for i := 0; i < dirs; i++ {
		must(g.AddDir(caller.Begin(), 2, fmt.Sprintf("d%d", i), types.InodeID(10+i), types.PermAll, ""))
		must(g.AddDir(caller.Begin(), types.InodeID(10+i), "leaf", types.InodeID(100+i), types.PermAll, ""))
	}

	var wg sync.WaitGroup
	// Readers: resolve leaves concurrently with the writer; tolerate
	// only NotFound (a rename may have moved the dir under a new name).
	// Bounded iterations with a periodic yield so six readers cannot
	// starve the writer on a small host.
	for r := 0; r < 6; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < 1500; i++ {
				d := (r + i) % dirs
				_, err := g.Lookup(caller.Begin(), fmt.Sprintf("/stress/d%d/leaf", d))
				if err != nil && !errors.Is(err, types.ErrNotFound) {
					t.Errorf("lookup: %v", err)
					return
				}
				if i%64 == 0 {
					time.Sleep(time.Millisecond)
				}
			}
		}(r)
	}
	// Writer: ping-pong rename one subtree and mkdir churn.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 60; i++ {
			src, dst := "/stress/d0", "e0"
			if i%2 == 1 {
				src, dst = "/stress/e0", "d0"
			}
			uuid := fmt.Sprintf("stress-%d", i)
			prep, err := g.PrepareRename(caller.Begin(), src, "/stress", dst, uuid)
			if err != nil {
				t.Errorf("prep: %v", err)
				return
			}
			if err := g.CommitRename(caller.Begin(), prep, dst, src, uuid); err != nil {
				t.Errorf("commit: %v", err)
				return
			}
			if err := g.AddDir(caller.Begin(), 2, fmt.Sprintf("n%d", i), types.InodeID(1000+i), types.PermAll, ""); err != nil {
				t.Errorf("mkdir: %v", err)
				return
			}
		}
	}()
	wg.Wait()

	// Converged: all replicas agree on the final table size and resolve
	// the final name of the ping-ponged subtree.
	final := "/stress/d0/leaf" // 60 renames = even = back at d0
	for i, rep := range g.Replicas() {
		deadline := time.Now().Add(3 * time.Second)
		want := g.Replicas()[0].Table().Len()
		for rep.Table().Len() != want && time.Now().Before(deadline) {
			time.Sleep(2 * time.Millisecond)
		}
		if rep.Table().Len() != want {
			t.Fatalf("replica %d table len %d != %d", i, rep.Table().Len(), want)
		}
	}
	res, err := g.Lookup(caller.Begin(), final)
	if err != nil || res.ID != 100 {
		t.Fatalf("final lookup = %+v err=%v", res, err)
	}
}

// TestGroupLookupFailureContract pins what a lookup promises when replicas
// fail. With every replica blackholed, it keeps retrying for the whole
// RetryWindow and then fails with ErrUnavailable, naming the path — from
// the leader alone, under FollowerRead, and for a hot-set path, whose one
// non-leader attempt falls through to the same loop. With one
// follower stopped under FollowerRead, every lookup is served by the
// rest and the stopped replica is never sent an RPC.
func TestGroupLookupFailureContract(t *testing.T) {
	const window = 150 * time.Millisecond
	const slack = time.Second // scheduler stalls under -race on a loaded host
	for _, tc := range []struct {
		name                 string
		followerRead, hotset bool
	}{{"leader", false, false}, {"followerRead", true, false}, {"hot", true, true}} {
		t.Run("all blackholed/"+tc.name, func(t *testing.T) {
			fabric := netsim.NewLocalFabric()
			inj := faults.New(34)
			inj.Attach(fabric)
			g, _ := newTestGroup(t, func(c *Config) {
				c.Fabric = fabric
				c.FollowerRead = tc.followerRead
				c.Hotspot = tc.hotset
				c.HotPromoteInterval = time.Hour // the hot-set is set by hand below
				c.RetryWindow = window
			})
			caller := rpc.NewCaller(fabric)
			if err := g.AddDir(caller.Begin(), types.RootID, "a", 2, types.PermAll, ""); err != nil {
				t.Fatal(err)
			}
			if tc.hotset {
				g.hotSet.Store(&hotSet{paths: map[string]struct{}{"/a": {}}})
			}
			for _, id := range g.MemberIDs() {
				inj.Blackhole(id)
			}
			start := time.Now()
			_, err := g.Lookup(caller.Begin(), "/a")
			elapsed := time.Since(start)
			if !errors.Is(err, types.ErrUnavailable) || !strings.Contains(err.Error(), "/a") {
				t.Fatalf("lookup with every replica blackholed: %v, want ErrUnavailable naming /a (injector seed %d)", err, inj.Seed())
			}
			if elapsed < window || elapsed > window+slack {
				t.Fatalf("lookup failed after %v, want within [%v, %v] (injector seed %d)", elapsed, window, window+slack, inj.Seed())
			}
			var want int64 // one non-leader attempt per hot lookup
			if tc.hotset {
				want = 1
			}
			if n := g.hotFalls.Load(); n != want {
				t.Fatalf("hot fallbacks = %d, want %d", n, want)
			}
		})
	}
	t.Run("stopped follower", func(t *testing.T) {
		g, caller := newTestGroup(t, func(c *Config) { c.FollowerRead = true })
		if err := g.AddDir(caller.Begin(), types.RootID, "a", 2, types.PermAll, ""); err != nil {
			t.Fatal(err)
		}
		stopped := (g.leaderIndex() + 1) % len(g.rafts)
		g.rafts[stopped].Stop()
		before := g.nodes[stopped].Ops()
		for i := 0; i < 64; i++ {
			if res, err := g.Lookup(caller.Begin(), "/a"); err != nil || res.ID != 2 {
				t.Fatalf("lookup %d with a follower stopped: %+v, %v", i, res, err)
			}
		}
		if after := g.nodes[stopped].Ops(); after != before {
			t.Fatalf("stopped replica ran %d requests during the lookups, want 0", after-before)
		}
	})
}

// TestGroupTiedHintsRotateReads: with Workers 0 every load hint is 0, so
// the power-of-two router sees ties on every pick and must still spread
// reads over every eligible replica — the hot set's bounded-stale reads
// over both followers, and pickReadTarget's reads over every voter and
// learner.
func TestGroupTiedHintsRotateReads(t *testing.T) {
	for _, tc := range []struct {
		name     string
		learners int
		hotset   bool
	}{{"hot set, 3 voters", 0, true}, {"read target, 3 voters + 1 learner", 1, false}} {
		t.Run(tc.name, func(t *testing.T) {
			g, caller := newTestGroup(t, func(c *Config) {
				c.Learners = tc.learners
				c.FollowerRead = true
				c.Hotspot = true
				c.HotPromoteInterval = time.Hour // the hot set is set by hand below
			})
			if err := g.AddDir(caller.Begin(), types.RootID, "a", 2, types.PermAll, ""); err != nil {
				t.Fatal(err)
			}
			li := g.leaderIndex()
			if tc.hotset {
				// A bounded-stale read serves a follower's own state: wait
				// until both have applied /a.
				commit := g.rafts[li].CommitIndex()
				deadline := time.Now().Add(5 * time.Second)
				for _, rf := range g.rafts {
					for rf.AppliedIndex() < commit {
						if time.Now().After(deadline) {
							t.Fatalf("replica applied %d of %d entries", rf.AppliedIndex(), commit)
						}
						time.Sleep(time.Millisecond)
					}
				}
				g.hotSet.Store(&hotSet{paths: map[string]struct{}{"/a": {}}})
			}
			before := make([]int64, len(g.nodes))
			for i, n := range g.nodes {
				before[i] = n.Ops()
			}
			for i := 0; i < 64; i++ {
				if res, err := g.Lookup(caller.Begin(), "/a"); err != nil || res.ID != 2 {
					t.Fatalf("lookup %d: %+v, %v", i, res, err)
				}
			}
			for i, n := range g.nodes {
				if tc.hotset && i == li {
					continue // hot-set reads go to non-leaders only
				}
				if n.Ops() == before[i] {
					t.Errorf("replica %d (leader %d) served none of 64 tied-hint reads", i, li)
				}
			}
		})
	}
}
