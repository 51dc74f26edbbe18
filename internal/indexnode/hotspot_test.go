package indexnode

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mantle/internal/rpc"
	"mantle/internal/types"
)

// newHotspotGroup builds a follower-read group with the hotspot tier on
// and a fast promotion loop / low threshold so tests see promotions in
// milliseconds.
func newHotspotGroup(t *testing.T, mutate func(*Config)) (*Group, *rpc.Caller) {
	t.Helper()
	return newTestGroup(t, func(c *Config) {
		c.FollowerRead = true
		c.Learners = 1
		c.Hotspot = true
		c.HotPromoteInterval = 10 * time.Millisecond
		c.HotThreshold = 20
		c.Raft.HeartbeatInterval = 10 * time.Millisecond
		if mutate != nil {
			mutate(c)
		}
	})
}

func TestHotspotPromotionAndDemotion(t *testing.T) {
	g, caller := newHotspotGroup(t, nil)
	if err := g.AddDir(caller.Begin(), types.RootID, "hot", 2, types.PermAll, ""); err != nil {
		t.Fatal(err)
	}
	if err := g.AddDir(caller.Begin(), types.RootID, "cold", 3, types.PermAll, ""); err != nil {
		t.Fatal(err)
	}
	// Hammer /hot well past the threshold; the promotion loop must pick
	// it up within a few intervals.
	deadline := time.Now().Add(3 * time.Second)
	for !g.isHot("/hot") {
		if _, err := g.Lookup(caller.Begin(), "/hot"); err != nil {
			t.Fatal(err)
		}
		if time.Now().After(deadline) {
			t.Fatalf("/hot never promoted; hotspot = %+v", g.Hotspot())
		}
	}
	if g.isHot("/cold") {
		t.Fatalf("/cold promoted without traffic")
	}
	// Hot reads now serve at the bounded-stale point and still observe
	// every settled write.
	const hotLookups = 200
	before := g.hotReads.Load()
	l0, f0, n0 := g.ReadMix()
	for i := 0; i < hotLookups; i++ {
		res, err := g.Lookup(caller.Begin(), "/hot")
		if err != nil || res.ID != 2 {
			t.Fatalf("hot lookup = %+v err=%v", res, err)
		}
	}
	if got := g.hotReads.Load() - before; got == 0 {
		t.Fatalf("no lookups took the hot path (stats %+v)", g.Hotspot())
	}
	// A promoted directory's reads leave the leader: only stale-point
	// fallbacks may still land there. Uniform routing over this group
	// would give the leader 0.25; the hotspot tier measured 0.037.
	l1, f1, n1 := g.ReadMix()
	if total := (l1 - l0) + (f1 - f0) + (n1 - n0); total != hotLookups {
		t.Fatalf("read mix counted %d of %d hot-dir reads", total, hotLookups)
	}
	if share := float64(l1-l0) / hotLookups; share >= 0.2 {
		t.Fatalf("leader served %.3f of hot-dir reads, want < 0.2 (stats %+v)", share, g.Hotspot())
	}

	// Silence: the decaying sketch must cool /hot below the demotion
	// threshold and the hot-set must shrink (the PR's TopK decay fix).
	deadline = time.Now().Add(5 * time.Second)
	for g.isHot("/hot") {
		if time.Now().After(deadline) {
			t.Fatalf("/hot never demoted after going silent; hotspot = %+v", g.Hotspot())
		}
		time.Sleep(10 * time.Millisecond)
	}
	if g.demotions.Load() == 0 {
		t.Fatalf("demotion counter not bumped: %+v", g.Hotspot())
	}
}

// The read-mix invariant under the new router: with lookups racing
// writes, promotions, and demotions, every successful lookup is
// classified exactly once — leader + follower + learner counters sum to
// the number of successful reads. Run under -race in CI.
func TestHotspotReadMixAccounting(t *testing.T) {
	g, caller := newHotspotGroup(t, nil)
	const dirs = 4
	for i := 0; i < dirs; i++ {
		if err := g.AddDir(caller.Begin(), types.RootID, fmt.Sprintf("d%d", i),
			types.InodeID(10+i), types.PermAll, ""); err != nil {
			t.Fatal(err)
		}
	}
	var ok atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 400; i++ {
				// Skewed: most traffic on /d0 so it promotes and demotes
				// (the writer's churn plus decay) while /d1../d3 stay cold.
				d := 0
				if i%8 == 7 {
					d = (w + i) % dirs
				}
				_, err := g.Lookup(caller.Begin(), fmt.Sprintf("/d%d", d))
				if err == nil {
					ok.Add(1)
				} else if !errors.Is(err, types.ErrNotFound) {
					t.Errorf("lookup: %v", err)
					return
				}
			}
		}(w)
	}
	// Concurrent writes keep proposals (and cache invalidations) racing
	// the hot path.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			if err := g.AddDir(caller.Begin(), 10, fmt.Sprintf("c%d", i),
				types.InodeID(100+i), types.PermAll, "/d0"); err != nil {
				t.Errorf("mkdir: %v", err)
				return
			}
		}
	}()
	wg.Wait()

	// On a slow or single-CPU host the workers can drain before the
	// 10ms promotion tick ever fires, leaving the hot path untaken.
	// Keep the skewed traffic flowing (still counted in ok, so the
	// read-mix invariant below covers these lookups too) until the
	// promotion loop catches up.
	deadline := time.Now().Add(5 * time.Second)
	for g.hotReads.Load() == 0 && time.Now().Before(deadline) {
		if _, err := g.Lookup(caller.Begin(), "/d0"); err == nil {
			ok.Add(1)
		}
		time.Sleep(time.Millisecond)
	}

	leader, follower, learner := g.ReadMix()
	if got, want := leader+follower+learner, ok.Load(); got != want {
		t.Fatalf("read mix %d+%d+%d = %d, want %d successful reads",
			leader, follower, learner, got, want)
	}
	if g.hotReads.Load() == 0 {
		t.Fatalf("hot path never taken under skew: %+v", g.Hotspot())
	}
}

// A hot read after an acknowledged write sees the write: the hot path is
// a follower's or learner's ConsistentRead inside its read grant, and
// the leader commits nothing a grant holder has not acked. There is no
// wait between the write and the reads.
func TestHotspotReadAfterWrite(t *testing.T) {
	g, caller := newHotspotGroup(t, func(c *Config) {
		c.HotPromoteInterval = time.Hour // the hot set is set by hand below
	})
	if err := g.AddDir(caller.Begin(), types.RootID, "hot", 2, types.PermAll, ""); err != nil {
		t.Fatal(err)
	}
	const gens = 20
	lookups := int64(gens * len(g.rafts))
	for i := 0; i < gens; i++ {
		id := types.InodeID(100 + i)
		path := fmt.Sprintf("/hot/gen%d", i)
		if err := g.AddDir(caller.Begin(), 2, path[len("/hot/"):], id, types.PermAll, "/hot"); err != nil {
			t.Fatal(err)
		}
		g.hotSet.Store(&hotSet{paths: map[string]struct{}{path: {}}})
		for j := 0; j < len(g.rafts); j++ { // the hot reads rotate over every non-leader
			res, err := g.Lookup(caller.Begin(), path)
			if err != nil || res.ID != id {
				t.Fatalf("%s: read after the acknowledged write: %+v err=%v (stats %+v)", path, res, err, g.Hotspot())
			}
		}
	}
	if h := g.Hotspot(); h.HotReads != lookups || h.Fallbacks != 0 {
		t.Fatalf("%d hot reads and %d fallbacks, want %d and 0", h.HotReads, h.Fallbacks, lookups)
	}
}

// Backpressure: once every replica's load hint exceeds the shed
// threshold, lookups fail fast with a typed ErrOverloaded carrying a
// retry-after hint.
func TestHotspotShedsWhenSaturated(t *testing.T) {
	g, caller := newHotspotGroup(t, func(c *Config) {
		c.ShedThreshold = time.Nanosecond // any backlog sheds
	})
	if err := g.AddDir(caller.Begin(), types.RootID, "d", 2, types.PermAll, ""); err != nil {
		t.Fatal(err)
	}
	// Force every replica's hint above the threshold (the hints are
	// sampled EWMAs; poke them directly — saturating simulated CPUs in a
	// unit test is slow and flaky).
	for i := range g.loadHints {
		g.loadHints[i].Store(int64(time.Millisecond))
	}
	_, err := g.Lookup(caller.Begin(), "/d")
	if !errors.Is(err, types.ErrOverloaded) {
		t.Fatalf("saturated lookup err = %v, want ErrOverloaded", err)
	}
	if ra := types.RetryAfter(err); ra != time.Millisecond {
		t.Fatalf("retry-after = %v, want 1ms (min replica hint)", ra)
	}
	if g.sheds.Load() != 1 {
		t.Fatalf("sheds = %d, want 1", g.sheds.Load())
	}
	// Capacity frees up → requests flow again.
	for i := range g.loadHints {
		g.loadHints[i].Store(0)
	}
	if _, err := g.Lookup(caller.Begin(), "/d"); err != nil {
		t.Fatalf("post-recovery lookup: %v", err)
	}
}
