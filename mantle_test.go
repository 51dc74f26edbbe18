package mantle

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

func newCluster(t *testing.T, cfg Config) *Cluster {
	t.Helper()
	cl, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Stop)
	return cl
}

func TestPublicAPILifecycle(t *testing.T) {
	cl := newCluster(t, Config{})
	c := cl.Client()
	if err := c.MkdirAll("/data/train/batch-0"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Create("/data/train/batch-0/sample", 4096); err != nil {
		t.Fatal(err)
	}
	st, err := c.Stat("/data/train/batch-0/sample")
	if err != nil {
		t.Fatal(err)
	}
	if st.IsDir || st.Size != 4096 {
		t.Fatalf("stat = %+v", st)
	}
	ds, err := c.StatDir("/data/train/batch-0")
	if err != nil {
		t.Fatal(err)
	}
	if !ds.IsDir || ds.Entries != 1 {
		t.Fatalf("dirstat = %+v", ds)
	}
	kids, err := c.List("/data/train/batch-0")
	if err != nil || len(kids) != 1 || kids[0].Path != "/data/train/batch-0/sample" {
		t.Fatalf("list = %+v err=%v", kids, err)
	}
	if err := c.Rename("/data/train/batch-0", "/data/train/done-0"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Stat("/data/train/done-0/sample"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Stat("/data/train/batch-0/sample"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("old path: %v", err)
	}
	if err := c.Delete("/data/train/done-0/sample"); err != nil {
		t.Fatal(err)
	}
	if err := c.Rmdir("/data/train/done-0"); err != nil {
		t.Fatal(err)
	}
}

func TestPublicAPIErrors(t *testing.T) {
	cl := newCluster(t, Config{})
	c := cl.Client()
	if _, err := c.Stat("/missing/x"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("stat missing: %v", err)
	}
	if err := c.MkdirAll("/a/b"); err != nil {
		t.Fatal(err)
	}
	if err := c.Mkdir("/a/b"); !errors.Is(err, ErrExists) {
		t.Fatalf("dup mkdir: %v", err)
	}
	if _, err := c.Create("/a/b/o", 1); err != nil {
		t.Fatal(err)
	}
	if err := c.Rmdir("/a/b"); !errors.Is(err, ErrNotEmpty) {
		t.Fatalf("rmdir non-empty: %v", err)
	}
	if err := c.Rename("/a", "/a/b/under"); !errors.Is(err, ErrLoop) {
		t.Fatalf("loop: %v", err)
	}
	if _, err := New(Config{DeltaRecords: "bogus"}); err == nil {
		t.Fatal("bogus delta mode accepted")
	}
	// Reachable from `mantled -learners -3`.
	if _, err := New(Config{Learners: -3}); err == nil {
		t.Fatal("negative learner count accepted")
	}
}

// TestConfigOptionsObserved turns on each documented Config option that
// nothing else in the repository sets and observes its effect through
// New, and pins the defaults the internal layers (not coreConfig) supply.
func TestConfigOptionsObserved(t *testing.T) {
	must := func(t *testing.T, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	// renameStorm moves eight directories between parents concurrently
	// and returns how many cross-shard transactions the batching 2PC
	// coordinator saw.
	renameStorm := func(t *testing.T, cl *Cluster) int64 {
		c := cl.Client()
		for i := 0; i < 8; i++ {
			must(t, c.MkdirAll(fmt.Sprintf("/src%d/d", i)))
			must(t, c.Mkdir(fmt.Sprintf("/dst%d", i)))
		}
		var wg sync.WaitGroup
		for i := 0; i < 8; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				if err := c.Rename(fmt.Sprintf("/src%d/d", i), fmt.Sprintf("/dst%d/d", i)); err != nil {
					t.Error(err)
				}
			}(i)
		}
		wg.Wait()
		txns, _, _ := cl.Core().DB().Batch2PCStats()
		return txns
	}
	// secondStatRTTs stats one object twice and returns the round trips
	// of the repeat.
	secondStatRTTs := func(t *testing.T, cl *Cluster) int {
		c := cl.Client()
		must(t, c.MkdirAll("/d"))
		_, err := c.Create("/d/obj", 1)
		must(t, err)
		_, _, err = c.StatWithStats("/d/obj")
		must(t, err)
		_, st, err := c.StatWithStats("/d/obj")
		must(t, err)
		return st.RTTs
	}
	// cachedPrefixes looks up four depth-5 directories that share their
	// top three levels and returns how many prefixes that added to
	// TopDirPathCache: k=3 truncates all four to /r/s, k=1 to four
	// distinct parents.
	cachedPrefixes := func(t *testing.T, cl *Cluster) int {
		c := cl.Client()
		for i := 0; i < 4; i++ {
			must(t, c.MkdirAll(fmt.Sprintf("/r/s/t/a%d/leaf", i)))
		}
		before, _, _, _ := cl.Core().Index().CacheStats()
		for i := 0; i < 4; i++ {
			_, err := c.Lookup(fmt.Sprintf("/r/s/t/a%d/leaf", i))
			must(t, err)
		}
		after, _, _, _ := cl.Core().Index().CacheStats()
		return after - before
	}
	for _, tc := range []struct {
		name  string
		cfg   Config
		check func(t *testing.T, cl *Cluster)
	}{
		{"defaults", Config{}, func(t *testing.T, cl *Cluster) {
			if n := cl.Core().DB().Shards(); n != 4 {
				t.Errorf("shards = %d, want 4", n)
			}
			if n := len(cl.Core().Index().Rafts()); n != 1 {
				t.Errorf("replicas = %d, want 1", n)
			}
			if n := cachedPrefixes(t, cl); n != 1 {
				t.Errorf("cached prefixes = %d, want 1 (k=3)", n)
			}
			if n := secondStatRTTs(t, cl); n != 2 {
				t.Errorf("repeated stat = %d RPCs, want 2", n)
			}
			if n := renameStorm(t, cl); n == 0 {
				t.Error("no cross-shard transaction went through the batching coordinator")
			}
		}},
		{"DisableWriteBatch", Config{DisableWriteBatch: true}, func(t *testing.T, cl *Cluster) {
			if n := renameStorm(t, cl); n != 0 {
				t.Errorf("batching coordinator saw %d transactions, want 0", n)
			}
		}},
		{"ProxyCache", Config{ProxyCache: true}, func(t *testing.T, cl *Cluster) {
			if n := secondStatRTTs(t, cl); n != 1 {
				t.Errorf("repeated stat = %d RPCs, want 1", n)
			}
		}},
		{"K=1", Config{K: 1}, func(t *testing.T, cl *Cluster) {
			if n := cachedPrefixes(t, cl); n != 4 {
				t.Errorf("cached prefixes = %d, want 4", n)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) { tc.check(t, newCluster(t, tc.cfg)) })
	}
}

func TestSingleRPCLookupVisibleInStats(t *testing.T) {
	cl := newCluster(t, Config{})
	c := cl.Client()
	if err := c.MkdirAll("/a/b/c/d/e/f/g/h/i/j"); err != nil {
		t.Fatal(err)
	}
	st, err := c.Lookup("/a/b/c/d/e/f/g/h/i/j")
	if err != nil {
		t.Fatal(err)
	}
	if st.RTTs != 1 {
		t.Fatalf("depth-10 lookup used %d RTTs, want 1", st.RTTs)
	}
}

// TestRTTChargedPerTrip checks that Config.RTT reaches the fabric of
// every deployment shape: each round trip of an op costs at least RTT,
// on a single-site cluster and on a DR primary alike.
func TestRTTChargedPerTrip(t *testing.T) {
	const rtt = 2 * time.Millisecond
	dr, err := NewDR(Config{RTT: rtt}, DRConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(dr.Stop)
	for name, cl := range map[string]*Cluster{
		"New":   newCluster(t, Config{RTT: rtt}),
		"NewDR": dr.Primary(),
	} {
		c := cl.Client()
		if _, err := c.Create("/obj", 1); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		start := time.Now()
		_, st, err := c.StatWithStats("/obj")
		elapsed := time.Since(start)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if st.RTTs < 1 || elapsed < time.Duration(st.RTTs)*rtt {
			t.Errorf("%s: stat took %v over %d trips, want >= %v per trip", name, elapsed, st.RTTs, rtt)
		}
	}
}

func TestConcurrentClients(t *testing.T) {
	cl := newCluster(t, Config{Replicas: 3, FollowerRead: true, Learners: 1})
	c := cl.Client()
	if err := c.MkdirAll("/shared"); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			cc := cl.Client()
			for i := 0; i < 20; i++ {
				p := fmt.Sprintf("/shared/o-%d-%d", g, i)
				if _, err := cc.Create(p, 10); err != nil {
					t.Errorf("create %s: %v", p, err)
					return
				}
				if _, err := cc.Stat(p); err != nil {
					t.Errorf("stat %s: %v", p, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	ds, err := c.StatDir("/shared")
	if err != nil || ds.Entries != 160 {
		t.Fatalf("dirstat = %+v err=%v", ds, err)
	}
}

func TestListPagePagination(t *testing.T) {
	cl := newCluster(t, Config{})
	c := cl.Client()
	if err := c.MkdirAll("/pg"); err != nil {
		t.Fatal(err)
	}
	const total = 25
	for i := 0; i < total; i++ {
		if _, err := c.Create(fmt.Sprintf("/pg/obj-%03d", i), 1); err != nil {
			t.Fatal(err)
		}
	}
	var got []string
	after := ""
	pages := 0
	for {
		page, next, err := c.ListPage("/pg", after, 10)
		if err != nil {
			t.Fatal(err)
		}
		pages++
		for _, inf := range page {
			got = append(got, inf.Path)
		}
		if next == "" {
			break
		}
		after = next
		if pages > 10 {
			t.Fatal("pagination did not terminate")
		}
	}
	if len(got) != total {
		t.Fatalf("paged listing returned %d entries", len(got))
	}
	if pages != 3 {
		t.Fatalf("pages = %d, want 3", pages)
	}
	// Names are in order and unique.
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Fatalf("page ordering broken at %d: %s <= %s", i, got[i], got[i-1])
		}
	}
	// Resuming from a mid-page token works.
	page, _, err := c.ListPage("/pg", "obj-020", 100)
	if err != nil || len(page) != 4 {
		t.Fatalf("resume page = %d err=%v", len(page), err)
	}
}
