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
