package core_test

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mantle/internal/api"
	"mantle/internal/core"
	"mantle/internal/indexnode"
	"mantle/internal/raft"
	"mantle/internal/tafdb"
	"mantle/internal/types"
)

// TestIndexNodeRestartUnderMkdirs crashes an IndexNode follower and then
// the leader while concurrent mkdirs commit, and restarts each from its
// raft log. The run ends with fsck clean, the raft invariant hook green,
// and every acknowledged directory — and every populated one, which
// reached the replicas beside the log — resolvable on every replica.
func TestIndexNodeRestartUnderMkdirs(t *testing.T) {
	m, err := core.New(core.Config{
		TafDB: tafdb.Config{Shards: 4, WALSyncCost: 200 * time.Microsecond, Batch2PC: true},
		Index: indexnode.Config{Voters: 3, K: 2, CacheEnabled: true, FollowerRead: true,
			Raft: raft.Config{BatchEnabled: true, Pipeline: true, FsyncCost: 200 * time.Microsecond,
				ElectionTimeout: 100 * time.Millisecond}},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Stop)
	acked := []string{"/pop", "/pop/a", "/pop/a/b"}
	if err := m.Populate([]api.PopDir{
		{Path: "/pop", ID: 1000, Pid: types.RootID},
		{Path: "/pop/a", ID: 1001, Pid: 1000},
		{Path: "/pop/a/b", ID: 1002, Pid: 1001},
	}, nil); err != nil {
		t.Fatal(err)
	}
	rafts := m.Index().Rafts()
	chk := raft.NewChecker(rafts)

	const workers = 4
	var stop atomic.Bool
	var mu sync.Mutex
	errCh := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				d := fmt.Sprintf("/pop/a/b/w%d-%d", w, i)
				if _, err := m.Mkdir(m.Caller().Begin(), d); err != nil {
					errCh <- fmt.Errorf("mkdir %s: %w", d, err)
					return
				}
				mu.Lock()
				acked = append(acked, d)
				mu.Unlock()
			}
		}(w)
	}

	crashRestart := func(leader bool) {
		time.Sleep(50 * time.Millisecond)
		if err := chk.Check(); err != nil {
			t.Error(err)
		}
		l, err := raft.WaitLeader(rafts, 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		victim := l
		for _, r := range rafts {
			if !leader && r != l {
				victim = r
				break
			}
		}
		victim.Crash()
		time.Sleep(30 * time.Millisecond)
		if err := victim.Restart(); err != nil {
			t.Fatal(err)
		}
	}
	crashRestart(false)
	crashRestart(true)
	time.Sleep(50 * time.Millisecond)
	stop.Store(true)
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	// Every replica applies the whole log; then the checks.
	l, err := raft.WaitLeader(rafts, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Mkdir(m.Caller().Begin(), "/after"); err != nil {
		t.Fatal(err)
	}
	acked = append(acked, "/after")
	want := l.CommitIndex()
	deadline := time.Now().Add(5 * time.Second)
	for _, r := range rafts {
		for r.AppliedIndex() < want && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
	}
	if err := chk.Check(); err != nil {
		t.Fatal(err)
	}
	checkFsck(t, m)
	for i, rep := range m.Index().Replicas() {
		for _, d := range acked {
			if _, err := rep.Lookup(d); err != nil {
				t.Fatalf("replica %d: acknowledged %s does not resolve: %v", i, d, err)
			}
		}
	}
	t.Logf("%d directories acknowledged across a follower and a leader restart", len(acked))
}
