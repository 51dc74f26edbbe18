package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mantle/internal/faults"
	"mantle/internal/indexnode"
	"mantle/internal/raft"
	"mantle/internal/tafdb"
	"mantle/internal/types"
)

// TestChaosLeaderKillsUnderLoad runs a mixed metadata workload while
// repeatedly crash-stopping the IndexNode leader. Ops may slow down
// across elections but must not fail, and the namespace must stay
// consistent (verified structurally at the end; fsck runs the same
// checks in its own package to avoid an import cycle).
func TestChaosLeaderKillsUnderLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos test skipped in -short")
	}
	cfg := func(c *Config) {
		// 5 voters so two kills still leave a quorum. The full
		// write-batching stack (raft batching + pipelining, WAL group
		// commit, batched 2PC) stays on while leaders die under it.
		c.Index = indexnode.Config{
			Voters: 5, K: 2, CacheEnabled: true,
			FollowerRead: true,
			Raft: raft.Config{
				BatchEnabled: true, Pipeline: true, FsyncCost: 50 * time.Microsecond,
				ElectionTimeout: 300 * time.Millisecond,
			},
		}
		c.TafDB = tafdb.Config{
			Shards: 4, Delta: tafdb.DeltaAuto,
			WALSyncCost: 50 * time.Microsecond, Batch2PC: true,
		}
	}
	m := newTestMantle(t, cfg)
	inj := faults.New(1)
	inj.Attach(m.Caller().Fabric())
	if _, err := m.Mkdir(op(m), "/chaos"); err != nil {
		t.Fatal(err)
	}

	const workers = 8
	var stop atomic.Bool
	var opsDone atomic.Int64
	errCh := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base := fmt.Sprintf("/chaos/w%d", w)
			if _, err := m.Mkdir(op(m), base); err != nil {
				errCh <- err
				return
			}
			for i := 0; !stop.Load(); i++ {
				d := fmt.Sprintf("%s/d%d", base, i)
				if _, err := m.Mkdir(op(m), d); err != nil {
					errCh <- fmt.Errorf("mkdir %s: %w", d, err)
					return
				}
				if _, err := m.Create(op(m), d+"/o", 1); err != nil {
					errCh <- fmt.Errorf("create: %w", err)
					return
				}
				if _, err := m.ObjStat(op(m), d+"/o"); err != nil {
					errCh <- fmt.Errorf("stat: %w", err)
					return
				}
				if _, err := m.DirRename(op(m), d, fmt.Sprintf("%s/r%d", base, i)); err != nil {
					errCh <- fmt.Errorf("rename: %w", err)
					return
				}
				opsDone.Add(4)
			}
		}(w)
	}

	// Kill the leader twice while the workload runs, waiting for each
	// re-election to finish first.
	for kill := 0; kill < 2; kill++ {
		time.Sleep(300 * time.Millisecond)
		l, err := raft.WaitLeader(m.Index().Rafts(), 2*time.Second)
		if err != nil {
			t.Error("no leader elected to kill")
			continue
		}
		inj.Crash(l)
	}
	time.Sleep(500 * time.Millisecond)
	stop.Store(true)
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if opsDone.Load() < 4*workers {
		t.Fatalf("too few ops completed: %d", opsDone.Load())
	}

	// Structural verification: everything each worker renamed resolves,
	// with its object, through the surviving replicas.
	for w := 0; w < workers; w++ {
		base := fmt.Sprintf("/chaos/w%d", w)
		_, entries, err := m.ReadDir(op(m), base)
		if err != nil {
			t.Fatalf("readdir %s: %v", base, err)
		}
		for _, e := range entries {
			if !e.IsDir() {
				continue
			}
			if _, err := m.ObjStat(op(m), fmt.Sprintf("%s/%s/o", base, e.Name)); err != nil {
				t.Fatalf("object under %s/%s lost: %v", base, e.Name, err)
			}
		}
		ds, err := m.DirStat(op(m), base)
		if err != nil {
			t.Fatal(err)
		}
		if ds.Entry.Attr.LinkCount != int64(len(entries)) {
			t.Fatalf("%s links=%d children=%d", base, ds.Entry.Attr.LinkCount, len(entries))
		}
	}
	t.Logf("chaos run: %d ops across 2 leader kills", opsDone.Load())
}

// TestTafDBShardCrashDuringReads verifies reads fail cleanly while a
// shard is down — unreachable, not empty — and succeed after restart.
func TestTafDBShardCrashDuringReads(t *testing.T) {
	m := newTestMantle(t, func(c *Config) {
		c.TafDB = tafdb.Config{Shards: 4, WALSyncCost: time.Microsecond}
	})
	inj := faults.New(1)
	inj.Attach(m.Caller().Fabric())
	if _, err := m.Mkdir(op(m), "/d"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if _, err := m.Create(op(m), fmt.Sprintf("/d/o%d", i), 1); err != nil {
			t.Fatal(err)
		}
	}
	// Crash every shard: all object stats must now fail as unreachable
	// (the shard is down, not empty), none should panic or hang.
	for i := 0; i < 4; i++ {
		inj.Crash(m.DB().Shard(i))
	}
	_, err := m.ObjStat(op(m), "/d/o0")
	if !errors.Is(err, types.ErrUnreachable) || errors.Is(err, types.ErrNotFound) {
		t.Fatalf("stat on crashed shard: %v", err)
	}
	for i := 0; i < 4; i++ {
		if err := inj.Restart(m.DB().Shard(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 20; i++ {
		if _, err := m.ObjStat(op(m), fmt.Sprintf("/d/o%d", i)); err != nil {
			t.Fatalf("stat after restart: %v", err)
		}
	}
}
