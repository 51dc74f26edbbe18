package fsck

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mantle/internal/core"
	"mantle/internal/faults"
	"mantle/internal/indexnode"
	"mantle/internal/raft"
	"mantle/internal/tafdb"
)

// TestAckedCreatesSurviveShardCrash: eight writers create objects while
// the two WAL-backed TafDB shards go through 300 crash/restart cycles
// through the injector's one crash verb. An acknowledged create has
// landed, so afterwards every one of them stats and fsck is clean. A
// create whose prepare a crash forgot must fail at its commit instead of
// being acknowledged with nothing applied.
func TestAckedCreatesSurviveShardCrash(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos test skipped in -short")
	}
	m, err := core.New(core.Config{
		TafDB: tafdb.Config{Shards: 2, Delta: tafdb.DeltaAuto, WALSyncCost: 50 * time.Microsecond},
		Index: indexnode.Config{Voters: 1, K: 2, CacheEnabled: true, Raft: raft.Config{BatchEnabled: true}},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Stop)
	inj := faults.New(37)
	inj.Attach(m.Caller().Fabric())
	db := m.DB()

	// perWriter bounds the log each restart replays, so a slow host (or
	// the race detector) does not stretch every cycle without end.
	const writers, perWriter, cycles = 8, 2000, 300
	for w := 0; w < writers; w++ {
		if _, err := m.Mkdir(op(m), fmt.Sprintf("/w%d", w)); err != nil {
			t.Fatal(err)
		}
	}
	var stop atomic.Bool
	var failed atomic.Int64
	acked := make([][]string, writers)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; len(acked[w]) < perWriter && !stop.Load(); i++ {
				p := fmt.Sprintf("/w%d/o%d", w, i)
				if _, err := m.Create(op(m), p, 1); err != nil {
					failed.Add(1) // refused or forgotten: not acknowledged
					continue
				}
				acked[w] = append(acked[w], p)
			}
		}(w)
	}
	for c := 0; c < cycles; c++ {
		shard := db.Shard(c % db.Shards())
		time.Sleep(time.Millisecond)
		inj.Crash(shard)
		time.Sleep(300 * time.Microsecond)
		if err := inj.Restart(shard); err != nil {
			t.Fatal(err)
		}
	}
	stop.Store(true)
	wg.Wait()

	total := 0
	for _, paths := range acked {
		total += len(paths)
		for _, p := range paths {
			if _, err := m.ObjStat(op(m), p); err != nil {
				t.Errorf("acknowledged create %s lost: %v", p, err)
			}
		}
	}
	if total == 0 || failed.Load() == 0 {
		t.Fatalf("%d creates acknowledged, %d failed: the crashes did not meet the load", total, failed.Load())
	}
	if rep := Check(m); !rep.OK() {
		t.Fatalf("fsck after %d crash cycles:\n%s", cycles, rep)
	}
	t.Logf("%d creates acknowledged, %d failed across %d crash cycles", total, failed.Load(), cycles)
}
