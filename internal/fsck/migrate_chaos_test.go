package fsck

import (
	"errors"
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
	"mantle/internal/types"
)

// TestMigrationUnderChaos is the online-migration acceptance test: a hot
// directory subtree is migrated between TafDB shards repeatedly while
// writers hammer it, with the destination shard crash-injected mid-copy
// on every other hop. The aborted hops must leave the source
// authoritative; the successful hops must move every row; and at the end
// fsck must find a fully consistent namespace — zero lost, zero
// duplicated entries (a duplicated row would double-count a child
// against its parent's link count, a lost one would under-count).
func TestMigrationUnderChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos test skipped in -short")
	}
	m, err := core.New(core.Config{
		TafDB: tafdb.Config{
			Shards: 4, Delta: tafdb.DeltaAuto,
			WALSyncCost: 50 * time.Microsecond, Batch2PC: true,
		},
		Index: indexnode.Config{Voters: 1, K: 2, CacheEnabled: true, Raft: raft.Config{BatchEnabled: true}},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Stop)
	if _, err := m.Mkdir(op(m), "/hot"); err != nil {
		t.Fatal(err)
	}
	res, err := m.Lookup(op(m), "/hot")
	if err != nil {
		t.Fatal(err)
	}
	dir := res.Entry.ID
	db := m.DB()
	inj := faults.New(1)
	inj.Attach(m.Caller().Fabric())

	const writers = 4
	var created atomic.Int64
	var stop atomic.Bool
	var wg sync.WaitGroup
	errCh := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				p := fmt.Sprintf("/hot/w%d-%d", w, i)
				if _, err := m.Create(op(m), p, 1); err != nil {
					errCh <- fmt.Errorf("create %s: %w", p, err)
					return
				}
				created.Add(1)
				if _, err := m.ObjStat(op(m), p); err != nil {
					errCh <- fmt.Errorf("stat %s: %w", p, err)
					return
				}
			}
		}(w)
	}

	// Six migration hops under load; on every other hop the destination
	// shard crashes right after the copy commits, so the migration must
	// detect the lost staged rows, abort without flipping routing, and
	// succeed on the post-recovery retry.
	const hops = 6
	for hop := 0; hop < hops; hop++ {
		dst := (db.ShardOf(dir) + 1) % db.Shards()
		if hop%2 == 1 {
			crashed := false
			db.SetMigrationHook(func(stage string) {
				if stage == "copied" && !crashed {
					crashed = true
					inj.Crash(db.Shard(dst))
				}
			})
			if _, err := db.MigrateDir(m.Caller().Begin(), dir, dst); !errors.Is(err, types.ErrUnavailable) {
				t.Fatalf("hop %d: migration with crashed destination = %v, want ErrUnavailable", hop, err)
			}
			db.SetMigrationHook(nil)
			if err := inj.Restart(db.Shard(dst)); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := db.MigrateDir(m.Caller().Begin(), dir, dst); err != nil {
			t.Fatalf("hop %d: migrate to shard %d: %v", hop, dst, err)
		}
	}
	stop.Store(true)
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
	if db.Migrations().Aborts < hops/2 {
		t.Fatalf("fault injection did not exercise the abort path: %+v", db.Migrations())
	}

	// Ground truth: the directory must hold exactly the created entries.
	if st, err := m.DirStat(op(m), "/hot"); err != nil || st.Entry.Attr.LinkCount != created.Load() {
		t.Fatalf("link count = %d err=%v, want %d", st.Entry.Attr.LinkCount, err, created.Load())
	}
	_, kids, err := m.ReadDir(op(m), "/hot")
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(kids)) != created.Load() {
		t.Fatalf("listed %d children, want %d (lost or duplicated entries)", len(kids), created.Load())
	}
	// Full cross-component verification: every row, every shard.
	if rep := Check(m); !rep.OK() {
		t.Fatalf("fsck after chaos migration:\n%s", rep)
	}
}
