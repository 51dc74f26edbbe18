package core

import (
	"bytes"
	"errors"
	"regexp"
	"testing"
	"time"

	"mantle/internal/faults"
	"mantle/internal/indexnode"
	"mantle/internal/netsim"
	"mantle/internal/raft"
	"mantle/internal/tafdb"
	"mantle/internal/types"
)

// TestPartitionDegradedReadsAndFailFastWrites is the end-to-end
// fault-injection acceptance test: with every IndexNode replica
// partitioned from every other under a fixed injector seed,
//
//   - writes fail fast with a typed ErrUnavailable instead of hanging,
//   - lookups of existing paths keep serving via degraded (stale-local)
//     fallback reads,
//   - after the partition heals, a fresh write round-trips and the
//     namespace passes fsck-style structural checks.
func TestPartitionDegradedReadsAndFailFastWrites(t *testing.T) {
	fabric := netsim.NewLocalFabric()
	inj := faults.New(1337)
	inj.Attach(fabric)
	// The full write-batching stack stays on during the fault run: the
	// acceptance bar is that batching (raft log batching + pipelined
	// replication, WAL group commit, batched 2PC) does not change fault
	// semantics.
	cfg := Config{
		Fabric: fabric,
		TafDB: tafdb.Config{
			Shards: 4, Delta: tafdb.DeltaAuto,
			WALSyncCost: 50 * time.Microsecond, Batch2PC: true,
		},
		Index: indexnode.Config{
			Voters:        3,
			K:             2,
			CacheEnabled:  true,
			FollowerRead:  true,
			DegradedReads: true,
			Raft: raft.Config{
				BatchEnabled:      true,
				Pipeline:          true,
				FsyncCost:         50 * time.Microsecond,
				ElectionTimeout:   50 * time.Millisecond,
				HeartbeatInterval: 10 * time.Millisecond,
			},
			RetryWindow: 400 * time.Millisecond,
		},
	}
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Stop()

	// Healthy phase: build a small tree.
	if _, err := m.Mkdir(op(m), "/srv"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Mkdir(op(m), "/srv/logs"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Create(op(m), "/srv/logs/app.log", 512); err != nil {
		t.Fatal(err)
	}

	// Cut every replica off from every other: no quorum anywhere. The
	// proxy ("proxy" source) still reaches each replica, so reads can
	// degrade while replication is impossible.
	members := m.Index().MemberIDs()
	if len(members) != 3 {
		t.Fatalf("members = %v", members)
	}
	inj.SplitAll(members)
	// Wait out check-quorum: the leader must step down rather than keep
	// serving writes it can no longer commit.
	deadline := time.Now().Add(2 * time.Second)
	for m.Index().Leader() != nil && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if m.Index().Leader() != nil {
		t.Fatalf("a leader survives total partition (injector seed %d)", inj.Seed())
	}

	// Writes fail fast with the typed unavailability error.
	start := time.Now()
	_, werr := m.Mkdir(op(m), "/srv/tmp")
	elapsed := time.Since(start)
	if !errors.Is(werr, types.ErrUnavailable) {
		t.Fatalf("partitioned mkdir err = %v (injector seed %d)", werr, inj.Seed())
	}
	if elapsed > 5*time.Second {
		t.Fatalf("partitioned mkdir hung %v (injector seed %d)", elapsed, inj.Seed())
	}

	// Reads of pre-partition state keep serving, via degraded fallback.
	for i := 0; i < 3; i++ {
		res, err := m.Lookup(op(m), "/srv/logs")
		if err != nil {
			t.Fatalf("degraded lookup %d failed: %v (injector seed %d)", i, err, inj.Seed())
		}
		if res.Entry.Kind != types.KindDir {
			t.Fatalf("degraded lookup entry = %+v", res.Entry)
		}
	}
	if m.Index().FallbackReads() == 0 {
		t.Fatalf("no fallback reads recorded during partition (injector seed %d)", inj.Seed())
	}

	// Heal. The group re-elects and a fresh write round-trips.
	inj.HealAll()
	var healErr error
	deadline = time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if _, healErr = m.Mkdir(op(m), "/srv/tmp"); healErr == nil {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if healErr != nil {
		t.Fatalf("post-heal mkdir failed: %v (injector seed %d)", healErr, inj.Seed())
	}
	if _, err := m.Create(op(m), "/srv/tmp/state.bin", 64); err != nil {
		t.Fatalf("post-heal create failed: %v (injector seed %d)", err, inj.Seed())
	}

	// fsck-style structural checks: every directory resolves, parent
	// links agree, and directory link counts match their listings.
	type want struct {
		path string
		objs int
	}
	for _, w := range []want{{"/srv", 0}, {"/srv/logs", 1}, {"/srv/tmp", 1}} {
		lres, err := m.Lookup(op(m), w.path)
		if err != nil {
			t.Fatalf("fsck lookup %s: %v", w.path, err)
		}
		ds, err := m.DirStat(op(m), w.path)
		if err != nil {
			t.Fatalf("fsck dirstat %s: %v", w.path, err)
		}
		if ds.Entry.ID != lres.Entry.ID {
			t.Fatalf("fsck %s: lookup id %d != dirstat id %d", w.path, lres.Entry.ID, ds.Entry.ID)
		}
		_, entries, err := m.ReadDir(op(m), w.path)
		if err != nil {
			t.Fatalf("fsck readdir %s: %v", w.path, err)
		}
		objs := 0
		for _, e := range entries {
			if e.Kind == types.KindObject {
				objs++
			}
			if e.Kind == types.KindDir && e.Pid != lres.Entry.ID {
				t.Fatalf("fsck %s: child %s pid %d != dir id %d", w.path, e.Name, e.Pid, lres.Entry.ID)
			}
		}
		if objs != w.objs {
			t.Fatalf("fsck %s: %d objects, want %d", w.path, objs, w.objs)
		}
		if int(ds.Entry.Attr.LinkCount) != len(entries) {
			t.Fatalf("fsck %s: link count %d != %d children", w.path, ds.Entry.Attr.LinkCount, len(entries))
		}
	}

	// The fault metrics surfaced something: drops happened and the
	// exposition-time gauges are wired to live values.
	if inj.Stats().Dropped == 0 {
		t.Fatalf("injector recorded no drops (seed %d)", inj.Seed())
	}
	var buf bytes.Buffer
	if err := m.Metrics().Write(&buf); err != nil {
		t.Fatal(err)
	}
	for _, re := range []string{
		`(?m)^fault_dropped [1-9]`,
		`(?m)^indexnode_fallback_reads [1-9]`,
	} {
		if !regexp.MustCompile(re).MatchString(buf.String()) {
			t.Fatalf("metrics missing %s:\n%s", re, buf.String())
		}
	}
}

// TestPartitionedWritesDoNotDuplicateAfterHeal: a write that fails with
// ErrUnavailable during the partition and is retried after the heal must
// apply exactly once — the proposal path must not leave a zombie entry
// that re-applies post-heal and double-creates the directory.
func TestPartitionedWritesDoNotDuplicateAfterHeal(t *testing.T) {
	fabric := netsim.NewLocalFabric()
	inj := faults.New(7)
	inj.Attach(fabric)
	m, err := New(Config{
		Fabric: fabric,
		TafDB: tafdb.Config{
			Shards: 2, Delta: tafdb.DeltaAuto,
			WALSyncCost: 50 * time.Microsecond, Batch2PC: true,
		},
		Index: indexnode.Config{
			Voters:       3,
			CacheEnabled: true,
			Raft: raft.Config{
				BatchEnabled:      true,
				Pipeline:          true,
				FsyncCost:         50 * time.Microsecond,
				ElectionTimeout:   50 * time.Millisecond,
				HeartbeatInterval: 10 * time.Millisecond,
			},
			RetryWindow: 300 * time.Millisecond,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Stop()

	if _, err := m.Mkdir(op(m), "/a"); err != nil {
		t.Fatal(err)
	}
	inj.SplitAll(m.Index().MemberIDs())
	if _, err := m.Mkdir(op(m), "/a/b"); !errors.Is(err, types.ErrUnavailable) {
		t.Fatalf("partitioned mkdir err = %v (injector seed %d)", err, inj.Seed())
	}
	inj.HealAll()

	// Retry until the group is writable again.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err = m.Mkdir(op(m), "/a/b"); err == nil || errors.Is(err, types.ErrExists) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("post-heal mkdir never succeeded: %v (injector seed %d)", err, inj.Seed())
		}
		time.Sleep(10 * time.Millisecond)
	}
	_, entries, err := m.ReadDir(op(m), "/a")
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name != "b" {
		t.Fatalf("/a = %v after heal (injector seed %d)", entries, inj.Seed())
	}
}
