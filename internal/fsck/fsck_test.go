package fsck

import (
	"fmt"
	"strings"
	"testing"

	"mantle/internal/core"
	"mantle/internal/indexnode"
	"mantle/internal/raft"
	"mantle/internal/rpc"
	"mantle/internal/tafdb"
	"mantle/internal/types"
)

func newMantle(t *testing.T, delta tafdb.DeltaMode) *core.Mantle {
	t.Helper()
	m, err := core.New(core.Config{
		TafDB: tafdb.Config{Shards: 4, Delta: delta},
		Index: indexnode.Config{Voters: 1, K: 2, CacheEnabled: true, Raft: raft.Config{BatchEnabled: true}},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Stop)
	return m
}

func op(m *core.Mantle) *rpc.Op { return m.Caller().Begin() }

// buildWorkload exercises every mutation kind.
func buildWorkload(t *testing.T, m *core.Mantle) {
	t.Helper()
	for _, p := range []string{"/a", "/a/b", "/a/b/c", "/x", "/x/y", "/trash"} {
		if _, err := m.Mkdir(op(m), p); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		if _, err := m.Create(op(m), fmt.Sprintf("/a/b/c/o%d", i), int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.Delete(op(m), "/a/b/c/o3"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.DirRename(op(m), "/x/y", "/a/moved"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Rmdir(op(m), "/trash"); err != nil {
		t.Fatal(err)
	}
}

func TestCleanNamespacePasses(t *testing.T) {
	for _, delta := range []tafdb.DeltaMode{tafdb.DeltaOff, tafdb.DeltaAlways} {
		delta := delta
		t.Run(fmt.Sprintf("delta%d", delta), func(t *testing.T) {
			m := newMantle(t, delta)
			buildWorkload(t, m)
			// With delta records live, link counts must still reconcile
			// because fsck folds deltas into the primary count.
			rep := Check(m)
			if !rep.OK() {
				for _, is := range rep.Issues {
					t.Log(is)
				}
				t.Fatalf("clean namespace flagged: %s", rep)
			}
			if rep.Dirs == 0 || rep.Objects == 0 {
				t.Fatalf("scan incomplete: %s", rep)
			}
		})
	}
}

func TestDetectsIndexMissing(t *testing.T) {
	m := newMantle(t, tafdb.DeltaOff)
	buildWorkload(t, m)
	// Corrupt: remove a directory from the IndexNode table only.
	lead := m.Index().Leader()
	e, ok := lead.Table().Get(types.RootID, "a")
	if !ok {
		t.Fatal("setup: /a missing")
	}
	lead.Table().Delete(types.RootID, "a", e.ID)
	rep := Check(m)
	if rep.OK() {
		t.Fatal("corruption not detected")
	}
	if !hasCheck(rep, "index-missing") {
		t.Fatalf("expected index-missing, got %v", rep.Issues)
	}
}

func TestDetectsIndexExtra(t *testing.T) {
	m := newMantle(t, tafdb.DeltaOff)
	buildWorkload(t, m)
	// Corrupt: a phantom IndexNode entry with no TafDB row.
	m.Index().Leader().Table().Put(types.AccessEntry{
		Pid: types.RootID, Name: "ghost", ID: 9999, Perm: types.PermAll,
	})
	rep := Check(m)
	if !hasCheck(rep, "index-extra") {
		t.Fatalf("expected index-extra, got %v", rep.Issues)
	}
}

func TestDetectsLinkCountDrift(t *testing.T) {
	m := newMantle(t, tafdb.DeltaOff)
	buildWorkload(t, m)
	res, err := m.Lookup(op(m), "/a/b/c")
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt: bump the directory's link count without adding a child.
	m.DB().BumpLink(res.Entry.ID, 3)
	rep := Check(m)
	if !hasCheck(rep, "linkcount") {
		t.Fatalf("expected linkcount, got %v", rep.Issues)
	}
}

func TestDetectsOrphanSubtree(t *testing.T) {
	m := newMantle(t, tafdb.DeltaOff)
	buildWorkload(t, m)
	// Corrupt: delete /a's access row in TafDB directly, orphaning the
	// whole /a subtree (and leaving the IndexNode entry dangling).
	res, err := m.Lookup(op(m), "/a")
	if err != nil {
		t.Fatal(err)
	}
	m.DB().DeleteRowDirect(types.RootID, "a")
	rep := Check(m)
	if !hasCheck(rep, "orphan") {
		t.Fatalf("expected orphan, got %v", rep.Issues)
	}
	// The dangling attr row for /a is flagged too.
	if !hasCheck(rep, "attr-orphan") && !hasCheck(rep, "index-extra") {
		t.Fatalf("expected attr-orphan/index-extra for id %d, got %v", res.Entry.ID, rep.Issues)
	}
	if !strings.Contains(rep.String(), "ISSUES") {
		t.Fatalf("report string: %s", rep)
	}
}

func hasCheck(rep *Report, check string) bool {
	for _, is := range rep.Issues {
		if is.Check == check {
			return true
		}
	}
	return false
}

// TestRandomWorkloadStaysConsistent drives a random mixed workload (the
// differential-test generator's spirit) and then verifies every fsck
// invariant holds — the end-to-end payoff of the coordination protocols.
func TestRandomWorkloadStaysConsistent(t *testing.T) {
	m := newMantle(t, tafdb.DeltaAuto)
	names := []string{"a", "b", "c", "d"}
	seed := uint64(12345)
	next := func(n int) int {
		seed = seed*6364136223846793005 + 1442695040888963407
		return int(seed>>33) % n
	}
	randPath := func(maxDepth int) string {
		depth := 1 + next(maxDepth)
		p := ""
		for i := 0; i < depth; i++ {
			p += "/" + names[next(len(names))]
		}
		return p
	}
	for step := 0; step < 3000; step++ {
		switch next(6) {
		case 0:
			_, _ = m.Mkdir(op(m), randPath(5))
		case 1:
			_, _ = m.Create(op(m), randPath(5), int64(next(1000)))
		case 2:
			_, _ = m.Delete(op(m), randPath(5))
		case 3:
			_, _ = m.Rmdir(op(m), randPath(5))
		case 4:
			src, dst := randPath(4), randPath(4)
			if src != dst {
				_, _ = m.DirRename(op(m), src, dst)
			}
		case 5:
			_, _ = m.ObjStat(op(m), randPath(5))
		}
	}
	// Let the delta compactor settle, then check.
	m.DB().CompactAll()
	rep := Check(m)
	if !rep.OK() {
		for _, is := range rep.Issues {
			t.Log(is)
		}
		t.Fatalf("random workload broke invariants: %s", rep)
	}
	t.Log(rep)
}
