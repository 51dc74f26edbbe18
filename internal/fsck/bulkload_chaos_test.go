package fsck

import (
	"fmt"
	"testing"

	"mantle/internal/core"
	"mantle/internal/indexnode"
	"mantle/internal/raft"
	"mantle/internal/tafdb"
	"mantle/internal/workload"
)

// TestBulkLoadedNamespaceConsistent runs every fsck invariant over a
// namespace built through the bulk-load fast path: the flatness sweep's
// generator populates ~20K entries in one Populate call, so each TafDB
// shard rebuilds its B-tree from a sorted stream of packed rows rather
// than applying logged mutations. The packed encoding reconstructs
// Pid/Name from row keys on decode — a row misfiled under the wrong key
// during the rebuild, a dropped attribute row, or a miscounted link
// would all surface here. Post-load mutations then mix logged writes
// (creates, deletes, mkdirs, a rename) into the rebuilt trees to verify
// the two populations coexist under delta compaction.
func TestBulkLoadedNamespaceConsistent(t *testing.T) {
	m, err := core.New(core.Config{
		TafDB: tafdb.Config{Shards: 4, Delta: tafdb.DeltaAuto},
		Index: indexnode.Config{Voters: 1, K: 2, CacheEnabled: true, Raft: raft.Config{BatchEnabled: true}},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Stop)

	sn := workload.BuildScale(20_000)
	if err := sn.Populate(m); err != nil {
		t.Fatal(err)
	}
	wantDirs := 1 + sn.Groups + sn.Groups*sn.DirsPerGroup
	wantObjects := sn.Objects()

	rep := Check(m)
	if !rep.OK() {
		for _, is := range rep.Issues {
			t.Log(is)
		}
		t.Fatalf("bulk-loaded namespace flagged: %s", rep)
	}
	if rep.Dirs != wantDirs || rep.Objects != wantObjects {
		t.Fatalf("scan saw %d dirs, %d objects; bulk-loaded %d dirs, %d objects",
			rep.Dirs, rep.Objects, wantDirs, wantObjects)
	}

	// Logged mutations over the rebuilt trees: extra objects in
	// bulk-loaded leaf directories, deletions of bulk-loaded objects,
	// fresh subtrees, and a rename across bulk-loaded parents.
	for i := 0; i < 32; i++ {
		dir := sn.DirPath(i%sn.Groups, i%sn.DirsPerGroup)
		if _, err := m.Create(op(m), fmt.Sprintf("%s/extra%d", dir, i), int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 16; i++ {
		if _, err := m.Delete(op(m), sn.ObjPath(i*101)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		if _, err := m.Mkdir(op(m), fmt.Sprintf("%s/sub%d", sn.DirPath(0, i), i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.DirRename(op(m), sn.DirPath(0, 0)+"/sub0", sn.DirPath(1, 1)+"/moved"); err != nil {
		t.Fatal(err)
	}

	m.DB().CompactAll()
	rep = Check(m)
	if !rep.OK() {
		for _, is := range rep.Issues {
			t.Log(is)
		}
		t.Fatalf("mutated bulk-loaded namespace flagged: %s", rep)
	}
	if rep.Dirs != wantDirs+4 || rep.Objects != wantObjects+32-16 {
		t.Fatalf("scan saw %d dirs, %d objects; want %d dirs, %d objects",
			rep.Dirs, rep.Objects, wantDirs+4, wantObjects+32-16)
	}
	t.Log(rep)
}
