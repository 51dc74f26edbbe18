package core_test

import (
	"errors"
	"testing"
	"time"

	"mantle/internal/core"
	"mantle/internal/fsck"
	"mantle/internal/indexnode"
	"mantle/internal/raft"
	"mantle/internal/tafdb"
	"mantle/internal/types"
)

// slowCommit is a deployment whose TafDB commits park 20 ms in their WAL
// sync while IndexNode commits at once: a directory mutation's IndexNode
// entry lands well inside its transaction's commit round.
func slowCommit(t *testing.T) *core.Mantle {
	t.Helper()
	m, err := core.New(core.Config{
		TafDB: tafdb.Config{Shards: 4, WALSyncCost: 20 * time.Millisecond, Batch2PC: true},
		Index: indexnode.Config{Voters: 3, Raft: raft.Config{BatchEnabled: true}},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Stop)
	return m
}

func checkFsck(t *testing.T, m *core.Mantle) {
	t.Helper()
	if rep := fsck.Check(m); !rep.OK() {
		t.Fatalf("%s: %v", rep, rep.Issues)
	}
}

// A create under a directory whose mkdir is still in its commit round —
// IndexNode already resolves the directory, TafDB has not yet applied it —
// conflicts on the directory's prepare-locked primary row and retries
// until the commit lands. It never sees the directory missing.
func TestSharedCommitCreateUnderParkedMkdir(t *testing.T) {
	m := slowCommit(t)
	mkdir := make(chan error, 1)
	go func() {
		_, err := m.Mkdir(m.Caller().Begin(), "/d")
		mkdir <- err
	}()
	for {
		if _, err := m.Lookup(m.Caller().Begin(), "/d"); err == nil {
			break
		}
		select {
		case err := <-mkdir:
			t.Fatalf("mkdir returned (err %v) before IndexNode resolved /d: the proposal did not overlap the commit", err)
		default:
		}
	}
	res, err := m.Create(m.Caller().Begin(), "/d/o", 1)
	if err != nil {
		t.Fatalf("create under the committing directory: %v", err)
	}
	if err := <-mkdir; err != nil {
		t.Fatalf("mkdir: %v", err)
	}
	if res.Retries == 0 {
		t.Fatal("the create never conflicted: IndexNode resolved /d only after the mkdir's TafDB commit")
	}
	if _, err := m.ObjStat(m.Caller().Begin(), "/d/o"); err != nil {
		t.Fatal(err)
	}
	checkFsck(t, m)
}

// A dirrename whose TafDB transaction fails to prepare — the destination
// name is an object, which only TafDB knows — proposes nothing to
// IndexNode and releases the rename lock PrepareRename took.
func TestSharedCommitRenamePrepareFailureProposesNothing(t *testing.T) {
	m := slowCommit(t)
	op := m.Caller().Begin
	for _, dir := range []string{"/a", "/b"} {
		if _, err := m.Mkdir(op(), dir); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.Create(op(), "/b/o", 1); err != nil {
		t.Fatal(err)
	}
	src, err := m.Lookup(op(), "/a")
	if err != nil {
		t.Fatal(err)
	}
	logLen := func() (n int) {
		for _, r := range m.Index().Rafts() {
			n += r.LogLen()
		}
		return n
	}
	before := logLen()
	if _, err := m.DirRename(op(), "/a", "/b/o"); !errors.Is(err, types.ErrExists) {
		t.Fatalf("rename onto an object: err = %v, want ErrExists", err)
	}
	if after := logLen(); after != before {
		t.Fatalf("IndexNode raft logs grew %d -> %d entries on a rename that never prepared", before, after)
	}
	if m.Index().Leader().IsLocked(src.Entry.ID, "") {
		t.Fatal("the rename lock on /a is still held")
	}
	if _, err := m.DirRename(op(), "/a", "/b/a2"); err != nil {
		t.Fatalf("rename after the failed one: %v", err)
	}
	checkFsck(t, m)
}
