package dbtable

import (
	"errors"
	"sync"
	"testing"
	"time"

	"mantle/internal/api"
	"mantle/internal/netsim"
	"mantle/internal/rpc"
	"mantle/internal/storage"
	"mantle/internal/txn"
	"mantle/internal/types"
)

func testStore(t *testing.T) (*Store, *rpc.Caller) {
	t.Helper()
	s := New(Config{Shards: 4})
	return s, rpc.NewCaller(netsim.NewLocalFabric())
}

// seed builds /a/b with one object o under b, returning (aID, bID).
func seed(t *testing.T, s *Store) (types.InodeID, types.InodeID) {
	t.Helper()
	a, b := s.NewID(), s.NewID()
	dirs := []api.PopDir{
		{Path: "/a", ID: a, Pid: types.RootID},
		{Path: "/a/b", ID: b, Pid: a},
	}
	objs := []api.PopObject{{Pid: b, Name: "o", Size: 42}}
	if err := Populate(s, api.SlicePop(dirs, objs)); err != nil {
		t.Fatal(err)
	}
	return a, b
}

func TestResolvePathSequential(t *testing.T) {
	s, caller := testStore(t)
	_, b := seed(t, s)
	op := caller.Begin()
	e, perm, err := s.ResolvePath(op, "/a/b")
	if err != nil {
		t.Fatal(err)
	}
	if e.ID != b || !perm.Allows(types.PermAll) {
		t.Fatalf("resolve = %+v perm=%v", e, perm)
	}
	// One RPC per component.
	if op.RTTs() != 2 {
		t.Fatalf("RTTs = %d", op.RTTs())
	}
	// Root resolves with zero RPCs.
	rop := caller.Begin()
	root, _, err := s.ResolvePath(rop, "/")
	if err != nil || root.ID != types.RootID || rop.RTTs() != 0 {
		t.Fatalf("root = %+v rtts=%d err=%v", root, rop.RTTs(), err)
	}
	// Missing component.
	if _, _, err := s.ResolvePath(caller.Begin(), "/a/zzz"); !errors.Is(err, types.ErrNotFound) {
		t.Fatalf("missing: %v", err)
	}
	// Resolving through an object fails with NotDir.
	if _, _, err := s.ResolvePath(caller.Begin(), "/a/b/o/deeper"); !errors.Is(err, types.ErrNotDir) {
		t.Fatalf("through object: %v", err)
	}
}

func TestResolvePathParallelMatchesSequential(t *testing.T) {
	s, caller := testStore(t)
	seed(t, s)
	seqE, seqPerm, err1 := s.ResolvePath(caller.Begin(), "/a/b")
	parE, parPerm, err2 := s.ResolvePathParallel(caller.Begin(), "/a/b")
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if seqE.ID != parE.ID || seqPerm != parPerm {
		t.Fatalf("parallel %+v/%v != sequential %+v/%v", parE, parPerm, seqE, seqPerm)
	}
	// Same RPC count (the paper's point about parallel resolving).
	opSeq, opPar := caller.Begin(), caller.Begin()
	_, _, _ = s.ResolvePath(opSeq, "/a/b")
	_, _, _ = s.ResolvePathParallel(opPar, "/a/b")
	if opSeq.RTTs() != opPar.RTTs() {
		t.Fatalf("RTTs differ: seq %d par %d", opSeq.RTTs(), opPar.RTTs())
	}
	// Errors agree too.
	_, _, errSeq := s.ResolvePath(caller.Begin(), "/a/missing/x")
	_, _, errPar := s.ResolvePathParallel(caller.Begin(), "/a/missing/x")
	if !errors.Is(errSeq, types.ErrNotFound) || !errors.Is(errPar, types.ErrNotFound) {
		t.Fatalf("errs: %v vs %v", errSeq, errPar)
	}
}

func TestPopulateLinkCounts(t *testing.T) {
	s, caller := testStore(t)
	a, b := seed(t, s)
	// /a holds 1 child (b); /a/b holds 1 object.
	ae, _, err := s.ResolvePath(caller.Begin(), "/a")
	if err != nil || ae.ID != a {
		t.Fatal(err)
	}
	if ae.Attr.LinkCount != 1 {
		t.Fatalf("/a links = %d", ae.Attr.LinkCount)
	}
	be, _, _ := s.ResolvePath(caller.Begin(), "/a/b")
	if be.Attr.LinkCount != 1 {
		t.Fatalf("/a/b links = %d", be.Attr.LinkCount)
	}
	_ = b
}

func TestApplyAtomicSerializesHotRow(t *testing.T) {
	s := New(Config{Shards: 2, AtomicCost: 2 * time.Millisecond})
	caller := rpc.NewCaller(netsim.NewLocalFabric())
	a, _ := seed(t, s)
	key := types.Key{Pid: types.RootID, Name: "a"}
	const n = 10
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			err := s.ApplyAtomic(caller.Begin(), types.RootID,
				[]storage.Mutation{{
					Kind: storage.MutDeltaAttr, Key: key,
					Delta: storage.AttrDelta{LinkCount: 1}, MustExist: true,
				}})
			if err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	// The per-row pacer serialises the updates: n ops at 2ms each.
	if elapsed := time.Since(start); elapsed < (n-2)*2*time.Millisecond {
		t.Fatalf("atomic updates not serialised: %v", elapsed)
	}
	row, _ := s.ShardFor(types.RootID).Shard.Get(key)
	if row.Entry.Attr.LinkCount != n+1 { // +1 from seed
		t.Fatalf("links = %d", row.Entry.Attr.LinkCount)
	}
	_ = a
}

// An atomic update that finds its row locked by an in-flight transaction
// waits for the holder instead of failing with a conflict.
func TestApplyAtomicWaitsForLockedRow(t *testing.T) {
	s, caller := testStore(t)
	seed(t, s)
	key := types.Key{Pid: types.RootID, Name: "a"}
	bump := []storage.Mutation{{
		Kind: storage.MutDeltaAttr, Key: key,
		Delta: storage.AttrDelta{LinkCount: 1}, MustExist: true,
	}}
	shard := s.ShardFor(types.RootID).Shard
	if err := shard.Prepare("holder", nil, bump); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- s.ApplyAtomic(caller.Begin(), types.RootID, bump) }()
	select {
	case err := <-done:
		t.Fatalf("atomic update did not wait for the lock holder: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	shard.Commit("holder")
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if row, _ := shard.Get(key); row.Entry.Attr.LinkCount != 3 { // +1 from seed
		t.Fatalf("links = %d", row.Entry.Attr.LinkCount)
	}
}

func TestScanChildrenCharged(t *testing.T) {
	s, caller := testStore(t)
	_, b := seed(t, s)
	op := caller.Begin()
	entries, err := s.ScanChildren(op, b)
	if err != nil || len(entries) != 1 || entries[0].Name != "o" {
		t.Fatalf("children = %v err=%v", entries, err)
	}
	if op.RTTs() != 1 {
		t.Fatalf("RTTs = %d", op.RTTs())
	}
}

func TestRunTxnRetriesOnConflict(t *testing.T) {
	s := New(Config{Shards: 2, RetryBase: time.Microsecond, RetryMax: time.Millisecond})
	caller := rpc.NewCaller(netsim.NewLocalFabric())
	seed(t, s)
	key := types.Key{Pid: types.RootID, Name: "a"}
	part := s.ShardFor(types.RootID)
	// Hold the row hostage, start a txn, release.
	if err := part.Shard.Prepare("holder", nil, []storage.Mutation{{
		Kind: storage.MutDeltaAttr, Key: key, Delta: storage.AttrDelta{LinkCount: 1},
	}}); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := s.RunTxn(caller.Begin(), func(int) ([]txn.Piece, error) {
			return []txn.Piece{{P: part, Muts: []storage.Mutation{{
				Kind: storage.MutDeltaAttr, Key: key,
				Delta: storage.AttrDelta{LinkCount: 1}, MustExist: true,
			}}}}, nil
		})
		done <- err
	}()
	time.Sleep(5 * time.Millisecond)
	part.Shard.Commit("holder")
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if s.Retries() == 0 {
		t.Fatal("no retries recorded")
	}
}
