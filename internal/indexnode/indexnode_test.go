package indexnode

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"mantle/internal/radix"
	"mantle/internal/types"
)

func TestCmdCodecRoundTrip(t *testing.T) {
	cases := []Cmd{
		{Kind: CmdAddDir, Pid: 1, Name: "a", ID: 2, Perm: types.PermAll},
		{Kind: CmdRemoveDir, Pid: 1, Name: "a", ID: 2, Path: "/a"},
		{Kind: CmdRename, Pid: 1, Name: "a", ID: 2, Perm: types.PermRead,
			DstPid: 3, DstName: "b", Path: "/x/a", LockID: "uuid-1"},
		{Kind: CmdSetPerm, ID: 9, Perm: types.PermLookup, Path: "/p/q"},
		{Kind: CmdAddDir}, // zero values
	}
	for _, c := range cases {
		got, err := DecodeCmd(c.Encode())
		if err != nil {
			t.Fatalf("decode %+v: %v", c, err)
		}
		if got != c {
			t.Fatalf("round trip: got %+v want %+v", got, c)
		}
	}
}

func TestCmdCodecQuick(t *testing.T) {
	f := func(kind uint8, pid, id, dst uint64, perm uint16, name, dstName, path, lockID string) bool {
		c := Cmd{
			Kind: CmdKind(kind%4 + 1),
			Pid:  types.InodeID(pid), ID: types.InodeID(id), DstPid: types.InodeID(dst),
			Perm: types.Perm(perm), Name: name, DstName: dstName, Path: path, LockID: lockID,
		}
		got, err := DecodeCmd(c.Encode())
		return err == nil && got == c
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCmdDecodeTruncated(t *testing.T) {
	c := Cmd{Kind: CmdRename, Name: "abc", Path: "/x"}
	enc := c.Encode()
	for i := 0; i < len(enc); i++ {
		if _, err := DecodeCmd(enc[:i]); err == nil {
			t.Fatalf("decode of %d-byte prefix succeeded", i)
		}
	}
}

func TestIndexTableBasics(t *testing.T) {
	tab := NewIndexTable()
	e := types.AccessEntry{Pid: types.RootID, Name: "a", ID: 2, Perm: types.PermAll}
	if !tab.Put(e) {
		t.Fatal("first put not fresh")
	}
	if tab.Put(e) {
		t.Fatal("re-put reported fresh")
	}
	if tab.Len() != 1 {
		t.Fatalf("Len = %d", tab.Len())
	}
	got, ok := tab.Get(types.RootID, "a")
	if !ok || got.ID != 2 {
		t.Fatalf("Get = %+v, %v", got, ok)
	}
	rev, ok := tab.GetByID(2)
	if !ok || rev.Name != "a" {
		t.Fatalf("GetByID = %+v, %v", rev, ok)
	}
	if !tab.Delete(types.RootID, "a", 2) {
		t.Fatal("delete failed")
	}
	if tab.Delete(types.RootID, "a", 2) {
		t.Fatal("double delete succeeded")
	}
	if _, ok := tab.GetByID(2); ok {
		t.Fatal("reverse entry survived delete")
	}
}

// buildTree populates: /a(2)/b(3)/c(4), /x(5)/y(6).
func buildTree(tab *IndexTable) {
	tab.Put(types.AccessEntry{Pid: 1, Name: "a", ID: 2, Perm: types.PermAll})
	tab.Put(types.AccessEntry{Pid: 2, Name: "b", ID: 3, Perm: types.PermAll})
	tab.Put(types.AccessEntry{Pid: 3, Name: "c", ID: 4, Perm: types.PermAll})
	tab.Put(types.AccessEntry{Pid: 1, Name: "x", ID: 5, Perm: types.PermAll})
	tab.Put(types.AccessEntry{Pid: 5, Name: "y", ID: 6, Perm: types.PermAll})
}

func TestPathOfAndAncestor(t *testing.T) {
	tab := NewIndexTable()
	buildTree(tab)
	p, ok := tab.PathOf(4)
	if !ok || p != "/a/b/c" {
		t.Fatalf("PathOf(4) = %q, %v", p, ok)
	}
	if p, _ := tab.PathOf(types.RootID); p != "/" {
		t.Fatalf("PathOf(root) = %q", p)
	}
	if !tab.IsAncestorID(2, 4) {
		t.Fatal("a not ancestor of c")
	}
	if !tab.IsAncestorID(4, 4) {
		t.Fatal("self not ancestor-or-equal")
	}
	if tab.IsAncestorID(4, 2) {
		t.Fatal("c ancestor of a")
	}
	if tab.IsAncestorID(5, 4) {
		t.Fatal("x ancestor of c")
	}
	if !tab.IsAncestorID(types.RootID, 6) {
		t.Fatal("root not ancestor")
	}
}

func TestTableRenameAndSetPerm(t *testing.T) {
	tab := NewIndexTable()
	buildTree(tab)
	// Move /a/b under /x as /x/b2.
	if !tab.Rename(2, "b", 3, 5, "b2", types.PermRead|types.PermLookup) {
		t.Fatal("rename failed")
	}
	if _, ok := tab.Get(2, "b"); ok {
		t.Fatal("old entry survives")
	}
	e, ok := tab.Get(5, "b2")
	if !ok || e.ID != 3 {
		t.Fatalf("new entry = %+v", e)
	}
	p, _ := tab.PathOf(4)
	if p != "/x/b2/c" {
		t.Fatalf("PathOf(c) after rename = %q", p)
	}
	if !tab.SetPerm(3, types.PermAll) {
		t.Fatal("setperm failed")
	}
	e, _ = tab.Get(5, "b2")
	if e.Perm != types.PermAll {
		t.Fatalf("perm = %v", e.Perm)
	}
	if tab.SetPerm(999, types.PermAll) {
		t.Fatal("setperm on missing id succeeded")
	}
}

func newTestReplica(t *testing.T, k int) *Replica {
	t.Helper()
	r := NewReplica(k, true)
	t.Cleanup(r.Close)
	buildTree(r.Table())
	return r
}

func TestReplicaLookup(t *testing.T) {
	r := newTestReplica(t, 1)
	res, err := r.Lookup("/a/b/c")
	if err != nil {
		t.Fatal(err)
	}
	if res.ID != 4 || res.Levels != 3 || res.Hit {
		t.Fatalf("first lookup = %+v", res)
	}
	// Second lookup hits the cached prefix /a/b and walks only 1 level.
	res2, err := r.Lookup("/a/b/c")
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Hit || res2.Levels != 1 || res2.ID != 4 {
		t.Fatalf("second lookup = %+v", res2)
	}
	// One cold and one warm lookup are one miss and one hit: the miss path
	// does not probe the prefix a second time.
	if h, m := r.cache.Stats(); h != 1 || m != 1 {
		t.Fatalf("cache stats after cold+warm lookup: hits=%d misses=%d, want 1 and 1", h, m)
	}
	// Root lookup.
	resRoot, err := r.Lookup("/")
	if err != nil || resRoot.ID != types.RootID {
		t.Fatalf("root lookup = %+v err=%v", resRoot, err)
	}
	// Missing path.
	if _, err := r.Lookup("/a/zzz"); !errors.Is(err, types.ErrNotFound) {
		t.Fatalf("missing path: %v", err)
	}
}

func TestLookupShortPathsNotCached(t *testing.T) {
	r := newTestReplica(t, 3)
	// Depth 3 with k=3: prefix is root, nothing cached.
	if _, err := r.Lookup("/a/b/c"); err != nil {
		t.Fatal(err)
	}
	if n := r.cache.Len(); n != 0 {
		t.Fatalf("cache has %d entries for short paths", n)
	}
}

func TestLookupPermissionIntersection(t *testing.T) {
	r := newTestReplica(t, 1)
	// Restrict /a to lookup+read via the replicated command (as the real
	// system does, so caches invalidate): the aggregated perm of /a/b/c
	// loses write.
	r.Apply(1, Cmd{Kind: CmdSetPerm, ID: 2, Perm: types.PermLookup | types.PermRead, Path: "/a"}.Encode())
	r.inv.WaitIdle()
	res, err := r.Lookup("/a/b/c")
	if err != nil {
		t.Fatal(err)
	}
	if res.Perm.Allows(types.PermWrite) {
		t.Fatal("aggregated perm kept write through restricted ancestor")
	}
	// Remove lookup permission entirely: resolution fails.
	r.Apply(2, Cmd{Kind: CmdSetPerm, ID: 2, Perm: types.PermRead, Path: "/a"}.Encode())
	r.inv.WaitIdle()
	if _, err := r.Lookup("/a/b/c"); !errors.Is(err, types.ErrPermission) {
		t.Fatalf("err = %v", err)
	}
}

func TestApplyRenameInvalidatesCache(t *testing.T) {
	r := newTestReplica(t, 1)
	if _, err := r.Lookup("/a/b/c"); err != nil { // caches /a/b
		t.Fatal(err)
	}
	if r.cache.Len() != 1 {
		t.Fatalf("cache len = %d", r.cache.Len())
	}
	// Apply a rename of /a to /x/a2 (as the Raft log would).
	cmd := Cmd{Kind: CmdRename, Pid: 1, Name: "a", ID: 2, Perm: types.PermAll,
		DstPid: 5, DstName: "a2", Path: "/a"}
	r.Apply(1, cmd.Encode())
	r.inv.WaitIdle()
	if r.cache.Len() != 0 {
		t.Fatalf("cache entries survived rename invalidation: %d", r.cache.Len())
	}
	// Old path gone, new path resolves.
	if _, err := r.Lookup("/a/b/c"); !errors.Is(err, types.ErrNotFound) {
		t.Fatalf("old path: %v", err)
	}
	res, err := r.Lookup("/x/a2/b/c")
	if err != nil || res.ID != 4 {
		t.Fatalf("new path: %+v err=%v", res, err)
	}
}

func TestLookupDuringModificationBypassesCache(t *testing.T) {
	r := newTestReplica(t, 1)
	if _, err := r.Lookup("/a/b/c"); err != nil {
		t.Fatal(err)
	}
	// Mark /a as being modified (rename in flight): lookups under it
	// must not use or refresh the cache, but still resolve from the
	// table.
	r.inv.BeginModification("/a")
	res, err := r.Lookup("/a/b/c")
	if err != nil {
		t.Fatal(err)
	}
	if res.Hit {
		t.Fatal("lookup used cache under in-flight modification")
	}
	if res.Levels != 3 {
		t.Fatalf("levels = %d, want full walk", res.Levels)
	}
	// Unrelated paths still use the cache.
	if _, err := r.Lookup("/x/y"); err != nil {
		t.Fatal(err)
	}
	r.inv.AbortModification("/a")
	res, err = r.Lookup("/a/b/c")
	if err != nil || !res.Hit {
		t.Fatalf("after abort: %+v err=%v", res, err)
	}
}

func TestEpochCheckPreventsStaleCaching(t *testing.T) {
	r := newTestReplica(t, 1)
	// Simulate a modification racing a lookup: bump the epoch between
	// resolution and caching by doing it from inside the table walk is
	// not possible here, so emulate the check directly: a lookup that
	// observes a changed epoch must not leave a cache entry behind.
	epoch0 := r.cache.Epoch()
	r.cache.Bump()
	if r.cache.Epoch() == epoch0 {
		t.Fatal("epoch did not advance")
	}
	// Lookup now caches (fresh epoch snapshot) — but an immediately
	// following modification invalidates it.
	if _, err := r.Lookup("/a/b/c"); err != nil {
		t.Fatal(err)
	}
	cmd := Cmd{Kind: CmdSetPerm, ID: 2, Perm: types.PermAll, Path: "/a"}
	r.Apply(1, cmd.Encode())
	r.inv.WaitIdle()
	if r.cache.Len() != 0 {
		t.Fatal("cache survived setperm invalidation")
	}
}

func TestRmdirExactInvalidation(t *testing.T) {
	r := newTestReplica(t, 1)
	// Cache prefix /a/b via a lookup of /a/b/c.
	if _, err := r.Lookup("/a/b/c"); err != nil {
		t.Fatal(err)
	}
	// Remove /a/b/c (leaf), then /a/b. Removing /a/b must drop the
	// cached /a/b entry without any RemovalList traffic.
	r.Apply(1, Cmd{Kind: CmdRemoveDir, Pid: 3, Name: "c", ID: 4, Path: "/a/b/c"}.Encode())
	r.Apply(2, Cmd{Kind: CmdRemoveDir, Pid: 2, Name: "b", ID: 3, Path: "/a/b"}.Encode())
	if r.cache.Len() != 0 {
		t.Fatalf("stale cache after rmdir: %d entries", r.cache.Len())
	}
	if r.inv.RemovalLen() != 0 {
		t.Fatal("rmdir touched the RemovalList")
	}
	// Recreate /a/b with a new ID; lookups must see the new directory.
	r.Apply(3, Cmd{Kind: CmdAddDir, Pid: 2, Name: "b", ID: 77, Perm: types.PermAll}.Encode())
	res, err := r.Lookup("/a/b")
	if err != nil || res.ID != 77 {
		t.Fatalf("recreated dir: %+v err=%v", res, err)
	}
}

func TestPrepareRenameLoopDetection(t *testing.T) {
	r := newTestReplica(t, 1)
	// Renaming /a under /a/b/c is a loop.
	_, err := r.PrepareRename("/a", "/a/b/c", "a2", "u1")
	if !errors.Is(err, types.ErrLoop) {
		t.Fatalf("loop: %v", err)
	}
	// Lock and RemovalList must be clean after the failed prepare.
	if r.inv.RemovalLen() != 0 {
		t.Fatal("RemovalList leaked")
	}
	if r.IsLocked(2, "other") {
		t.Fatal("lock leaked")
	}
	// Renaming root fails.
	if _, err := r.PrepareRename("/", "/x", "r", "u1"); !errors.Is(err, types.ErrLoop) {
		t.Fatalf("rename root: %v", err)
	}
	// Valid rename prepares.
	prep, err := r.PrepareRename("/a/b", "/x", "b2", "u2")
	if err != nil {
		t.Fatal(err)
	}
	if prep.SrcID != 3 || prep.DstPid != 5 || prep.SrcPid != 2 {
		t.Fatalf("prep = %+v", prep)
	}
	if r.inv.RemovalLen() != 1 {
		t.Fatal("src path not in RemovalList")
	}
	// A second rename of the same source conflicts on the lock.
	if _, err := r.PrepareRename("/a/b", "/x", "b3", "u3"); !errors.Is(err, types.ErrLocked) {
		t.Fatalf("concurrent rename: %v", err)
	}
	// Idempotent retry with the same UUID succeeds.
	if _, err := r.PrepareRename("/a/b", "/x", "b2", "u2"); err != nil {
		t.Fatalf("idempotent retry: %v", err)
	}
	// Commit clears lock and invalidates.
	r.Apply(1, Cmd{Kind: CmdRename, Pid: prep.SrcPid, Name: prep.SrcName, ID: prep.SrcID,
		Perm: prep.SrcPerm, DstPid: prep.DstPid, DstName: "b2", Path: "/a/b", LockID: "u2"}.Encode())
	r.inv.WaitIdle()
	if r.inv.RemovalLen() != 0 {
		t.Fatal("RemovalList not drained after commit")
	}
	if r.IsLocked(3, "someone-else") {
		t.Fatal("lock survived commit")
	}
	res, err := r.Lookup("/x/b2/c")
	if err != nil || res.ID != 4 {
		t.Fatalf("post-rename lookup: %+v err=%v", res, err)
	}
}

func TestPrepareRenameLockedAncestorOnDstChain(t *testing.T) {
	r := newTestReplica(t, 1)
	// Lock /x (id 5) as if a concurrent rename is moving it.
	if err := r.TryLock(5, "other"); err != nil {
		t.Fatal(err)
	}
	// Renaming /a/b into /x/y must observe the locked ancestor /x on
	// the LCA(root)→dst chain and abort.
	_, err := r.PrepareRename("/a/b", "/x/y", "b2", "u1")
	if !errors.Is(err, types.ErrLocked) {
		t.Fatalf("err = %v", err)
	}
	if r.inv.RemovalLen() != 0 {
		t.Fatal("RemovalList leaked after lock conflict")
	}
}

func TestPrepareRenameDstExists(t *testing.T) {
	r := newTestReplica(t, 1)
	if _, err := r.PrepareRename("/a/b", "/", "x", "u1"); !errors.Is(err, types.ErrExists) {
		t.Fatalf("err = %v", err)
	}
}

func TestAbortRenameUnwinds(t *testing.T) {
	r := newTestReplica(t, 1)
	prep, err := r.PrepareRename("/a/b", "/x", "b2", "u1")
	if err != nil {
		t.Fatal(err)
	}
	r.AbortRename(prep.SrcID, "/a/b", "u1")
	if r.inv.RemovalLen() != 0 {
		t.Fatal("RemovalList not cleared")
	}
	// The source can now be renamed by someone else.
	if _, err := r.PrepareRename("/a/b", "/x", "b3", "u2"); err != nil {
		t.Fatalf("rename after abort: %v", err)
	}
}

func TestInvalidatorBlocked(t *testing.T) {
	cache := radix.NewCache[CacheEntry]()
	inv := NewInvalidator(cache)
	defer inv.Stop()
	if inv.Blocked("/a/b") {
		t.Fatal("empty invalidator blocks")
	}
	inv.BeginModification("/a")
	for _, p := range []string{"/a", "/a/b", "/a/b/c"} {
		if !inv.Blocked(p) {
			t.Fatalf("%s not blocked", p)
		}
	}
	for _, p := range []string{"/ab", "/x", "/"} {
		if inv.Blocked(p) {
			t.Fatalf("%s blocked", p)
		}
	}
	inv.AbortModification("/a")
	if inv.Blocked("/a/b") {
		t.Fatal("blocked after abort")
	}
}

func TestInvalidatorSubtreeEviction(t *testing.T) {
	cache := radix.NewCache[CacheEntry]()
	inv := NewInvalidator(cache)
	defer inv.Stop()
	for _, p := range []string{"/a/b", "/a/b/c", "/a/d", "/x/y"} {
		cache.Fill(p, CacheEntry{ID: 1}, cache.Epoch())
	}
	inv.BeginModification("/a/b")
	inv.Invalidate("/a/b")
	inv.WaitIdle()
	if _, ok := cache.Get("/a/b"); ok {
		t.Fatal("/a/b survived")
	}
	if _, ok := cache.Get("/a/b/c"); ok {
		t.Fatal("/a/b/c survived")
	}
	if _, ok := cache.Get("/a/d"); !ok {
		t.Fatal("/a/d evicted wrongly")
	}
	if _, ok := cache.Get("/x/y"); !ok {
		t.Fatal("/x/y evicted wrongly")
	}
}

func TestLookupCacheDisabled(t *testing.T) {
	r := NewReplica(1, false)
	defer r.Close()
	buildTree(r.Table())
	for i := 0; i < 3; i++ {
		res, err := r.Lookup("/a/b/c")
		if err != nil {
			t.Fatal(err)
		}
		if res.Hit || res.Levels != 3 {
			t.Fatalf("iteration %d: %+v (cache should be off)", i, res)
		}
	}
	if r.cache.Len() != 0 {
		t.Fatal("cache filled while disabled")
	}
}

func TestBulkAddVisible(t *testing.T) {
	r := NewReplica(3, true)
	defer r.Close()
	var entries []types.AccessEntry
	id := types.InodeID(2)
	pid := types.RootID
	for i := 0; i < 5; i++ {
		entries = append(entries, types.AccessEntry{
			Pid: pid, Name: fmt.Sprintf("d%d", i), ID: id, Perm: types.PermAll,
		})
		pid = id
		id++
	}
	r.BulkAdd(entries)
	res, err := r.Lookup("/d0/d1/d2/d3/d4")
	if err != nil {
		t.Fatal(err)
	}
	if res.ID != 6 {
		t.Fatalf("res = %+v", res)
	}
}

func TestReplicaSnapshotRoundTrip(t *testing.T) {
	r := newTestReplica(t, 1)
	// Warm the cache so Restore's invalidation path is exercised.
	if _, err := r.Lookup("/a/b/c"); err != nil {
		t.Fatal(err)
	}
	data := r.Snapshot()

	r2 := NewReplica(1, true)
	defer r2.Close()
	r2.Restore(data)
	if r2.Table().Len() != r.Table().Len() {
		t.Fatalf("restored table len %d != %d", r2.Table().Len(), r.Table().Len())
	}
	res, err := r2.Lookup("/a/b/c")
	if err != nil || res.ID != 4 {
		t.Fatalf("restored lookup = %+v err=%v", res, err)
	}
	// Reverse index rebuilt too (loop detection works).
	if !r2.Table().IsAncestorID(2, 4) {
		t.Fatal("reverse index missing after restore")
	}
	// Restore onto a warm replica drops stale cache.
	if _, err := r.Lookup("/a/b/c"); err != nil {
		t.Fatal(err)
	}
	r.Restore(data)
	if r.Cache().Len() != 0 {
		t.Fatalf("cache kept %d entries across restore", r.Cache().Len())
	}
}

// TestRestoreRejectsTruncatedSnapshot: a snapshot that does not decode
// exactly is state divergence, as a corrupt command is in Apply. Restore
// panics naming the offset and leaves the replica's table as it was; it
// must not install the prefix it could read.
func TestRestoreRejectsTruncatedSnapshot(t *testing.T) {
	src := NewReplica(1, false)
	defer src.Close()
	src.BulkAdd([]types.AccessEntry{
		{Pid: types.RootID, Name: "a", ID: 2, Perm: types.PermAll},
		{Pid: 2, Name: "b", ID: 3, Perm: types.PermAll},
		{Pid: 3, Name: "c", ID: 4, Perm: types.PermAll},
	})
	good := src.Snapshot()
	overcounted := bytes.Clone(good)
	binary.LittleEndian.PutUint64(overcounted, 4)
	for _, c := range []struct {
		name, want string
		data       []byte
	}{
		{"last byte missing", "truncated at offset", good[:len(good)-1]},
		{"count says 4, holds 3", fmt.Sprintf("entry 3 of 4 truncated at offset %d", len(good)), overcounted},
		{"trailing byte", fmt.Sprintf("trailing bytes at offset %d", len(good)), append(bytes.Clone(good), 0)},
		{"no header", "truncated entry count at offset 0", good[:5]},
	} {
		r := NewReplica(1, false)
		r.BulkAdd([]types.AccessEntry{{Pid: types.RootID, Name: "keep", ID: 9, Perm: types.PermAll}})
		msg := func() (msg string) {
			defer func() { msg = fmt.Sprint(recover()) }()
			r.Restore(c.data)
			return ""
		}()
		if !strings.Contains(msg, "indexnode: restore: ") || !strings.Contains(msg, c.want) {
			t.Errorf("%s: Restore said %q (table now %d entries), want a panic with %q", c.name, msg, r.Table().Len(), c.want)
		}
		if _, ok := r.Table().Get(types.RootID, "keep"); !ok || r.Table().Len() != 1 {
			t.Errorf("%s: a rejected snapshot replaced the table (%d entries)", c.name, r.Table().Len())
		}
		r.Close()
	}
	dst := NewReplica(1, false)
	defer dst.Close()
	dst.Restore(good)
	if dst.Table().Len() != 3 {
		t.Fatalf("intact snapshot restored %d entries, want 3", dst.Table().Len())
	}
}

func TestGroupLogCompactionUnderLoad(t *testing.T) {
	g, caller := newTestGroup(t, func(c *Config) {
		c.Raft.SnapshotThreshold = 32
		c.Raft.BatchEnabled = true
	})
	for i := 0; i < 150; i++ {
		if err := g.AddDir(caller.Begin(), types.RootID, fmt.Sprintf("d%d", i),
			types.InodeID(100+i), types.PermAll, ""); err != nil {
			t.Fatal(err)
		}
	}
	// All replicas still resolve everything.
	for i := 0; i < 150; i += 37 {
		res, err := g.Lookup(caller.Begin(), fmt.Sprintf("/d%d", i))
		if err != nil || res.ID != types.InodeID(100+i) {
			t.Fatalf("lookup d%d: %+v err=%v", i, res, err)
		}
	}
}

// TestCmdAndSnapshotGoldenBytes pins the two layouts that outlive a
// process: a command is in the raft log and a snapshot replaces it, so a
// build must decode what an earlier build encoded, byte for byte.
func TestCmdAndSnapshotGoldenBytes(t *testing.T) {
	for _, c := range []struct {
		cmd    Cmd
		golden string
	}{
		{Cmd{Kind: CmdAddDir, Pid: 1, Name: "logs", ID: 42, Perm: types.PermAll},
			"0101000000000000002a0000000000000000000000000000000700040000006c6f6773000000000000000000000000"},
		{Cmd{Kind: CmdRemoveDir, Pid: 42, Name: "tmp", ID: 77, Path: "/logs/tmp"},
			"022a000000000000004d000000000000000000000000000000000003000000746d7000000000090000002f6c6f67732f746d7000000000"},
		{Cmd{Kind: CmdRename, Pid: 1, Name: "a", ID: 300, DstPid: 42, DstName: "bé", Path: "/a", LockID: "req-7"},
			"0301000000000000002c010000000000002a00000000000000000001000000610300000062c3a9020000002f61050000007265712d37"},
		{Cmd{Kind: CmdSetPerm, Pid: 1, Name: "logs", ID: 42, Perm: types.PermRead, Path: "/logs"},
			"0401000000000000002a0000000000000000000000000000000200040000006c6f677300000000050000002f6c6f677300000000"},
	} {
		if got := hex.EncodeToString(c.cmd.Encode()); got != c.golden {
			t.Errorf("kind %d: Encode = %s, want %s", c.cmd.Kind, got, c.golden)
		}
		raw, _ := hex.DecodeString(c.golden)
		if got, err := DecodeCmd(raw); err != nil || got != c.cmd {
			t.Errorf("kind %d: DecodeCmd = %+v, %v; want %+v", c.cmd.Kind, got, err, c.cmd)
		}
	}

	const snap = "020000000000000001000000000000000200000000000000070001000000610200000000000000030000000000000002000300000062c3a9"
	entries := []types.AccessEntry{
		{Pid: types.RootID, Name: "a", ID: 2, Perm: types.PermAll},
		{Pid: 2, Name: "bé", ID: 3, Perm: types.PermRead},
	}
	src := NewReplica(1, false)
	defer src.Close()
	src.BulkAdd(entries)
	if got := hex.EncodeToString(src.Snapshot()); got != snap {
		t.Errorf("Snapshot = %s, want %s", got, snap)
	}
	dst := NewReplica(1, false)
	defer dst.Close()
	raw, _ := hex.DecodeString(snap)
	dst.Restore(raw)
	for _, e := range entries {
		if got, ok := dst.Table().Get(e.Pid, e.Name); !ok || got != e {
			t.Errorf("restored %d/%q = %+v, %v; want %+v", e.Pid, e.Name, got, ok, e)
		}
	}
	if dst.Table().Len() != len(entries) {
		t.Errorf("restored %d entries, want %d", dst.Table().Len(), len(entries))
	}
}

func FuzzDecodeCmd(f *testing.F) {
	// Seed with valid encodings and mutations thereof.
	for _, c := range []Cmd{
		{Kind: CmdAddDir, Pid: 1, Name: "a", ID: 2, Perm: types.PermAll},
		{Kind: CmdRename, Pid: 1, Name: "x", ID: 9, DstPid: 3, DstName: "y", Path: "/x", LockID: "u"},
	} {
		f.Add(c.Encode())
	}
	f.Add([]byte{})
	f.Add([]byte{0xff, 0x00, 0x01})
	f.Fuzz(func(t *testing.T, data []byte) {
		// Must never panic; on success, re-encoding the decoded command
		// must decode to the same value.
		c, err := DecodeCmd(data)
		if err != nil {
			return
		}
		c2, err := DecodeCmd(c.Encode())
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if c2 != c {
			t.Fatalf("re-decode mismatch: %+v vs %+v", c2, c)
		}
	})
}

// FuzzRestore: a snapshot that does not decode exactly panics with
// Restore's own message — never a runtime out-of-range — and one that
// does restores the same table its own snapshot restores.
func FuzzRestore(f *testing.F) {
	src := NewReplica(1, false)
	src.BulkAdd([]types.AccessEntry{
		{Pid: types.RootID, Name: "a", ID: 2, Perm: types.PermAll},
		{Pid: 2, Name: "bé", ID: 3, Perm: types.PermRead},
	})
	f.Add(src.Snapshot())
	src.Close()
	f.Add(make([]byte, 8)) // no entries
	f.Add([]byte{})
	f.Add(append(binary.LittleEndian.AppendUint64(nil, 1<<60), 1, 2, 3))
	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewReplica(1, false)
		defer r.Close()
		defer func() {
			if p := recover(); p != nil && !strings.HasPrefix(fmt.Sprint(p), "indexnode: restore: ") {
				panic(p)
			}
		}()
		r.Restore(data)
		again := NewReplica(1, false)
		defer again.Close()
		again.Restore(r.Snapshot())
		if again.Table().Len() != r.Table().Len() {
			t.Fatalf("snapshot of %d entries restored %d", r.Table().Len(), again.Table().Len())
		}
		r.Table().ForEach(func(e types.AccessEntry) bool {
			if got, ok := again.Table().Get(e.Pid, e.Name); !ok || got != e {
				t.Fatalf("entry %+v came back as %+v, %v", e, got, ok)
			}
			return true
		})
	})
}

func TestRacingRenameAbortKeepsProtection(t *testing.T) {
	// Two renames race on the same source; the loser's unwind must not
	// strip the winner's RemovalList registration (registrations are
	// reference-counted).
	r := newTestReplica(t, 1)
	if _, err := r.PrepareRename("/a/b", "/x", "b2", "winner"); err != nil {
		t.Fatal(err)
	}
	if r.Invalidator().RemovalLen() != 1 {
		t.Fatal("winner not registered")
	}
	// Loser hits the lock and unwinds.
	if _, err := r.PrepareRename("/a/b", "/x", "b3", "loser"); !errors.Is(err, types.ErrLocked) {
		t.Fatalf("loser err = %v", err)
	}
	// The winner's protection must survive the loser's abort.
	if r.Invalidator().RemovalLen() != 1 {
		t.Fatalf("RemovalList len = %d after loser abort", r.Invalidator().RemovalLen())
	}
	if !r.Invalidator().Blocked("/a/b/c") {
		t.Fatal("subtree no longer shielded from caching")
	}
	// Winner commits; everything drains.
	r.Apply(1, Cmd{Kind: CmdRename, Pid: 2, Name: "b", ID: 3, Perm: types.PermAll,
		DstPid: 5, DstName: "b2", Path: "/a/b", LockID: "winner"}.Encode())
	r.inv.WaitIdle()
	if r.Invalidator().RemovalLen() != 0 {
		t.Fatalf("RemovalList not drained: %d", r.Invalidator().RemovalLen())
	}
}

func TestIdempotentPrepareDoesNotDoubleRegister(t *testing.T) {
	r := newTestReplica(t, 1)
	// A crashed proxy's successor retries with the same UUID (§5.3).
	if _, err := r.PrepareRename("/a/b", "/x", "b2", "u1"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.PrepareRename("/a/b", "/x", "b2", "u1"); err != nil {
		t.Fatal(err)
	}
	if r.Invalidator().RemovalLen() != 1 {
		t.Fatalf("RemovalList len = %d", r.Invalidator().RemovalLen())
	}
	// One abort fully releases it (single live registration).
	r.AbortRename(3, "/a/b", "u1")
	if r.Invalidator().RemovalLen() != 0 {
		t.Fatalf("leaked registration: %d", r.Invalidator().RemovalLen())
	}
	// A different rename can now proceed.
	if _, err := r.PrepareRename("/a/b", "/x", "b9", "u2"); err != nil {
		t.Fatal(err)
	}
}
