package core

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"mantle/internal/api"
	"mantle/internal/faults"
	"mantle/internal/indexnode"
	"mantle/internal/raft"
	"mantle/internal/rpc"
	"mantle/internal/tafdb"
	"mantle/internal/types"
)

func newTestMantle(t *testing.T, mutate func(*Config)) *Mantle {
	t.Helper()
	cfg := Config{
		TafDB: tafdb.Config{Shards: 4, Delta: tafdb.DeltaAuto},
		Index: indexnode.Config{Voters: 3, K: 2, CacheEnabled: true, Raft: raft.Config{BatchEnabled: true}},
	}
	if mutate != nil {
		mutate(&cfg)
	}
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Stop)
	return m
}

func op(m *Mantle) *rpc.Op { return m.Caller().Begin() }

func TestEndToEndObjectLifecycle(t *testing.T) {
	m := newTestMantle(t, nil)
	if _, err := m.Mkdir(op(m), "/data"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Mkdir(op(m), "/data/set1"); err != nil {
		t.Fatal(err)
	}
	res, err := m.Create(op(m), "/data/set1/obj1", 4096)
	if err != nil {
		t.Fatal(err)
	}
	if res.Entry.Kind != types.KindObject {
		t.Fatalf("entry = %+v", res.Entry)
	}
	stat, err := m.ObjStat(op(m), "/data/set1/obj1")
	if err != nil {
		t.Fatal(err)
	}
	if stat.Entry.Attr.Size != 4096 {
		t.Fatalf("size = %d", stat.Entry.Attr.Size)
	}
	// objstat = 1 lookup RPC + 1 TafDB RPC.
	if stat.RTTs != 2 {
		t.Fatalf("objstat RTTs = %d, want 2", stat.RTTs)
	}
	ds, err := m.DirStat(op(m), "/data/set1")
	if err != nil {
		t.Fatal(err)
	}
	if ds.Entry.Attr.LinkCount != 1 {
		t.Fatalf("dir links = %d", ds.Entry.Attr.LinkCount)
	}
	_, entries, err := m.ReadDir(op(m), "/data/set1")
	if err != nil || len(entries) != 1 || entries[0].Name != "obj1" {
		t.Fatalf("readdir = %v err=%v", entries, err)
	}
	if _, err := m.Delete(op(m), "/data/set1/obj1"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.ObjStat(op(m), "/data/set1/obj1"); !errors.Is(err, types.ErrNotFound) {
		t.Fatalf("stat after delete: %v", err)
	}
}

func TestMkdirRmdirLifecycle(t *testing.T) {
	m := newTestMantle(t, nil)
	if _, err := m.Mkdir(op(m), "/a"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Mkdir(op(m), "/a/b"); err != nil {
		t.Fatal(err)
	}
	// Duplicate mkdir fails.
	if _, err := m.Mkdir(op(m), "/a/b"); !errors.Is(err, types.ErrExists) {
		t.Fatalf("dup mkdir: %v", err)
	}
	// rmdir of non-empty fails.
	if _, err := m.Rmdir(op(m), "/a"); !errors.Is(err, types.ErrNotEmpty) {
		t.Fatalf("rmdir non-empty: %v", err)
	}
	if _, err := m.Rmdir(op(m), "/a/b"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Rmdir(op(m), "/a"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Lookup(op(m), "/a"); !errors.Is(err, types.ErrNotFound) {
		t.Fatalf("lookup after rmdir: %v", err)
	}
}

func TestDirRenameEndToEnd(t *testing.T) {
	m := newTestMantle(t, nil)
	for _, p := range []string{"/src", "/src/job", "/out"} {
		if _, err := m.Mkdir(op(m), p); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.Create(op(m), "/src/job/part-0", 100); err != nil {
		t.Fatal(err)
	}
	res, err := m.DirRename(op(m), "/src/job", "/out/job-final")
	if err != nil {
		t.Fatal(err)
	}
	// Paper: lookup phase is zero (merged into loop detection).
	if res.Phases[types.PhaseLookup] != 0 {
		t.Fatalf("rename lookup phase = %v, want 0", res.Phases[types.PhaseLookup])
	}
	if res.Phases[types.PhaseLoopDetect] == 0 {
		t.Fatal("rename loop-detect phase not recorded")
	}
	// Contents moved with the directory.
	stat, err := m.ObjStat(op(m), "/out/job-final/part-0")
	if err != nil {
		t.Fatal(err)
	}
	if stat.Entry.Attr.Size != 100 {
		t.Fatalf("moved object = %+v", stat.Entry)
	}
	if _, err := m.Lookup(op(m), "/src/job"); !errors.Is(err, types.ErrNotFound) {
		t.Fatalf("old path: %v", err)
	}
	// Loop rename rejected.
	if _, err := m.Mkdir(op(m), "/out/job-final/sub"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.DirRename(op(m), "/out", "/out/job-final/sub/loop"); !errors.Is(err, types.ErrLoop) {
		t.Fatalf("loop: %v", err)
	}
}

func TestConcurrentRenamesIntoSharedDir(t *testing.T) {
	// The Spark-commit pattern: tasks rename temp dirs into one shared
	// output directory concurrently. All must succeed exactly once.
	m := newTestMantle(t, nil)
	if _, err := m.Mkdir(op(m), "/tmp"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Mkdir(op(m), "/output"); err != nil {
		t.Fatal(err)
	}
	const tasks = 24
	for i := 0; i < tasks; i++ {
		if _, err := m.Mkdir(op(m), fmt.Sprintf("/tmp/task-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for i := 0; i < tasks; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			src := fmt.Sprintf("/tmp/task-%d", i)
			dst := fmt.Sprintf("/output/part-%d", i)
			if _, err := m.DirRename(op(m), src, dst); err != nil {
				t.Errorf("rename %s: %v", src, err)
			}
		}(i)
	}
	wg.Wait()
	_, entries, err := m.ReadDir(op(m), "/output")
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != tasks {
		t.Fatalf("output has %d entries, want %d", len(entries), tasks)
	}
	ds, err := m.DirStat(op(m), "/output")
	if err != nil {
		t.Fatal(err)
	}
	if ds.Entry.Attr.LinkCount != tasks {
		t.Fatalf("output links = %d, want %d", ds.Entry.Attr.LinkCount, tasks)
	}
}

func TestConcurrentRenamesOfSameSource(t *testing.T) {
	// Exactly one of N racing renames of the same source must win.
	m := newTestMantle(t, nil)
	for _, p := range []string{"/s", "/s/d", "/o"} {
		if _, err := m.Mkdir(op(m), p); err != nil {
			t.Fatal(err)
		}
	}
	const racers = 8
	var wg sync.WaitGroup
	var successes, failures int
	var mu sync.Mutex
	for i := 0; i < racers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, err := m.DirRename(op(m), "/s/d", fmt.Sprintf("/o/d%d", i))
			mu.Lock()
			defer mu.Unlock()
			if err == nil {
				successes++
			} else if errors.Is(err, types.ErrNotFound) || errors.Is(err, types.ErrLocked) ||
				errors.Is(err, types.ErrRetryExhausted) {
				failures++
			} else {
				t.Errorf("unexpected error: %v", err)
			}
		}(i)
	}
	wg.Wait()
	if successes != 1 {
		t.Fatalf("successes = %d (failures %d), want exactly 1", successes, failures)
	}
}

func TestPopulateThenOperate(t *testing.T) {
	m := newTestMantle(t, nil)
	dirs := []api.PopDir{
		{Path: "/d0", ID: 100, Pid: types.RootID},
		{Path: "/d0/d1", ID: 101, Pid: 100},
		{Path: "/d0/d1/d2", ID: 102, Pid: 101},
	}
	objs := []api.PopObject{{Pid: 102, Name: "o", Size: 7}}
	if err := m.Populate(dirs, objs); err != nil {
		t.Fatal(err)
	}
	st, err := m.ObjStat(op(m), "/d0/d1/d2/o")
	if err != nil || st.Entry.Attr.Size != 7 {
		t.Fatalf("stat = %+v err=%v", st, err)
	}
	// New transactional ops coexist with populated state (IDs reserved).
	if _, err := m.Mkdir(op(m), "/d0/d1/d2/new"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Create(op(m), "/d0/d1/d2/new/obj", 1); err != nil {
		t.Fatal(err)
	}
}

func TestSetPermEnforced(t *testing.T) {
	m := newTestMantle(t, nil)
	for _, p := range []string{"/p", "/p/q"} {
		if _, err := m.Mkdir(op(m), p); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.Create(op(m), "/p/q/o", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := m.SetPerm(op(m), "/p", types.PermRead); err != nil {
		t.Fatal(err)
	}
	if _, err := m.ObjStat(op(m), "/p/q/o"); !errors.Is(err, types.ErrPermission) {
		t.Fatalf("stat through no-lookup dir: %v", err)
	}
	if _, err := m.SetPerm(op(m), "/p", types.PermAll); err != nil {
		t.Fatal(err)
	}
	if _, err := m.ObjStat(op(m), "/p/q/o"); err != nil {
		t.Fatalf("stat after restore: %v", err)
	}
}

func TestSharedTafDBMultiNamespace(t *testing.T) {
	// Two namespaces share one TafDB (the paper's deployment model):
	// each gets its own IndexNode group and root.
	db := tafdb.New(tafdb.Config{Shards: 4})
	defer db.Stop()
	if err := db.CreateRoot(types.RootID); err != nil {
		t.Fatal(err)
	}
	mkNS := func(name string) *Mantle {
		cfg := Config{
			Index: indexnode.Config{Voters: 1, K: 2, CacheEnabled: true, Name: name},
		}
		m, err := NewWithDB(cfg, db)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(m.Stop)
		return m
	}
	// Namespace roots must be distinct directories in the shared DB; use
	// per-namespace root dirs under the global root.
	ns1 := mkNS("ns1")
	ns2 := mkNS("ns2")
	if _, err := ns1.Mkdir(op(ns1), "/ns1data"); err != nil {
		t.Fatal(err)
	}
	if _, err := ns2.Mkdir(op(ns2), "/ns2data"); err != nil {
		t.Fatal(err)
	}
	// ns2's IndexNode does not know ns1's directories: namespace
	// isolation at the index layer.
	if _, err := ns2.Lookup(op(ns2), "/ns1data"); err == nil {
		t.Fatal("namespace leak: ns2 resolved ns1's directory")
	}
}

func TestIndexNodeLeaderFailover(t *testing.T) {
	m := newTestMantle(t, nil)
	if _, err := m.Mkdir(op(m), "/before"); err != nil {
		t.Fatal(err)
	}
	inj := faults.New(1)
	inj.Attach(m.Caller().Fabric())
	l, err := raft.WaitLeader(m.Index().Rafts(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	inj.Crash(l)
	// Operations continue after re-election: writes retry to the new
	// leader; lookups keep resolving.
	if _, err := m.Mkdir(op(m), "/after"); err != nil {
		t.Fatalf("mkdir after failover: %v", err)
	}
	if _, err := m.Lookup(op(m), "/before"); err != nil {
		t.Fatalf("lookup after failover: %v", err)
	}
	if _, err := m.Create(op(m), "/after/obj", 1); err != nil {
		t.Fatalf("create after failover: %v", err)
	}
	if _, err := m.DirRename(op(m), "/after", "/renamed"); err != nil {
		t.Fatalf("rename after failover: %v", err)
	}
	if _, err := m.ObjStat(op(m), "/renamed/obj"); err != nil {
		t.Fatalf("stat after failover rename: %v", err)
	}
}

func TestProxyCacheSkipsRPCAndInvalidates(t *testing.T) {
	m := newTestMantle(t, func(c *Config) { c.ProxyCache = true })
	for _, p := range []string{"/pc", "/pc/a", "/dst"} {
		if _, err := m.Mkdir(op(m), p); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.Create(op(m), "/pc/a/o", 1); err != nil {
		t.Fatal(err)
	}
	// First stat fills the proxy cache; second uses it (1 RPC: TafDB
	// read only, the lookup RPC is gone).
	if _, err := m.ObjStat(op(m), "/pc/a/o"); err != nil {
		t.Fatal(err)
	}
	r2, err := m.ObjStat(op(m), "/pc/a/o")
	if err != nil {
		t.Fatal(err)
	}
	if r2.RTTs != 1 {
		t.Fatalf("cached objstat RTTs = %d, want 1", r2.RTTs)
	}
	// Rename invalidates the cached subtree: stale hits are impossible.
	if _, err := m.DirRename(op(m), "/pc/a", "/dst/a2"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.ObjStat(op(m), "/pc/a/o"); !errors.Is(err, types.ErrNotFound) {
		t.Fatalf("stale proxy cache served old path: %v", err)
	}
	if _, err := m.ObjStat(op(m), "/dst/a2/o"); err != nil {
		t.Fatalf("new path: %v", err)
	}
}
