package workload

import (
	"strings"
	"testing"

	"mantle/internal/api"
	"mantle/internal/bench"
	"mantle/internal/core"
	"mantle/internal/indexnode"
	"mantle/internal/pathutil"
	"mantle/internal/raft"
	"mantle/internal/tafdb"
	"mantle/internal/types"
)

func TestBuildTreeShape(t *testing.T) {
	ns := Build(TreeSpec{Clients: 4, Depth: 10, ObjectsPerClient: 20})
	if len(ns.WorkDirs) != 4 {
		t.Fatalf("workdirs = %d", len(ns.WorkDirs))
	}
	for _, wd := range ns.WorkDirs {
		if got := pathutil.Depth(wd); got != 10 {
			t.Fatalf("workdir %s depth = %d", wd, got)
		}
	}
	if got := pathutil.Depth(ns.SharedDir); got != 10 {
		t.Fatalf("shared depth = %d", got)
	}
	if len(ns.Objects) != 4*20 {
		t.Fatalf("objects = %d", len(ns.Objects))
	}
	// Every dir's parent precedes it and ids are unique.
	seen := map[types.InodeID]bool{types.RootID: true}
	for _, d := range ns.Dirs {
		if seen[d.ID] {
			t.Fatalf("duplicate id %d", d.ID)
		}
		if !seen[d.Pid] {
			t.Fatalf("dir %s has unseen parent %d", d.Path, d.Pid)
		}
		seen[d.ID] = true
	}
	// Object pids exist.
	for _, o := range ns.Objects {
		if !seen[o.Pid] {
			t.Fatalf("object %s has unseen pid", o.Name)
		}
	}
}

func TestAddChainAndObjects(t *testing.T) {
	ns := Build(TreeSpec{Clients: 1, Depth: 4, ObjectsPerClient: 1})
	leaf := ns.AddChain(7)
	if pathutil.Depth(leaf) != 7 {
		t.Fatalf("chain depth = %d", pathutil.Depth(leaf))
	}
	paths := ns.AddObjects(leaf, 3, 100)
	if len(paths) != 3 {
		t.Fatalf("paths = %v", paths)
	}
	for _, p := range paths {
		if !strings.HasPrefix(p, leaf+"/") {
			t.Fatalf("object path %s not under %s", p, leaf)
		}
	}
}

func newMantle(t *testing.T) api.Service {
	t.Helper()
	m, err := core.New(core.Config{
		TafDB: tafdb.Config{Shards: 4, Delta: tafdb.DeltaAuto},
		Index: indexnode.Config{Voters: 1, K: 2, CacheEnabled: true, Raft: raft.Config{BatchEnabled: true}},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Stop)
	return m
}

func TestMdtestDriversAgainstMantle(t *testing.T) {
	s := newMantle(t)
	ns := Build(TreeSpec{Clients: 4, Depth: 6, ObjectsPerClient: 10})
	if err := ns.Populate(s); err != nil {
		t.Fatal(err)
	}
	const workers, per = 4, 10

	run := func(name string, fn bench.OpFunc) bench.RunResult {
		t.Helper()
		res := bench.RunN(workers, per, fn)
		if res.Errors > 0 {
			t.Fatalf("%s: %d errors", name, res.Errors)
		}
		if res.Ops != workers*per {
			t.Fatalf("%s: ops = %d", name, res.Ops)
		}
		return res
	}

	run("lookup", LookupOp(s, ns))
	run("objstat", ObjStatOp(s, ns))
	run("dirstat", DirStatOp(s, ns))
	run("create", CreateOp(s, ns, "r1"))
	run("delete", DeleteOp(s, ns, "r1"))
	run("mkdir-e", MkdirEOp(s, ns, "r1"))
	run("rmdir-e", RmdirEOp(s, ns, "r1"))
	run("mkdir-s", MkdirSOp(s, ns, "r1"))

	if err := PrepareRenamePingPong(s, ns, workers, "r1"); err != nil {
		t.Fatal(err)
	}
	run("rename-e", RenameEOp(s, ns, "r1"))
	run("rename-s", RenameSOp(s, ns, "r1"))
}

func TestAnalyticsWorkload(t *testing.T) {
	s := newMantle(t)
	rep, err := RunAnalytics(s, AnalyticsConfig{
		Queries: 1, TasksPerQuery: 16, ObjectsPerTask: 2, Workers: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors > 0 {
		t.Fatalf("errors = %d", rep.Errors)
	}
	if rep.Ops["mkdir"].Count() != 16 || rep.Ops["dirrename"].Count() != 16 {
		t.Fatalf("op counts: mkdir=%d rename=%d",
			rep.Ops["mkdir"].Count(), rep.Ops["dirrename"].Count())
	}
	if rep.Ops["create"].Count() != 32 {
		t.Fatalf("creates = %d", rep.Ops["create"].Count())
	}
	if rep.Completion <= 0 {
		t.Fatal("no completion time")
	}
	// Every task's output committed.
	_, entries, err := s.ReadDir(s.Caller().Begin(), "/analytics/out/q0")
	if err != nil || len(entries) != 16 {
		t.Fatalf("committed tasks = %d err=%v", len(entries), err)
	}
}

func TestAudioWorkload(t *testing.T) {
	s := newMantle(t)
	ns := Build(TreeSpec{Clients: 4, Depth: 6, ObjectsPerClient: 8})
	if err := ns.Populate(s); err != nil {
		t.Fatal(err)
	}
	rep, err := RunAudio(s, AudioConfig{
		Inputs: 16, SegmentsPerInput: 2, Workers: 4, Namespace: ns,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors > 0 {
		t.Fatalf("errors = %d", rep.Errors)
	}
	if rep.Ops["objstat"].Count() != 16 {
		t.Fatalf("objstats = %d", rep.Ops["objstat"].Count())
	}
	if rep.Ops["create"].Count() != 32 {
		t.Fatalf("creates = %d", rep.Ops["create"].Count())
	}
}

func TestBushyTree(t *testing.T) {
	ns := Build(TreeSpec{
		Clients: 3, Depth: 10, ObjectsPerClient: 2,
		BranchLevels: 3, BranchFactor: 3,
	})
	if len(ns.LeafDirs) != 3 {
		t.Fatalf("leafdirs = %d", len(ns.LeafDirs))
	}
	for c, leaves := range ns.LeafDirs {
		if len(leaves) != 27 {
			t.Fatalf("client %d has %d leaves, want 27", c, len(leaves))
		}
		for _, l := range leaves {
			if got := pathutil.Depth(l); got != 10 {
				t.Fatalf("leaf %s depth = %d", l, got)
			}
		}
	}
	// Work dir is one of the leaves at full depth.
	if pathutil.Depth(ns.WorkDirs[0]) != 10 {
		t.Fatalf("workdir depth = %d", pathutil.Depth(ns.WorkDirs[0]))
	}
}

func TestBushyLookupAgainstMantle(t *testing.T) {
	s := newMantle(t)
	ns := Build(TreeSpec{
		Clients: 2, Depth: 8, ObjectsPerClient: 1,
		BranchLevels: 2, BranchFactor: 2,
	})
	if err := ns.Populate(s); err != nil {
		t.Fatal(err)
	}
	res := bench.RunN(2, 10, LookupLeafDirOp(s, ns))
	if res.Errors > 0 {
		t.Fatalf("%d errors", res.Errors)
	}
}
