package locofs

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"mantle/internal/api"
	"mantle/internal/conformance"
	"mantle/internal/indexnode"
	"mantle/internal/rpc"
	"mantle/internal/types"
)

func TestConformance(t *testing.T) {
	conformance.Run(t, conformance.Caps{LoopDetection: true}, func(t *testing.T) api.Service {
		s, err := New(Config{Voters: 1})
		if err != nil {
			t.Fatal(err)
		}
		return s
	})
}

func TestSingleRPCLookup(t *testing.T) {
	s, err := New(Config{Voters: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Stop()
	if err := conformance.MkdirAll(s, "/a/b/c/d/e"); err != nil {
		t.Fatal(err)
	}
	op := s.Caller().Begin()
	if _, err := s.Lookup(op, "/a/b/c/d/e"); err != nil {
		t.Fatal(err)
	}
	if op.RTTs() != 1 {
		t.Fatalf("lookup RTTs = %d, want 1 (tiered dir server)", op.RTTs())
	}
}

// tableEntries lists a replica's IndexTable as "pid/name=id" strings.
func tableEntries(rep *indexnode.Replica) map[string]types.InodeID {
	out := map[string]types.InodeID{}
	rep.Table().ForEach(func(e types.AccessEntry) bool {
		out[fmt.Sprintf("%d/%s", e.Pid, e.Name)] = e.ID
		return true
	})
	return out
}

// TestReplicasConvergeAndSurviveLeaderStop: the directory server's tree
// is a replicated indexnode.Group. After a mkdir / rename / rmdir mix
// every replica holds the same entries, the side counters agree with the
// tree, and the namespace keeps serving once the leader is stopped.
func TestReplicasConvergeAndSurviveLeaderStop(t *testing.T) {
	s, err := New(Config{Voters: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Stop()
	begin := func() *rpc.Op { return s.Caller().Begin() }
	for _, p := range []string{"/a/b/c", "/a/d", "/x/y", "/tmp"} {
		if err := conformance.MkdirAll(s, p); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Create(begin(), "/a/d/obj", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := s.DirRename(begin(), "/a/b", "/x/y/b2"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Rmdir(begin(), "/tmp"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.DirRename(begin(), "/x", "/x/y/b2/loop"); !errors.Is(err, types.ErrLoop) {
		t.Fatalf("loop rename: %v", err)
	}

	// Followers apply behind the leader: wait for every log to drain.
	lead := s.dir.Leader()
	want := tableEntries(lead)
	if len(want) != 6 { // a, d, x, y, b2 (was b), c
		t.Fatalf("leader table = %v, want 6 entries", want)
	}
	deadline := time.Now().Add(5 * time.Second)
	for i, rep := range s.dir.Replicas() {
		for !reflect.DeepEqual(tableEntries(rep), want) {
			if time.Now().After(deadline) {
				t.Fatalf("replica %d table = %v, leader has %v", i, tableEntries(rep), want)
			}
			time.Sleep(time.Millisecond)
		}
	}
	// The side counters describe the same tree.
	subs := map[types.InodeID]int64{}
	lead.Table().ForEach(func(e types.AccessEntry) bool {
		subs[e.Pid]++
		return true
	})
	for dir, c := range s.counts.m {
		if c.subs != subs[dir] {
			t.Errorf("dir %d: subdir counter = %d, tree has %d", dir, c.subs, subs[dir])
		}
		delete(subs, dir)
	}
	if len(subs) != 0 {
		t.Errorf("directories with subdirectories but no counter: %v", subs)
	}
	if res, err := s.DirStat(begin(), "/a/d"); err != nil || res.Entry.Attr.LinkCount != 1 {
		t.Fatalf("dirstat /a/d = %+v, %v; want 1 link", res.Entry, err)
	}

	// Stop the leader: a follower takes over with the same tree.
	before, err := s.Lookup(begin(), "/x/y/b2/c")
	if err != nil {
		t.Fatal(err)
	}
	s.dir.KillLeader()
	after, err := s.Lookup(begin(), "/x/y/b2/c")
	if err != nil {
		t.Fatalf("lookup after leader stop: %v", err)
	}
	if s.dir.Leader() == lead {
		t.Fatal("stopped replica still serves as leader")
	}
	if after.Entry != before.Entry {
		t.Fatalf("lookup after leader stop = %+v, before %+v", after.Entry, before.Entry)
	}
	if _, err := s.Mkdir(begin(), "/x/y/b2/c/after"); err != nil {
		t.Fatalf("mkdir after leader stop: %v", err)
	}
	if _, err := s.Rmdir(begin(), "/x/y/b2"); !errors.Is(err, types.ErrNotEmpty) {
		t.Fatalf("rmdir of a non-empty directory after leader stop: %v", err)
	}
}
