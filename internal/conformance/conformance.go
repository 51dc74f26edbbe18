// Package conformance provides a behavioural test suite that every
// metadata service in this repository (Mantle and the three baselines)
// must pass. It drives the api.Service interface through the same
// scenarios so that the benchmark comparisons exercise systems with
// equivalent semantics. Services declare capability deviations (the
// relaxed Tectonic re-implementation performs no rename loop detection)
// via Caps.
package conformance

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"mantle/internal/api"
	"mantle/internal/rpc"
	"mantle/internal/types"
)

// Caps declares behavioural capabilities of a service under test.
type Caps struct {
	// LoopDetection: DirRename rejects renames that would create a
	// cycle. The relaxed Tectonic re-implementation lacks this.
	LoopDetection bool
}

// Run executes the full conformance suite against a fresh service per
// subtest.
func Run(t *testing.T, caps Caps, factory func(t *testing.T) api.Service) {
	t.Helper()
	sub := func(name string, fn func(t *testing.T, s api.Service)) {
		t.Run(name, func(t *testing.T) {
			s := factory(t)
			t.Cleanup(s.Stop)
			fn(t, s)
		})
	}

	sub("ObjectLifecycle", func(t *testing.T, s api.Service) {
		mustMkdirAll(t, s, "/a/b/c")
		op := begin(s)
		if _, err := s.Create(op, "/a/b/c/o1", 512); err != nil {
			t.Fatal(err)
		}
		res, err := s.ObjStat(begin(s), "/a/b/c/o1")
		if err != nil {
			t.Fatal(err)
		}
		if res.Entry.Attr.Size != 512 {
			t.Fatalf("size = %d", res.Entry.Attr.Size)
		}
		if _, err := s.Create(begin(s), "/a/b/c/o1", 1); !errors.Is(err, types.ErrExists) {
			t.Fatalf("dup create: %v", err)
		}
		if _, err := s.Delete(begin(s), "/a/b/c/o1"); err != nil {
			t.Fatal(err)
		}
		if _, err := s.ObjStat(begin(s), "/a/b/c/o1"); !errors.Is(err, types.ErrNotFound) {
			t.Fatalf("stat after delete: %v", err)
		}
	})

	sub("LookupErrors", func(t *testing.T, s api.Service) {
		mustMkdirAll(t, s, "/x/y")
		if _, err := s.Lookup(begin(s), "/x/y"); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Lookup(begin(s), "/x/zzz"); !errors.Is(err, types.ErrNotFound) {
			t.Fatalf("missing: %v", err)
		}
		if _, err := s.Lookup(begin(s), "/x/zzz/deeper"); !errors.Is(err, types.ErrNotFound) {
			t.Fatalf("missing chain: %v", err)
		}
	})

	sub("DirStatLinkCount", func(t *testing.T, s api.Service) {
		mustMkdirAll(t, s, "/d")
		for i := 0; i < 4; i++ {
			if _, err := s.Create(begin(s), fmt.Sprintf("/d/o%d", i), 10); err != nil {
				t.Fatal(err)
			}
		}
		res, err := s.DirStat(begin(s), "/d")
		if err != nil {
			t.Fatal(err)
		}
		if res.Entry.Attr.LinkCount != 4 {
			t.Fatalf("links = %d, want 4", res.Entry.Attr.LinkCount)
		}
	})

	sub("ReadDir", func(t *testing.T, s api.Service) {
		mustMkdirAll(t, s, "/r")
		for i := 0; i < 3; i++ {
			if _, err := s.Create(begin(s), fmt.Sprintf("/r/o%d", i), 1); err != nil {
				t.Fatal(err)
			}
		}
		mustMkdirAll(t, s, "/r/sub")
		_, entries, err := s.ReadDir(begin(s), "/r")
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != 4 {
			t.Fatalf("readdir = %d entries: %v", len(entries), entries)
		}
	})

	sub("RmdirSemantics", func(t *testing.T, s api.Service) {
		mustMkdirAll(t, s, "/m/n")
		if _, err := s.Create(begin(s), "/m/n/o", 1); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Rmdir(begin(s), "/m/n"); !errors.Is(err, types.ErrNotEmpty) {
			t.Fatalf("rmdir non-empty: %v", err)
		}
		if _, err := s.Delete(begin(s), "/m/n/o"); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Rmdir(begin(s), "/m/n"); err != nil {
			t.Fatalf("rmdir empty: %v", err)
		}
		if _, err := s.Lookup(begin(s), "/m/n"); !errors.Is(err, types.ErrNotFound) {
			t.Fatalf("lookup after rmdir: %v", err)
		}
	})

	// Rejected mutations must not move the link count that Rmdir's
	// emptiness check reads, nor claim a name in the other half of the
	// namespace (objects vs directories).
	sub("FailedOpsLeaveNoTrace", func(t *testing.T, s api.Service) {
		mustMkdirAll(t, s, "/d/sub")
		if _, err := s.Create(begin(s), "/d/o", 1); err != nil {
			t.Fatal(err)
		}
		failures := []struct {
			name string
			run  func() (types.Result, error)
			want error
		}{
			{"delete missing", func() (types.Result, error) { return s.Delete(begin(s), "/d/missing") }, types.ErrNotFound},
			{"duplicate create", func() (types.Result, error) { return s.Create(begin(s), "/d/o", 1) }, types.ErrExists},
			{"mkdir over object", func() (types.Result, error) { return s.Mkdir(begin(s), "/d/o") }, types.ErrExists},
			{"create over directory", func() (types.Result, error) { return s.Create(begin(s), "/d/sub", 1) }, types.ErrExists},
			{"rmdir missing", func() (types.Result, error) { return s.Rmdir(begin(s), "/d/missing") }, types.ErrNotFound},
		}
		for _, f := range failures {
			if _, err := f.run(); !errors.Is(err, f.want) {
				t.Fatalf("%s: err = %v, want %v", f.name, err, f.want)
			}
		}
		if _, err := s.Rmdir(begin(s), "/d/sub"); err != nil {
			t.Fatal(err)
		}
		res, err := s.DirStat(begin(s), "/d")
		if err != nil {
			t.Fatal(err)
		}
		if res.Entry.Attr.LinkCount != 1 {
			t.Fatalf("links after failed ops = %d, want 1 (the object)", res.Entry.Attr.LinkCount)
		}
		if _, err := s.Rmdir(begin(s), "/d"); !errors.Is(err, types.ErrNotEmpty) {
			t.Fatalf("rmdir of a directory still holding an object: %v", err)
		}
	})

	sub("RenameMovesSubtree", func(t *testing.T, s api.Service) {
		mustMkdirAll(t, s, "/src/job/deep")
		mustMkdirAll(t, s, "/dst")
		if _, err := s.Create(begin(s), "/src/job/deep/o", 99); err != nil {
			t.Fatal(err)
		}
		if _, err := s.DirRename(begin(s), "/src/job", "/dst/done"); err != nil {
			t.Fatal(err)
		}
		res, err := s.ObjStat(begin(s), "/dst/done/deep/o")
		if err != nil {
			t.Fatal(err)
		}
		if res.Entry.Attr.Size != 99 {
			t.Fatalf("moved object = %+v", res.Entry)
		}
		if _, err := s.Lookup(begin(s), "/src/job"); !errors.Is(err, types.ErrNotFound) {
			t.Fatalf("old path: %v", err)
		}
	})

	sub("RenameDstExists", func(t *testing.T, s api.Service) {
		mustMkdirAll(t, s, "/p/one")
		mustMkdirAll(t, s, "/p/two")
		if _, err := s.DirRename(begin(s), "/p/one", "/p/two"); !errors.Is(err, types.ErrExists) {
			t.Fatalf("rename onto existing: %v", err)
		}
	})

	if caps.LoopDetection {
		sub("RenameLoopRejected", func(t *testing.T, s api.Service) {
			mustMkdirAll(t, s, "/l/a/b")
			if _, err := s.DirRename(begin(s), "/l/a", "/l/a/b/under"); !errors.Is(err, types.ErrLoop) {
				t.Fatalf("loop rename: %v", err)
			}
			// The namespace is intact afterwards.
			if _, err := s.Lookup(begin(s), "/l/a/b"); err != nil {
				t.Fatalf("namespace damaged after rejected rename: %v", err)
			}
		})
	}

	sub("ConcurrentCreatesSharedDir", func(t *testing.T, s api.Service) {
		mustMkdirAll(t, s, "/shared")
		const goroutines, each = 8, 20
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < each; i++ {
					if _, err := s.Create(begin(s), fmt.Sprintf("/shared/o-%d-%d", g, i), 1); err != nil {
						t.Errorf("create: %v", err)
						return
					}
				}
			}(g)
		}
		wg.Wait()
		res, err := s.DirStat(begin(s), "/shared")
		if err != nil {
			t.Fatal(err)
		}
		if res.Entry.Attr.LinkCount != goroutines*each {
			t.Fatalf("links = %d, want %d", res.Entry.Attr.LinkCount, goroutines*each)
		}
	})

	sub("ConcurrentMkdirsSharedParent", func(t *testing.T, s api.Service) {
		mustMkdirAll(t, s, "/mk")
		const goroutines, each = 6, 10
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < each; i++ {
					if _, err := s.Mkdir(begin(s), fmt.Sprintf("/mk/d-%d-%d", g, i)); err != nil {
						t.Errorf("mkdir: %v", err)
						return
					}
				}
			}(g)
		}
		wg.Wait()
		_, entries, err := s.ReadDir(begin(s), "/mk")
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != goroutines*each {
			t.Fatalf("children = %d, want %d", len(entries), goroutines*each)
		}
	})

	sub("PopulateThenOperate", func(t *testing.T, s api.Service) {
		dirs := []api.PopDir{
			{Path: "/pop", ID: 1000, Pid: types.RootID},
			{Path: "/pop/l1", ID: 1001, Pid: 1000},
			{Path: "/pop/l1/l2", ID: 1002, Pid: 1001},
		}
		objs := []api.PopObject{
			{Pid: 1002, Name: "obj", Size: 321},
		}
		if err := s.Populate(dirs, objs); err != nil {
			t.Fatal(err)
		}
		res, err := s.ObjStat(begin(s), "/pop/l1/l2/obj")
		if err != nil {
			t.Fatal(err)
		}
		if res.Entry.Attr.Size != 321 {
			t.Fatalf("populated object = %+v", res.Entry)
		}
		if _, err := s.Create(begin(s), "/pop/l1/l2/new", 1); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Mkdir(begin(s), "/pop/l1/l2/newdir"); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Lookup(begin(s), "/pop/l1/l2/newdir"); err != nil {
			t.Fatal(err)
		}
	})
}

func begin(s api.Service) *rpc.Op { return s.Caller().Begin() }

func mustMkdirAll(t *testing.T, s api.Service, path string) {
	t.Helper()
	if err := MkdirAll(s, path); err != nil {
		t.Fatalf("mkdir all %s: %v", path, err)
	}
}

// MkdirAll creates path and its missing ancestors through the service's
// transactional interface.
func MkdirAll(s api.Service, path string) error {
	comps := splitComps(path)
	cur := ""
	for _, c := range comps {
		cur += "/" + c
		if _, err := s.Lookup(begin(s), cur); err == nil {
			continue
		}
		if _, err := s.Mkdir(begin(s), cur); err != nil && !errors.Is(err, types.ErrExists) {
			return err
		}
	}
	return nil
}

func splitComps(p string) []string {
	var out []string
	cur := ""
	for i := 0; i < len(p); i++ {
		if p[i] == '/' {
			if cur != "" {
				out = append(out, cur)
				cur = ""
			}
			continue
		}
		cur += string(p[i])
	}
	if cur != "" {
		out = append(out, cur)
	}
	return out
}
