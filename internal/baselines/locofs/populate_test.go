package locofs

import (
	"errors"
	"testing"

	"mantle/internal/api"
	"mantle/internal/baselines/dbtable"
	"mantle/internal/baselines/infinifs"
	"mantle/internal/baselines/tectonic"
	"mantle/internal/types"
)

// TestPopulateLinkCountContract holds every baseline to one link-count
// contract for Populate: a count counts the rows that landed — one per
// distinct key, none for a key already held, kept across a re-listed
// directory, and landed on a directory outside the batch. So a directory
// refuses rmdir while any child is left and allows it once the last one
// is deleted. It lives here because LocoFS's counts are private to this
// package; the DBtable systems keep theirs in the directory's row, the
// root's in the synthetic row (0, "/").
func TestPopulateLinkCountContract(t *testing.T) {
	const a = types.InodeID(100)
	dirA := []api.PopDir{{Path: "/a", ID: a, Pid: types.RootID}}
	objs := func(names ...string) []api.PopObject {
		out := make([]api.PopObject, len(names))
		for i, n := range names {
			out[i] = api.PopObject{Pid: a, Name: n, Size: 1}
		}
		return out
	}
	type call struct {
		dirs []api.PopDir
		objs []api.PopObject
	}
	cases := []struct {
		name     string
		calls    []call
		children []string
	}{
		{"duplicate key in one batch", []call{{dirA, objs("x", "x", "y")}}, []string{"x", "y"}},
		{"re-populated object", []call{{dirA, objs("x", "y")}, {nil, objs("x")}}, []string{"x", "y"}},
		{"new object under a directory outside the batch", []call{{dirA, objs("x", "y")}, {nil, objs("z")}}, []string{"x", "y", "z"}},
		{"re-listed directory gains a child", []call{{dirA, objs("x", "y")}, {dirA, objs("z")}}, []string{"x", "y", "z"}},
	}
	rootRow := func(s *dbtable.Store) int64 {
		e, _ := s.GetDirect(types.Key{Pid: 0, Name: "/"})
		return e.Attr.LinkCount
	}
	cfg := dbtable.Config{Shards: 4}
	systems := []struct {
		name string
		new  func(t *testing.T) api.Service
		// root reads the root's count of subdirectories.
		root func(s api.Service) int64
	}{
		{"tectonic", func(*testing.T) api.Service { return tectonic.New(tectonic.Config{Store: cfg}) },
			func(s api.Service) int64 { return rootRow(s.(*tectonic.Service).Store) }},
		{"dbtable", func(*testing.T) api.Service { return tectonic.New(tectonic.Config{Store: cfg, Legacy: true}) },
			func(s api.Service) int64 { return rootRow(s.(*tectonic.Service).Store) }},
		{"infinifs", func(*testing.T) api.Service { return infinifs.New(infinifs.Config{Store: cfg}) },
			func(s api.Service) int64 { return rootRow(s.(*infinifs.Service).Store) }},
		{"locofs", func(t *testing.T) api.Service {
			s, err := New(Config{Voters: 1, ObjStore: cfg})
			if err != nil {
				t.Fatal(err)
			}
			return s
		}, func(s api.Service) int64 { return s.(*Service).counts.of(types.RootID).subs }},
	}
	for _, sys := range systems {
		for _, tc := range cases {
			t.Run(sys.name+"/"+tc.name, func(t *testing.T) {
				s := sys.new(t)
				t.Cleanup(s.Stop)
				for _, c := range tc.calls {
					if err := s.Populate(c.dirs, c.objs); err != nil {
						t.Fatal(err)
					}
				}
				st, err := s.DirStat(s.Caller().Begin(), "/a")
				if err != nil || st.Entry.Attr.LinkCount != int64(len(tc.children)) {
					t.Errorf("/a: link count %d (err %v), want %d", st.Entry.Attr.LinkCount, err, len(tc.children))
				}
				if got := sys.root(s); got != 1 {
					t.Errorf("root: %d subdirectories, want 1", got)
				}
				for i, name := range tc.children {
					if _, err := s.Rmdir(s.Caller().Begin(), "/a"); !errors.Is(err, types.ErrNotEmpty) {
						t.Fatalf("rmdir /a holding %v: %v, want %v", tc.children[i:], err, types.ErrNotEmpty)
					}
					if _, err := s.Delete(s.Caller().Begin(), "/a/"+name); err != nil {
						t.Fatal(err)
					}
				}
				if _, err := s.Rmdir(s.Caller().Begin(), "/a"); err != nil {
					t.Fatalf("rmdir of emptied /a: %v", err)
				}
			})
		}
	}
}
