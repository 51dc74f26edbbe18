package locofs

import (
	"cmp"
	"fmt"
	"maps"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"mantle/internal/api"
	"mantle/internal/baselines/dbtable"
	"mantle/internal/baselines/infinifs"
	"mantle/internal/baselines/tectonic"
	"mantle/internal/clock"
	"mantle/internal/core"
	"mantle/internal/fsck"
	"mantle/internal/indexnode"
	"mantle/internal/storage"
	"mantle/internal/tafdb"
	"mantle/internal/types"
)

// streamBatch is one population call: its directories, and an object
// generator computed from indices on every pull, as
// workload.ScaleNamespace's is. Names repeat within a directory (o0 …
// o<names-1> over perDir objects, each with its own size), so the last
// write of a key must win; a directory may be listed twice.
type streamBatch struct {
	dirs          []api.PopDir
	homes         []types.InodeID
	perDir, names int
	sizeBase      int64
}

func (b streamBatch) objects(yield func(api.PopObject) bool) {
	for _, pid := range b.homes {
		for k := 0; k < b.perDir; k++ {
			o := api.PopObject{Pid: pid, Name: fmt.Sprintf("o%d", k%b.names), Size: b.sizeBase + int64(k)}
			if !yield(o) {
				return
			}
		}
	}
}

func (b streamBatch) streamed() api.PopSource {
	return api.PopSource{Dirs: b.dirs, Objects: b.objects}
}

func (b streamBatch) sliced() api.PopSource {
	var objs []api.PopObject
	b.objects(func(o api.PopObject) bool { objs = append(objs, o); return true })
	return api.SlicePop(b.dirs, objs)
}

// streamBatches is two loads, the second into the store the first left:
// it re-lists a directory and objects the first loaded (with new
// sizes) and adds a directory and objects.
func streamBatches() []streamBatch {
	const top = types.InodeID(100)
	dirs := []api.PopDir{{Path: "/p", ID: top, Pid: types.RootID}}
	var homes []types.InodeID
	for d := 0; d < 8; d++ {
		id := top + 1 + types.InodeID(d)
		dirs = append(dirs, api.PopDir{Path: fmt.Sprintf("/p/d%d", d), ID: id, Pid: top})
		homes = append(homes, id)
	}
	dirs = append(dirs, dirs[3]) // listed twice in one batch
	extra := api.PopDir{Path: "/p/x", ID: top + 20, Pid: top, Perm: types.PermRead}
	return []streamBatch{
		{dirs: dirs, homes: homes, perDir: 300, names: 250, sizeBase: 0},
		{dirs: []api.PopDir{dirs[2], extra}, homes: []types.InodeID{homes[1], extra.ID, types.RootID}, perDir: 280, names: 270, sizeBase: 1000},
	}
}

// shardRows returns every row of the shards holding pids, shard by
// shard in key order, with mtimes cleared (a bootstrap row's is the
// wall clock at start).
func shardRows(shardFor func(types.InodeID) *storage.Shard, pids []types.InodeID) []storage.Row {
	var seen []*storage.Shard
	var rows []storage.Row
	for _, pid := range pids {
		sh := shardFor(pid)
		if slices.Contains(seen, sh) {
			continue
		}
		seen = append(seen, sh)
		sh.Scan(types.Key{}, types.Key{Pid: ^types.InodeID(0)}, func(r storage.Row) bool {
			r.Entry.Attr.MTime = time.Time{}
			rows = append(rows, r)
			return true
		})
	}
	return rows
}

func replicaTables(g *indexnode.Group) [][]types.AccessEntry {
	var out [][]types.AccessEntry
	for _, r := range g.Replicas() {
		var es []types.AccessEntry
		r.Table().ForEach(func(e types.AccessEntry) bool { es = append(es, e); return true })
		slices.SortFunc(es, func(a, b types.AccessEntry) int {
			return cmp.Or(cmp.Compare(a.Pid, b.Pid), strings.Compare(a.Name, b.Name))
		})
		out = append(out, es)
	}
	return out
}

// TestPopulateStreamMatchesSlices loads the same two batches into twin
// deployments of every system, one through the streamed object source
// and one through the slice adapter, and the twins must hold the same
// rows, row for row, with the same link counts; Mantle's must pass
// fsck. The Mantle cases cover a shard without a WAL (the B-tree
// rebuild) and a DR primary's (every shard logged, so the loader takes
// the logged Apply path, storage.BulkChunk mutations per chunk).
func TestPopulateStreamMatchesSlices(t *testing.T) {
	batches := streamBatches()
	pids := []types.InodeID{0, types.RootID}
	for _, b := range batches {
		for _, d := range b.dirs {
			pids = append(pids, d.ID)
		}
	}
	store := func(s *dbtable.Store) func(types.InodeID) *storage.Shard {
		return func(pid types.InodeID) *storage.Shard { return s.ShardFor(pid).Shard }
	}
	dbCfg := dbtable.Config{Shards: 4}
	systems := []struct {
		name string
		new  func(t *testing.T) api.Service
		// state is everything the load left, to compare between twins.
		state func(t *testing.T, s api.Service) any
	}{
		{"mantle", func(t *testing.T) api.Service {
			m, err := core.New(core.Config{TafDB: tafdb.Config{Shards: 4}, Index: indexnode.Config{Voters: 1}})
			if err != nil {
				t.Fatal(err)
			}
			return m
		}, mantleState},
		{"mantle-dr-primary", func(t *testing.T) api.Service {
			m, err := core.New(core.Config{TafDB: tafdb.Config{Shards: 4, Clock: clock.New(1)}, Index: indexnode.Config{Voters: 1}})
			if err != nil {
				t.Fatal(err)
			}
			return m
		}, mantleState},
		{"tectonic", func(*testing.T) api.Service { return tectonic.New(tectonic.Config{Store: dbCfg}) },
			func(_ *testing.T, s api.Service) any { return shardRows(store(s.(*tectonic.Service).Store), pids) }},
		{"infinifs", func(*testing.T) api.Service { return infinifs.New(infinifs.Config{Store: dbCfg}) },
			func(_ *testing.T, s api.Service) any { return shardRows(store(s.(*infinifs.Service).Store), pids) }},
		{"locofs", func(t *testing.T) api.Service {
			s, err := New(Config{Voters: 1, ObjStore: dbCfg})
			if err != nil {
				t.Fatal(err)
			}
			return s
		}, func(_ *testing.T, s api.Service) any {
			l := s.(*Service)
			l.counts.mu.Lock()
			counts := maps.Clone(l.counts.m)
			l.counts.mu.Unlock()
			return []any{shardRows(store(l.objStore), pids), replicaTables(l.dir), counts}
		}},
	}
	for _, sys := range systems {
		t.Run(sys.name, func(t *testing.T) {
			streamed, sliced := sys.new(t), sys.new(t)
			t.Cleanup(streamed.Stop)
			t.Cleanup(sliced.Stop)
			for i, b := range batches {
				if err := streamed.PopulateFrom(b.streamed()); err != nil {
					t.Fatalf("batch %d streamed: %v", i, err)
				}
				if err := sliced.PopulateFrom(b.sliced()); err != nil {
					t.Fatalf("batch %d sliced: %v", i, err)
				}
				got, want := sys.state(t, streamed), sys.state(t, sliced)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("batch %d: the streamed load differs from the slice load:\n%+v\nwant\n%+v", i, got, want)
				}
			}
			// The last write of a duplicated name won: /p/d1's o5 was
			// written last, in batch 1, as object 275 of its directory.
			st, err := streamed.ObjStat(streamed.Caller().Begin(), "/p/d1/o5")
			if err != nil || st.Entry.Attr.Size != 1275 {
				t.Fatalf("/p/d1/o5: size %d (err %v), want 1275", st.Entry.Attr.Size, err)
			}
			d, err := streamed.DirStat(streamed.Caller().Begin(), "/p/d1")
			if err != nil || d.Entry.Attr.LinkCount != 270 {
				t.Fatalf("/p/d1: link count %d (err %v), want 270", d.Entry.Attr.LinkCount, err)
			}
		})
	}
}

// mantleState is a Mantle deployment's TafDB rows and IndexNode tables,
// after fsck has passed on it.
func mantleState(t *testing.T, s api.Service) any {
	m := s.(*core.Mantle)
	if r := fsck.Check(m); !r.OK() {
		t.Fatalf("fsck: %v", r)
	}
	var rows []storage.Row
	m.DB().ForEachRow(func(r storage.Row) {
		r.Entry.Attr.MTime = time.Time{}
		rows = append(rows, r)
	})
	return []any{rows, replicaTables(m.Index())}
}
