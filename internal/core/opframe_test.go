package core

import (
	"fmt"
	"testing"

	"mantle/internal/types"
)

// TestOpFrameRecordsOnce pins the accounting every operation gets from
// the op frame: one call moves ops_<op> by exactly one, errors_<op> by
// one only when it failed, latency_<op> by one only when it succeeded,
// and latency_resolve by one for every op that resolves a path first
// (dirrename folds resolution into PrepareRename and observes none).
func TestOpFrameRecordsOnce(t *testing.T) {
	m := newTestMantle(t, nil)
	for _, dir := range []string{"/d", "/d/sub", "/mv"} {
		if _, err := m.Mkdir(op(m), dir); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.Create(op(m), "/d/keep", 1); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name     string
		resolves int64
		ok, fail func() error
	}{
		{"lookup", 1,
			func() error { _, err := m.Lookup(op(m), "/d"); return err },
			func() error { _, err := m.Lookup(op(m), "/missing"); return err }},
		{"create", 1,
			func() error { _, err := m.Create(op(m), "/d/o", 7); return err },
			func() error { _, err := m.Create(op(m), "/missing/o", 7); return err }},
		{"objstat", 1,
			func() error { _, err := m.ObjStat(op(m), "/d/o"); return err },
			func() error { _, err := m.ObjStat(op(m), "/d/missing"); return err }},
		{"delete", 1,
			func() error { _, err := m.Delete(op(m), "/d/o"); return err },
			func() error { _, err := m.Delete(op(m), "/d/missing"); return err }},
		{"dirstat", 1,
			func() error { _, err := m.DirStat(op(m), "/d"); return err },
			func() error { _, err := m.DirStat(op(m), "/missing"); return err }},
		{"readdir", 1,
			func() error { _, _, err := m.ReadDir(op(m), "/d"); return err },
			func() error { _, _, err := m.ReadDir(op(m), "/missing"); return err }},
		{"readdirpage", 1,
			func() error { _, _, _, err := m.ReadDirPage(op(m), "/d", "", 10); return err },
			func() error { _, _, _, err := m.ReadDirPage(op(m), "/missing", "", 10); return err }},
		{"mkdir", 1,
			func() error { _, err := m.Mkdir(op(m), "/d/new"); return err },
			func() error { _, err := m.Mkdir(op(m), "/d/sub"); return err }},
		{"rmdir", 1,
			func() error { _, err := m.Rmdir(op(m), "/d/new"); return err },
			func() error { _, err := m.Rmdir(op(m), "/d"); return err }},
		{"dirrename", 0,
			func() error { _, err := m.DirRename(op(m), "/d/sub", "/mv/sub"); return err },
			func() error { _, err := m.DirRename(op(m), "/missing", "/mv/x"); return err }},
		{"setperm", 1,
			func() error { _, err := m.SetPerm(op(m), "/mv", types.PermAll); return err },
			func() error { _, err := m.SetPerm(op(m), "/missing", types.PermAll); return err }},
	}
	reg := m.Metrics()
	type snap struct{ ops, errs, lat, resolve int64 }
	read := func(name string) snap {
		return snap{
			reg.Counter("ops_" + name).Value(), reg.Counter("errors_" + name).Value(),
			reg.Latency("latency_" + name).Count(), reg.Latency("latency_resolve").Count(),
		}
	}
	for _, c := range cases {
		before := read(c.name)
		if err := c.ok(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		mid := read(c.name)
		if got, want := (snap{mid.ops - before.ops, mid.errs - before.errs, mid.lat - before.lat, mid.resolve - before.resolve}),
			(snap{1, 0, 1, c.resolves}); got != want {
			t.Errorf("%s ok: moved %+v, want %+v", c.name, got, want)
		}
		if err := c.fail(); err == nil {
			t.Fatalf("%s: failing call succeeded", c.name)
		}
		after := read(c.name)
		if got, want := (snap{after.ops - mid.ops, after.errs - mid.errs, after.lat - mid.lat, after.resolve - mid.resolve}),
			(snap{1, 1, 0, c.resolves}); got != want {
			t.Errorf("%s fail: moved %+v, want %+v", c.name, got, want)
		}
	}
}

// TestOpFrameAllocs holds a warm ObjStat to one allocation, the rpc.Op of
// Begin (its RTT counter inline): none for the frame, none for the
// replica's lookup flight, none for TafDB's read helper, and none for the
// heat sketches — also when the stats go round 2*heatTopK directories, so
// that every other Record in the proxy's and TafDB's sketch evicts. Head
// sampling is off so the figure is exact.
func TestOpFrameAllocs(t *testing.T) {
	m := newTestMantle(t, func(c *Config) { c.Heat.SampleEvery = -1 })
	for _, dirs := range []int{1, 2 * heatTopK} {
		paths := make([]string, dirs)
		for i := range paths {
			dir := fmt.Sprintf("/d%d-%d", dirs, i)
			paths[i] = dir + "/o"
			if _, err := m.Mkdir(op(m), dir); err != nil {
				t.Fatal(err)
			}
			if _, err := m.Create(op(m), paths[i], 1); err != nil {
				t.Fatal(err)
			}
		}
		i := 0
		got := testing.AllocsPerRun(2000, func() {
			if _, err := m.ObjStat(op(m), paths[i%dirs]); err != nil {
				t.Fatal(err)
			}
			i++
		})
		if got > 1 {
			t.Fatalf("warm ObjStat over %d directories allocates %.2f times, want <= 1", dirs, got)
		}
	}
}

// TestMutationAllocs pins what a warm create, delete, mkdir and dirrename
// allocate end to end on the default test deployment (no WAL, unbatched
// 2PC, three IndexNode voters): the transaction, its row locks, the raft
// commit and every replica's apply included. Head sampling is off so the
// figures are exact; the race detector adds allocations of its own, so the
// budgets are checked without it.
func TestMutationAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets are measured without the race detector")
	}
	m := newTestMantle(t, func(c *Config) { c.Heat.SampleEvery = -1 })
	for _, dir := range []string{"/c", "/m", "/ra", "/rb", "/ra/x"} {
		if _, err := m.Mkdir(op(m), dir); err != nil {
			t.Fatal(err)
		}
	}
	const runs = 400
	objs := make([]string, runs+1) // AllocsPerRun adds one warm-up call
	dirs := make([]string, runs+1)
	for i := range objs {
		objs[i] = fmt.Sprintf("/c/o%d", i)
		dirs[i] = fmt.Sprintf("/m/d%d", i)
	}
	cases := []struct {
		name   string
		budget float64
		run    func(i int) error
	}{
		{"create", 6, func(i int) error { _, err := m.Create(op(m), objs[i], 1); return err }},
		{"delete", 6, func(i int) error { _, err := m.Delete(op(m), objs[i]); return err }},
		{"mkdir", 30, func(i int) error { _, err := m.Mkdir(op(m), dirs[i]); return err }},
		{"dirrename", 46, func(i int) error {
			src, dst := "/ra/x", "/rb/x"
			if i%2 == 1 {
				src, dst = dst, src
			}
			_, err := m.DirRename(op(m), src, dst)
			return err
		}},
	}
	for _, c := range cases {
		i := 0
		got := testing.AllocsPerRun(runs, func() {
			if err := c.run(i); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			i++
		})
		if got > c.budget {
			t.Errorf("warm %s allocates %.0f times, budget %.0f", c.name, got, c.budget)
		}
	}
}
