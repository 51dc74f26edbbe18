package experiments

import (
	"fmt"
	"testing"

	"mantle/internal/conformance"
	"mantle/internal/netsim"
	"mantle/internal/rpc"
	"mantle/internal/types"
)

// TestTable1TripConformance reproduces the shape of the paper's Table 1
// through the trace trip-accounting layer alone: Mantle and LocoFS
// resolve any path in a constant number of RPC round trips, while
// InfiniFS and DBtable/Tectonic pay one round trip per path component
// (InfiniFS overlaps them in time, but the trip count still grows).
func TestTable1TripConformance(t *testing.T) {
	depths := []int{4, 16, 64}
	trips := map[string][]int64{}

	for _, name := range Systems {
		// Zero-RTT fabric: the assertion is about trip counts, not
		// latency, so the fabric only needs to count.
		s, err := NewSystem(name, netsim.NewLocalFabric(), DefaultMantleOpts())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, depth := range depths {
			if err := conformance.MkdirAll(s, conformance.DeepPath(depth)); err != nil {
				t.Fatalf("%s depth %d: %v", name, depth, err)
			}
		}
		for _, depth := range depths {
			n, err := conformance.LookupTrips(s, conformance.DeepPath(depth))
			if err != nil {
				t.Fatalf("%s lookup depth %d: %v", name, depth, err)
			}
			trips[name] = append(trips[name], n)
		}
		s.Stop()
	}
	t.Logf("lookup trips at depths %v: %v", depths, trips)

	// Mantle and LocoFS: single-RPC resolution, constant in depth.
	for _, name := range []string{"mantle", "locofs"} {
		for i, n := range trips[name] {
			if n != 1 {
				t.Errorf("%s: %d trips at depth %d, want 1 (constant)", name, n, depths[i])
			}
		}
	}
	// InfiniFS and Tectonic/DBtable: one trip per component, growing
	// with depth.
	for _, name := range []string{"infinifs", "tectonic"} {
		for i, n := range trips[name] {
			if n != int64(depths[i]) {
				t.Errorf("%s: %d trips at depth %d, want %d (one per level)", name, n, depths[i], depths[i])
			}
		}
	}
}

// opGolden is one op's pinned cost: RPC round trips plus which of the
// lookup / loop-detect / execute phases ("x" = non-zero, "-" = zero) the
// Fig 13/15 accounting attributes time to.
type opGolden struct {
	trips  int64
	phases string
}

// TestOpTripsGolden pins, per system, the trip count and phase
// attribution of one op of every kind on a small fixed namespace. It is
// the contract refactors of the op frames, link strategies and the 2PC
// driver are held to: the same ops cost the same RPCs in the same
// phases.
func TestOpTripsGolden(t *testing.T) {
	ops := []string{"create", "objstat", "dirstat", "readdir", "delete", "mkdir", "rmdir", "rename"}
	amCache := DefaultMantleOpts()
	amCache.InfiniFSAMCache = true
	cases := []struct {
		label, system string
		opts          SystemOpts
		want          []opGolden
	}{
		{"tectonic", "tectonic", DefaultMantleOpts(), []opGolden{
			{5, "x-x"}, {4, "x-x"}, {3, "x-x"}, {4, "x-x"}, {5, "x-x"}, {5, "x-x"}, {6, "x-x"}, {10, "x-x"}}},
		{"dbtable", "dbtable", DefaultMantleOpts(), []opGolden{
			{7, "x-x"}, {4, "x-x"}, {3, "x-x"}, {4, "x-x"}, {7, "x-x"}, {7, "x-x"}, {8, "x-x"}, {14, "x-x"}}},
		{"infinifs", "infinifs", DefaultMantleOpts(), []opGolden{
			{5, "x-x"}, {4, "x--"}, {3, "x--"}, {4, "x-x"}, {5, "x-x"}, {5, "x-x"}, {9, "x-x"}, {13, "xxx"}}},
		{"infinifs+amcache", "infinifs", amCache, []opGolden{
			{2, "x-x"}, {1, "x--"}, {3, "x--"}, {1, "x-x"}, {2, "x-x"}, {2, "x-x"}, {6, "x-x"}, {10, "xxx"}}},
		{"locofs", "locofs", DefaultMantleOpts(), []opGolden{
			{2, "x-x"}, {2, "x-x"}, {1, "--x"}, {2, "x-x"}, {2, "x-x"}, {1, "--x"}, {1, "--x"}, {1, "--x"}}},
		{"mantle", "mantle", DefaultMantleOpts(), []opGolden{
			{2, "x-x"}, {2, "x-x"}, {2, "x-x"}, {2, "x-x"}, {2, "x-x"}, {6, "x-x"}, {6, "x-x"}, {6, "-xx"}}},
	}
	for _, c := range cases {
		t.Run(c.label, func(t *testing.T) {
			// Two fresh deployments: the table is a function of the
			// system, not of one run's ID allocation or shard placement.
			for round := 0; round < 2; round++ {
				got, err := measureOps(c.system, c.opts)
				if err != nil {
					t.Fatal(err)
				}
				for i, w := range c.want {
					if got[i] != w {
						t.Errorf("round %d %s: %d trips phases %s, want %d %s",
							round, ops[i], got[i].trips, got[i].phases, w.trips, w.phases)
					}
				}
			}
		})
	}
}

// measureOps builds a fresh deployment of system on a zero-RTT fabric,
// creates /a/b/c, /a/x and /a/b/c/mv, and runs one op of each kind in
// TestOpTripsGolden's order through the trace trip-accounting layer.
func measureOps(system string, opts SystemOpts) ([]opGolden, error) {
	s, err := NewSystem(system, netsim.NewLocalFabric(), opts)
	if err != nil {
		return nil, err
	}
	defer s.Stop()
	for _, dir := range []string{"/a/b/c", "/a/x", "/a/b/c/mv"} {
		if err := conformance.MkdirAll(s, dir); err != nil {
			return nil, err
		}
	}
	steps := []struct {
		name string
		run  func(op *rpc.Op) (types.Result, error)
	}{
		{"create", func(op *rpc.Op) (types.Result, error) { return s.Create(op, "/a/b/c/o", 1) }},
		{"objstat", func(op *rpc.Op) (types.Result, error) { return s.ObjStat(op, "/a/b/c/o") }},
		{"dirstat", func(op *rpc.Op) (types.Result, error) { return s.DirStat(op, "/a/b/c") }},
		{"readdir", func(op *rpc.Op) (types.Result, error) {
			res, _, err := s.ReadDir(op, "/a/b/c")
			return res, err
		}},
		{"delete", func(op *rpc.Op) (types.Result, error) { return s.Delete(op, "/a/b/c/o") }},
		{"mkdir", func(op *rpc.Op) (types.Result, error) { return s.Mkdir(op, "/a/b/c/d") }},
		{"rmdir", func(op *rpc.Op) (types.Result, error) { return s.Rmdir(op, "/a/b/c/d") }},
		{"rename", func(op *rpc.Op) (types.Result, error) { return s.DirRename(op, "/a/b/c/mv", "/a/x/mv2") }},
	}
	out := make([]opGolden, 0, len(steps))
	for _, st := range steps {
		var res types.Result
		trips, err := conformance.TripCount(s, st.name, func(op *rpc.Op) (err error) {
			res, err = st.run(op)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("%s %s: %w", system, st.name, err)
		}
		phases := ""
		for _, p := range []types.Phase{types.PhaseLookup, types.PhaseLoopDetect, types.PhaseExecute} {
			if res.Phases[p] > 0 {
				phases += "x"
			} else {
				phases += "-"
			}
		}
		out = append(out, opGolden{trips, phases})
	}
	return out, nil
}
