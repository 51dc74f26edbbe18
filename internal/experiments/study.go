package experiments

import (
	"fmt"

	"mantle/internal/api"
	"mantle/internal/nsstats"
	"mantle/internal/raft"
	"mantle/internal/workload"
)

// Fig3 regenerates the namespace characterisation study (paper Figure 3):
// five synthetic namespaces matching the reported shapes — billion-scale
// entry counts (scaled 1/1000 by default), 8–18% directories, average
// access depths around 11.
func Fig3(p Params) ([]Row, error) {
	scale := 2000
	if p.Quick {
		scale = 50
	}
	// Per-namespace shape: clients ~ leaf dirs; depth tuned so access
	// depths land at the paper's 10.6–11.9 averages.
	specs := []struct {
		name    string
		clients int
		objects int
		depth   int
		small   float64
	}{
		// Objects-per-client tuned so the directory share lands in the
		// paper's 8.3–18.0% band (each client subtree holds ~9 dirs).
		{"ns1", scale, 52, 10, 0.55},
		{"ns2", scale, 99, 10, 0.45},
		{"ns3", scale * 3 / 2, 70, 10, 0.50},
		{"ns4", scale * 2, 45, 10, 0.60},
		{"ns5", scale, 85, 11, 0.40},
	}
	var rows []Row
	for _, sp := range specs {
		ns := workload.Build(workload.TreeSpec{
			Clients: sp.clients, Depth: sp.depth, ObjectsPerClient: sp.objects,
			SmallRatio: sp.small, Seed: int64(len(sp.name)),
		})
		st := nsstats.Analyze(ns)
		rows = append(rows,
			Row{"fig3", sp.name, "entries", float64(st.Entries), Count},
			Row{"fig3", sp.name, "objects", st.ObjRatio * 100, Percent},
			Row{"fig3", sp.name, "dirs", st.DirRatio * 100, Percent},
			Row{"fig3", sp.name, "avg depth", st.AvgDepth, Count},
			Row{"fig3", sp.name, "median depth", float64(st.MedianDepth), Count},
			Row{"fig3", sp.name, "max depth", float64(st.MaxDepth), Count})
	}
	return rows, nil
}

// Table2 echoes the simulated deployment configuration per system,
// mirroring the paper's Table 2.
func Table2(p Params) ([]Row, error) {
	fmt.Fprintln(p.Out, "\n== Table 2: simulated deployment configurations ==")
	fmt.Fprintf(p.Out, "tectonic: %d DBtable shards; %d workers/shard, %v/op\n",
		dbShardsTectonic, dbWorkers, dbOpCost)
	fmt.Fprintf(p.Out, "infinifs: 1 rename coordinator + %d DBtable shards; %d workers/shard, %v/op, atomic %v\n",
		dbShards, dbWorkers, dbOpCost, dbAtomicCost)
	fmt.Fprintf(p.Out, "locofs: 3-replica directory server + %d object shards; %d dir workers, %v + %v/level, fsync %v (no batch)\n",
		dbShards, locoDirWorkers, locoBaseCost, locoLevelCost, fsyncCost)
	fmt.Fprintf(p.Out, "mantle: 3-replica IndexNode + %d TafDB shards; %d idx workers, %v + %v/level, fsync %v (batch %d)\n",
		tafShards, idxWorkers, idxBaseCost, idxLevelCost, fsyncCost, raft.MaxBatch)
	fmt.Fprintf(p.Out, "fabric RTT: %v; clients: %d; namespace: %d clients x %d objects at depth %d\n",
		p.RTT, p.Clients, p.Clients, p.ObjectsPerClient, p.Depth)
	return nil, nil
}

// table3Specs are the five Cluster-C-like namespaces of Table 3 (scaled):
// client subtrees, objects per client and the small-object share.
var table3Specs = []struct {
	name    string
	clients int
	objects int
	small   float64
}{
	{"C1", 120, 26, 0.62},
	{"C2", 200, 10, 0.29},
	{"C3", 180, 8, 0.34},
	{"C4", 100, 8, 0.29},
	{"C5", 40, 8, 0.28},
}

// Table3 regenerates the production-namespace characterisation (paper
// Table 3): five Cluster-C-like namespaces (scaled) with their measured
// peak lookup and mkdir throughput on Mantle.
func Table3(p Params) ([]Row, error) {
	var rows []Row
	for i, sp := range table3Specs {
		ns := workload.Build(workload.TreeSpec{
			Clients: sp.clients, Depth: p.Depth, ObjectsPerClient: sp.objects, SmallRatio: sp.small,
		})
		st := nsstats.Analyze(ns)
		clients := min(sp.clients, p.Clients)
		err := withSystem(p, "mantle", DefaultMantleOpts(), ns.Populate, func(s api.Service) error {
			lookup, err := run(sp.name+" lookup", clients, 0, p.PerClient, workload.LookupOp(s, ns))
			if err != nil {
				return err
			}
			mkdir, err := run(sp.name+" mkdir", clients, 0, p.PerClient, workload.MkdirEOp(s, ns, fmt.Sprintf("t3-%d", i)))
			if err != nil {
				return err
			}
			rows = append(rows,
				Row{"tab3", sp.name, "#objects", float64(st.Objects), Count},
				Row{"tab3", sp.name, "#dirs", float64(st.Dirs), Count},
				Row{"tab3", sp.name, "small obj", st.SmallRatio * 100, Percent},
				Row{"tab3", sp.name, "peak lookup", lookup.Throughput, OpsPerSec},
				Row{"tab3", sp.name, "peak mkdir", mkdir.Throughput, OpsPerSec})
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return rows, nil
}
