package experiments

import (
	"mantle/internal/api"
	"mantle/internal/bench"
	"mantle/internal/types"
	"mantle/internal/workload"
)

// forEachSystem measures each comparison system with fn on a fresh
// deployment populated with the mdtest namespace.
func forEachSystem(p Params, fn func(name string, s api.Service, ns *workload.Namespace) error) error {
	for _, name := range Systems {
		ns := mdtestTree(p)
		err := withSystem(p, name, systemOpts(name), ns.Populate, func(s api.Service) error {
			return fn(name, s, ns)
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// Fig12 measures create, delete, objstat and dirstat on the four
// systems: their throughput is Figure 12 and their mean latency per
// phase (lookup vs execute) Figure 13.
func Fig12(p Params) ([]Row, error) {
	var rows []Row
	err := forEachSystem(p, func(name string, s api.Service, ns *workload.Namespace) error {
		for _, o := range []struct {
			op string
			fn bench.OpFunc
		}{
			{"create", workload.CreateOp(s, ns, "f12")},
			{"delete", workload.DeleteOp(s, ns, "f12")},
			{"objstat", workload.ObjStatOp(s, ns)},
			{"dirstat", workload.DirStatOp(s, ns)},
		} {
			r, err := run(name+" "+o.op, p.Clients, 0, p.PerClient, o.fn)
			if err != nil {
				return err
			}
			rows = append(rows, Row{"fig12", name, o.op, r.Throughput, OpsPerSec})
			rows = append(rows, breakdown("fig13", name+" "+o.op, r)...)
		}
		return nil
	})
	return rows, err
}

var dirModOps = []string{"mkdir-e", "mkdir-s", "dirrename-e", "dirrename-s"}

// dirMods runs mkdir-e, mkdir-s, dirrename-e and dirrename-s on s, keyed
// by op. round+"e" and round+"s" name each side's directories; each
// rename workload gets its own ping-pong directories, since an odd op
// count leaves a source under its alternate name.
func dirMods(p Params, s api.Service, ns *workload.Namespace, round string) (map[string]bench.RunResult, error) {
	out := map[string]bench.RunResult{}
	for _, o := range []struct {
		op, pingPong string
		fn           bench.OpFunc
	}{
		{"mkdir-e", "", workload.MkdirEOp(s, ns, round+"e")},
		{"mkdir-s", "", workload.MkdirSOp(s, ns, round+"s")},
		{"dirrename-e", round + "e", workload.RenameEOp(s, ns, round+"e")},
		{"dirrename-s", round + "s", workload.RenameSOp(s, ns, round+"s")},
	} {
		if o.pingPong != "" {
			if err := workload.PrepareRenamePingPong(s, ns, p.Clients, o.pingPong); err != nil {
				return nil, err
			}
		}
		r, err := run(o.op, p.Clients, 0, p.PerClient, o.fn)
		if err != nil {
			return nil, err
		}
		out[o.op] = r
	}
	return out, nil
}

// Fig14 measures directory modifications under exclusive ('-e') and
// shared ('-s') directories on the four systems: their throughput is
// Figure 14 and their lookup/loop-detection/execute breakdown Figure 15.
func Fig14(p Params) ([]Row, error) {
	var rows []Row
	err := forEachSystem(p, func(name string, s api.Service, ns *workload.Namespace) error {
		res, err := dirMods(p, s, ns, "f14")
		if err != nil {
			return err
		}
		for _, op := range dirModOps {
			rows = append(rows, Row{"fig14", name, op, res[op].Throughput, OpsPerSec})
			rows = append(rows, breakdown("fig15", name+" "+op, res[op])...)
		}
		return nil
	})
	return rows, err
}

// Table1 measures the RPC round trips a depth-10 lookup consumes on each
// system (paper Table 1's #RTTs column).
func Table1(p Params) ([]Row, error) {
	var rows []Row
	err := forEachSystem(p, func(name string, s api.Service, ns *workload.Namespace) error {
		// The warm round settles elections and caches.
		r, err := run(name+" lookup", min(p.Clients, 32), 2, p.PerClient, workload.LookupOp(s, ns))
		if err != nil {
			return err
		}
		rows = append(rows, Row{"tab1", name, "RTTs/lookup", r.MeanRTTs(), Count})
		return nil
	})
	return rows, err
}

// Fig4a reproduces the motivation study's latency breakdown of the
// legacy DBtable metadata service (paper Figure 4a): the lookup step
// dominates objstat, dirstat and delete.
func Fig4a(p Params) ([]Row, error) {
	var rows []Row
	ns := mdtestTree(p)
	err := withSystem(p, "dbtable", SystemOpts{}, ns.Populate, func(s api.Service) error {
		for _, o := range []struct {
			op string
			fn bench.OpFunc
		}{
			{"objstat", workload.ObjStatOp(s, ns)},
			{"dirstat", workload.DirStatOp(s, ns)},
			{"create", workload.CreateOp(s, ns, "f4")}, // the objects delete removes
			{"delete", workload.DeleteOp(s, ns, "f4")},
		} {
			r, err := run("fig4a "+o.op, p.Clients, 0, p.PerClient, o.fn)
			if err != nil {
				return err
			}
			if o.op == "create" {
				continue
			}
			rows = append(rows, breakdown("fig4a", o.op, r)...)
			share := float64(r.MeanPhase(types.PhaseLookup)) / float64(r.Latency.Mean()) * 100
			rows = append(rows, Row{"fig4a", o.op, "lookup share", share, Percent})
		}
		return nil
	})
	return rows, err
}

// Fig4b reproduces the motivation study's contention collapse (paper
// Figure 4b): mkdir and dirrename on the legacy DBtable service with no
// conflicts vs all threads hitting one shared directory.
func Fig4b(p Params) ([]Row, error) {
	var rows []Row
	ns := mdtestTree(p)
	err := withSystem(p, "dbtable", SystemOpts{}, ns.Populate, func(s api.Service) error {
		res, err := dirMods(p, s, ns, "f4")
		if err != nil {
			return err
		}
		for _, op := range []string{"mkdir", "dirrename"} {
			e, sh := res[op+"-e"], res[op+"-s"]
			rows = append(rows,
				Row{"fig4b", op, "no conflict", e.Throughput, OpsPerSec},
				Row{"fig4b", op, "all conflict", sh.Throughput, OpsPerSec},
				Row{"fig4b", op, "reduction", (1 - sh.Throughput/e.Throughput) * 100, Percent},
				Row{"fig4b", op, "retries(all-conflict)", float64(sh.Retries), Count})
		}
		return nil
	})
	return rows, err
}
