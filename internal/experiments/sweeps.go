package experiments

import (
	"fmt"
	"time"

	"mantle/internal/api"
	"mantle/internal/bench"
	"mantle/internal/core"
	"mantle/internal/tafdb"
	"mantle/internal/types"
	"mantle/internal/workload"
)

// Fig16 is the ablation study (paper Figure 16): starting from
// Mantle-base (no path cache, no Raft log batching, no delta records, no
// follower read), optimisations are enabled cumulatively and dirstat,
// mkdir-e, and dirrename-s throughput is reported normalised to base.
func Fig16(p Params) ([]Row, error) {
	steps := []struct {
		label  string
		mutate func(*SystemOpts)
	}{
		{"mantle-base", func(o *SystemOpts) {}},
		{"+pathcache", func(o *SystemOpts) { o.MantleCache = true; o.MantleK = 3 }},
		{"+raftlogbatch", func(o *SystemOpts) { o.MantleBatch = true }},
		{"+delta record", func(o *SystemOpts) { o.MantleDelta = tafdb.DeltaAlways }},
		{"+follower read", func(o *SystemOpts) { o.MantleFollowerRead = true }},
	}
	var rows []Row
	base := map[string]float64{}
	opts := SystemOpts{MantleDelta: tafdb.DeltaOff}
	per := p.PerClient * 2 // short contended runs are noisy; double up
	for i, st := range steps {
		st.mutate(&opts)
		ns := mdtestTree(p)
		err := withSystem(p, "mantle", opts, ns.Populate, func(s api.Service) error {
			for _, o := range []struct {
				op, pingPong string
				warm         int
				fn           bench.OpFunc
			}{
				{"dirstat", "", 2, workload.DirStatOp(s, ns)},
				{"mkdir-e", "", 0, workload.MkdirEOp(s, ns, "f16")},
				{"dirrename-s", "f16", 0, workload.RenameSOp(s, ns, "f16")},
			} {
				if o.pingPong != "" {
					if err := workload.PrepareRenamePingPong(s, ns, p.Clients, o.pingPong); err != nil {
						return err
					}
				}
				r, err := run(o.op, p.Clients, o.warm, per, o.fn)
				if err != nil {
					return err
				}
				if i == 0 {
					base[o.op] = r.Throughput
				}
				rows = append(rows, Row{"fig16", st.label, o.op, r.Throughput / base[o.op], Ratio})
			}
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", st.label, err)
		}
	}
	return rows, nil
}

// Fig17 sweeps path depth and reports lookup latency per system (paper
// Figure 17).
func Fig17(p Params) ([]Row, error) {
	depths := []int{1, 2, 4, 6, 8, 10, 12, 14}
	if p.Quick {
		depths = []int{1, 4, 10}
	}
	var rows []Row
	for _, name := range Systems {
		ns := workload.Build(workload.TreeSpec{Clients: 2, Depth: 4, ObjectsPerClient: 1})
		// Several chains per depth: a single path would turn one
		// MetaTable shard into a hotspot and measure queueing, not depth.
		const chainsPerDepth = 32
		leaves := map[int][]string{}
		for _, d := range depths {
			for i := 0; i < chainsPerDepth; i++ {
				leaves[d] = append(leaves[d], ns.AddChainVariant(d, i))
			}
		}
		err := withSystem(p, name, systemOpts(name), ns.Populate, func(s api.Service) error {
			var shallowest time.Duration
			for _, d := range depths {
				paths := leaves[d]
				fn := func(w, seq int) (types.Result, error) {
					return s.Lookup(s.Caller().Begin(), paths[w%len(paths)])
				}
				// The warm round fills caches and queues.
				r, err := run(fmt.Sprintf("%s depth %d", name, d), p.Clients, 2, p.PerClient, fn)
				if err != nil {
					return err
				}
				mean := r.Latency.Mean()
				if d == depths[0] {
					shallowest = mean
				}
				col := fmt.Sprintf("d=%d", d)
				rows = append(rows,
					Row{"fig17", name, col, micros(mean), Micros},
					Row{"fig17", fmt.Sprintf("%s vs d=%d", name, depths[0]), col, ratio(mean, shallowest), Ratio})
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return rows, nil
}

func ratio(a, b time.Duration) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// Fig18 sweeps TopDirPathCache's truncation constant k with follower read
// disabled, reporting lookup latency and cache memory (paper Figure 18).
// The namespace branches near the leaves (as production namespaces do),
// so the number of cacheable k-truncated prefixes — and the cache's
// memory — shrinks geometrically as k grows.
func Fig18(p Params) ([]Row, error) {
	var rows []Row
	var baseLat time.Duration
	branch := 3
	if p.Quick {
		branch = 2
	}
	// k=0 means cache disabled (the Mantle-base reference).
	for _, k := range []int{0, 1, 2, 3, 4, 5} {
		opts := DefaultMantleOpts()
		opts.MantleFollowerRead = false
		label := fmt.Sprintf("k=%d", k)
		if k == 0 {
			opts.MantleCache = false
			opts.MantleK = 3
			label = "no cache"
		} else {
			opts.MantleK = k
		}
		ns := workload.Build(workload.TreeSpec{
			Clients: max(p.Clients/8, 2), Depth: p.Depth, ObjectsPerClient: 1,
			BranchLevels: 4, BranchFactor: branch,
		})
		err := withSystem(p, "mantle", opts, ns.Populate, func(s api.Service) error {
			// Warm the cache: production TopDirPathCaches are warm
			// (entries are static and long-lived, §5.1.1), so the sweep
			// measures the steady state, not cold misses. One untimed
			// pass touches every leaf.
			warmers := min(p.Clients, 64)
			_, err := run(label+" warmup", warmers, 0, 1, func(w, seq int) (types.Result, error) {
				var last types.Result
				for c := w; c < len(ns.LeafDirs); c += warmers {
					for _, leaf := range ns.LeafDirs[c] {
						r, err := s.Lookup(s.Caller().Begin(), leaf)
						if err != nil {
							return r, err
						}
						last = r
					}
				}
				return last, nil
			})
			if err != nil {
				return err
			}
			r, err := run(label, p.Clients, 0, p.PerClient, workload.LookupLeafDirOp(s, ns))
			if err != nil {
				return err
			}
			entries, bytes, hits, misses := s.(*core.Mantle).Index().CacheStats()
			mean := r.Latency.Mean()
			if k == 0 {
				baseLat = mean
			}
			hitRate := 0.0
			if hits+misses > 0 {
				hitRate = float64(hits) / float64(hits+misses) * 100
			}
			rows = append(rows,
				Row{"fig18", label, "lookup mean", micros(mean), Micros},
				Row{"fig18", label, "normalised", ratio(mean, baseLat), Ratio},
				Row{"fig18", label, "cached prefixes", float64(entries), Count},
				Row{"fig18", label, "cache memory", float64(bytes), Bytes},
				Row{"fig18", label, "hit rate", hitRate, Percent})
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return rows, nil
}

// Fig19a sweeps namespace size at fixed concurrency and reports objstat
// and create throughput (paper Figure 19a: flat across 1–10 billion
// entries; here 1×–10× the base population).
func Fig19a(p Params) ([]Row, error) {
	scales := []int{1, 2, 5, 10}
	if p.Quick {
		scales = []int{1, 2}
	}
	var rows []Row
	for _, scale := range scales {
		ns := workload.Build(workload.TreeSpec{
			Clients: p.Clients * scale, Depth: p.Depth, ObjectsPerClient: p.ObjectsPerClient,
		})
		label := fmt.Sprintf("%dx (%d entries)", scale, ns.Entries())
		err := withSystem(p, "mantle", DefaultMantleOpts(), ns.Populate, func(s api.Service) error {
			// The warm round settles caches and the allocator before
			// measuring, so the sweep isolates the namespace-size effect.
			objstat, err := run(label+" objstat", p.Clients, 2, p.PerClient, workload.ObjStatOp(s, ns))
			if err != nil {
				return err
			}
			create, err := run(label+" create", p.Clients, 0, p.PerClient, workload.CreateOp(s, ns, "f19a"))
			if err != nil {
				return err
			}
			rows = append(rows,
				Row{"fig19a", label, "objstat", objstat.Throughput, OpsPerSec},
				Row{"fig19a", label, "create", create.Throughput, OpsPerSec})
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return rows, nil
}

// Fig19b sweeps client concurrency and reports create plus objstat under
// three read configurations: leader only, +2 followers, +2 learners
// (paper Figure 19b).
func Fig19b(p Params) ([]Row, error) {
	clientCounts := []int{p.Clients / 4, p.Clients / 2, p.Clients, p.Clients * 2, p.Clients * 4}
	if p.Quick {
		clientCounts = []int{p.Clients, p.Clients * 2}
	}
	leaderOnly := DefaultMantleOpts()
	leaderOnly.MantleFollowerRead = false
	learners := DefaultMantleOpts()
	learners.MantleLearners = 2
	configs := []struct {
		label string
		opts  SystemOpts
	}{
		{"create", DefaultMantleOpts()},
		{"objstat (leader only)", leaderOnly},
		{"objstat +followers", DefaultMantleOpts()},
		{"objstat +learners", learners},
	}
	var rows []Row
	for _, cfg := range configs {
		ns := mdtestTree(p)
		err := withSystem(p, "mantle", cfg.opts, ns.Populate, func(s api.Service) error {
			for i, c := range clientCounts {
				warm, fn := workload.ObjStatOp(s, ns), workload.ObjStatOp(s, ns)
				if cfg.label == "create" {
					warm = workload.CreateOp(s, ns, fmt.Sprintf("f19bw-%d", i))
					fn = workload.CreateOp(s, ns, fmt.Sprintf("f19b-%d", i))
				}
				bench.RunN(c, 2, warm)
				r, err := run(fmt.Sprintf("%s @%d", cfg.label, c), c, 0, p.PerClient, fn)
				if err != nil {
					return err
				}
				rows = append(rows, Row{"fig19b", cfg.label, fmt.Sprintf("%d clients", c), r.Throughput, OpsPerSec})
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return rows, nil
}
