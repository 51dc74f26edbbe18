// Package experiments regenerates every table and figure of the paper's
// evaluation (§3 and §6) against the four metadata services. Each
// experiment returns the cells the paper reports as Rows, which Run
// prints through one renderer; EXPERIMENTS.md records paper-vs-measured
// shapes.
//
// The simulated deployment mirrors Table 2 on the netsim fabric:
//
//	Tectonic:  21 DBtable shards
//	InfiniFS:   1 rename-coordinator node + 18 DBtable shards
//	LocoFS:     3-replica directory server + 18 object-store shards
//	Mantle:     3-replica IndexNode (+ optional learners) + 18 TafDB shards
//
// All deployments share one network fabric (200 µs RTT by default) and,
// in the application experiments, one data service. Client counts and
// namespace sizes are scaled down from the paper's 512-rank / billion-
// entry testbed; the scaling rationale is in DESIGN.md §1.
package experiments

import (
	"fmt"
	"io"
	"time"

	"mantle/internal/api"
	"mantle/internal/baselines/dbtable"
	"mantle/internal/baselines/infinifs"
	"mantle/internal/baselines/locofs"
	"mantle/internal/baselines/tectonic"
	"mantle/internal/bench"
	"mantle/internal/core"
	"mantle/internal/indexnode"
	"mantle/internal/netsim"
	"mantle/internal/raft"
	"mantle/internal/tafdb"
	"mantle/internal/workload"
)

// Params tunes an experiment run.
type Params struct {
	// Out receives the printed tables.
	Out io.Writer
	// RTT is the per-RPC network round trip.
	RTT time.Duration
	// Clients is the benchmark concurrency (the paper uses 512 ranks).
	Clients int
	// PerClient is the op count each client performs per measurement.
	PerClient int
	// ObjectsPerClient sizes the pre-populated namespace.
	ObjectsPerClient int
	// Depth is the working-directory depth (paper: average path depth 10).
	Depth int
	// Quick shrinks everything for smoke tests.
	Quick bool
	// ScaleEntries caps the namespace size of the "scale" flatness sweep
	// (default 1M; -entries 10000000 runs the full 10M sweep).
	ScaleEntries int
	// MetricsOut, when non-nil, receives a per-system observability dump
	// (metrics registry, RPC counters, fabric edge registry) after each
	// system finishes its measurement.
	MetricsOut io.Writer
	// HeatOut, when non-nil, receives the full heat-plane report from
	// the "heat" experiment (hot dirs, shard loads, slow-op captures).
	HeatOut io.Writer
}

// WithDefaults fills unset fields.
func (p Params) WithDefaults() Params {
	if p.Out == nil {
		p.Out = io.Discard
	}
	if p.RTT == 0 {
		p.RTT = 2 * time.Millisecond
	}
	if p.Clients <= 0 {
		p.Clients = 256
	}
	if p.PerClient <= 0 {
		p.PerClient = 30
	}
	if p.ObjectsPerClient <= 0 {
		p.ObjectsPerClient = 40
	}
	if p.Depth <= 0 {
		p.Depth = 10
	}
	if p.ScaleEntries <= 0 {
		p.ScaleEntries = 1_000_000
	}
	if p.Quick {
		p.Clients = min(p.Clients, 16)
		p.PerClient = min(p.PerClient, 5)
		p.ObjectsPerClient = min(p.ObjectsPerClient, 10)
	}
	return p
}

// Deployment model constants (the Table 2 stand-ins). These are the only
// hardware knobs; every performance claim in EXPERIMENTS.md is about
// shapes under this model, not absolute numbers.
// One simulated millisecond stands for roughly 100 µs of testbed time:
// the host's OS timer granularity (~1 ms) forces the simulation onto a
// 10x-stretched clock so that per-sleep overshoot stays a small relative
// error. Compare shapes and ratios with the paper, not absolute values
// (divide simulated latencies by ~10, multiply throughput by ~10 for a
// rough testbed-scale reading).
const (
	tafShards  = 18
	tafWorkers = 20
	tafOpCost  = 400 * time.Microsecond
	tafTxnCost = 1500 * time.Microsecond

	dbShardsTectonic = 21
	dbShards         = 18
	dbWorkers        = 4
	dbOpCost         = 400 * time.Microsecond
	dbLatchCost      = 1500 * time.Microsecond
	dbAtomicCost     = 300 * time.Microsecond

	idxWorkers   = 12
	idxBaseCost  = 200 * time.Microsecond
	idxLevelCost = 100 * time.Microsecond
	idxWriteCost = 200 * time.Microsecond

	locoDirWorkers = 24
	locoBaseCost   = 200 * time.Microsecond
	locoLevelCost  = 100 * time.Microsecond
	locoLatchCost  = 1200 * time.Microsecond

	fsyncCost = 400 * time.Microsecond

	retryBase = 200 * time.Microsecond
	retryMax  = 20 * time.Millisecond
)

// SystemOpts customises one system's construction.
type SystemOpts struct {
	// Mantle ablation/feature knobs.
	MantleCache        bool
	MantleK            int
	MantleBatch        bool
	MantleDelta        tafdb.DeltaMode
	MantleFollowerRead bool
	MantleLearners     int
	// MantleHotspot enables elastic hotspot management (hot-set
	// replication, load-aware routing, shedding) on the IndexNode group.
	MantleHotspot bool
	// MantleProxyCache adds the Figure 20 proxy-side metadata cache on
	// top of Mantle's own TopDirPathCache.
	MantleProxyCache bool
	// InfiniFS AM-Cache (Figure 20).
	InfiniFSAMCache bool
}

// DefaultMantleOpts is the production Mantle configuration (§6.1): cache
// with k=3, Raft log batching, auto delta records, and follower read —
// the paper's §6.3 results credit "TopDirPathCache and follower read",
// so the comparison figures run with both on. Experiments that isolate a
// feature (Figure 16's ablation, Figure 18's k-sweep, Figure 19b's
// leader-only row) switch the relevant flags themselves.
func DefaultMantleOpts() SystemOpts {
	return SystemOpts{
		MantleCache:        true,
		MantleK:            3,
		MantleBatch:        true,
		MantleDelta:        tafdb.DeltaAuto,
		MantleFollowerRead: true,
	}
}

// NewSystem constructs the named system on fabric.
func NewSystem(name string, fabric *netsim.Fabric, opts SystemOpts) (api.Service, error) {
	switch name {
	case "mantle":
		k := opts.MantleK
		if k <= 0 {
			k = 3
		}
		return core.New(core.Config{
			Fabric:     fabric,
			ProxyCache: opts.MantleProxyCache,
			TafDB: tafdb.Config{
				Shards: tafShards, Workers: tafWorkers,
				OpCost: tafOpCost, TxnCost: tafTxnCost,
				Delta:     opts.MantleDelta,
				RetryBase: retryBase, RetryMax: retryMax,
			},
			RetryBase: retryBase, RetryMax: retryMax,
			Index: indexnode.Config{
				Voters: 3, Learners: opts.MantleLearners,
				K: k, CacheEnabled: opts.MantleCache,
				FollowerRead:   opts.MantleFollowerRead,
				Hotspot:        opts.MantleHotspot,
				Workers:        idxWorkers,
				LookupBaseCost: idxBaseCost, LookupLevelCost: idxLevelCost,
				WriteCost: idxWriteCost,
				Raft: raft.Config{
					FsyncCost: fsyncCost, BatchEnabled: opts.MantleBatch,
					// "+raftlogbatch" is batching plus pipelined
					// replication — the two halves of the paper's log
					// batching optimisation.
					Pipeline: opts.MantleBatch,
				},
			},
		})
	case "tectonic", "dbtable":
		return tectonic.New(tectonic.Config{
			Fabric: fabric,
			Store: dbtable.Config{
				Shards: dbShardsTectonic, Workers: dbWorkers, OpCost: dbOpCost,
				LatchCost: dbLatchCost, AtomicCost: dbAtomicCost,
				RetryBase: retryBase, RetryMax: retryMax,
			},
			Legacy: name == "dbtable",
		}), nil
	case "infinifs":
		return infinifs.New(infinifs.Config{
			Fabric: fabric,
			Store: dbtable.Config{
				Shards: dbShards, Workers: dbWorkers, OpCost: dbOpCost,
				LatchCost: dbLatchCost, AtomicCost: dbAtomicCost,
				RetryBase: retryBase, RetryMax: retryMax,
			},
			CoordWorkers: idxWorkers,
			AMCache:      opts.InfiniFSAMCache,
		}), nil
	case "locofs":
		return locofs.New(locofs.Config{
			Fabric: fabric,
			ObjStore: dbtable.Config{
				Shards: dbShards, Workers: dbWorkers, OpCost: dbOpCost,
				LatchCost: dbLatchCost, AtomicCost: dbAtomicCost,
			},
			DirWorkers:      locoDirWorkers,
			ResolveBaseCost: locoBaseCost, ResolveLevelCost: locoLevelCost,
			LatchCost: locoLatchCost, FsyncCost: fsyncCost, Voters: 3,
		})
	default:
		return nil, fmt.Errorf("experiments: unknown system %q", name)
	}
}

// Systems is the comparison order used throughout the evaluation.
var Systems = []string{"tectonic", "infinifs", "locofs", "mantle"}

// systemOpts is the configuration a comparison figure runs name with:
// production Mantle, the baselines as they are.
func systemOpts(name string) SystemOpts {
	if name == "mantle" {
		return DefaultMantleOpts()
	}
	return SystemOpts{}
}

// mdtestTree is the mdtest namespace Params describes.
func mdtestTree(p Params) *workload.Namespace {
	return workload.Build(workload.TreeSpec{
		Clients: p.Clients, Depth: p.Depth, ObjectsPerClient: p.ObjectsPerClient,
	})
}

// build constructs the named system on a fresh fabric and loads pop
// into it.
func build(name string, p Params, opts SystemOpts, pop func(api.Service) error) (api.Service, error) {
	s, err := NewSystem(name, netsim.NewFabric(netsim.Config{RTT: p.RTT}), opts)
	if err != nil {
		return nil, err
	}
	if err := pop(s); err != nil {
		s.Stop()
		return nil, fmt.Errorf("%s: populate: %w", name, err)
	}
	return s, nil
}

// BuildPopulated constructs the named system with a populated mdtest
// namespace.
func BuildPopulated(name string, p Params, opts SystemOpts) (api.Service, *workload.Namespace, error) {
	ns := mdtestTree(p)
	s, err := build(name, p, opts, ns.Populate)
	return s, ns, err
}

// withSystem builds the named system, loads pop into it, measures it
// with fn and stops it. After a successful fn the system's metrics go
// to Params.MetricsOut when that is set.
func withSystem(p Params, name string, opts SystemOpts, pop func(api.Service) error, fn func(api.Service) error) error {
	s, err := build(name, p, opts, pop)
	if err != nil {
		return err
	}
	defer s.Stop()
	if err := fn(s); err != nil {
		return err
	}
	if p.MetricsOut != nil {
		DumpSystem(p.MetricsOut, name, s)
	}
	return nil
}

// run drives fn with workers × per ops, after an untimed round of warm
// ops per worker when warm > 0. A failed timed op fails the measurement.
func run(what string, workers, warm, per int, fn bench.OpFunc) (bench.RunResult, error) {
	if warm > 0 {
		bench.RunN(workers, warm, fn)
	}
	r := bench.RunN(workers, per, fn)
	if r.Errors > 0 {
		return r, fmt.Errorf("%s: %d of %d ops failed", what, r.Errors, r.Ops+r.Errors)
	}
	return r, nil
}

// ScalePoint is one namespace size measured by RunScale.
type ScalePoint struct {
	Entries       int
	Populate      time.Duration // wall time of the bulk load
	BytesPerEntry float64       // live-heap growth from before the build to after the load
	Result        bench.RunResult
}

// RunScale builds the named system, bulk-loads a workload.BuildScale(n)
// namespace into it and measures op ("objstat" or "lookup") over it with
// Params.Clients × Params.PerClient ops after a warm round: the path
// behind the scale sweep and mdtest -entries.
func RunScale(p Params, system string, opts SystemOpts, n int, op string) (ScalePoint, error) {
	heap0 := bench.Heap()
	sn := workload.BuildScale(n)
	pt := ScalePoint{Entries: sn.Entries()}
	load := func(s api.Service) error {
		start := time.Now()
		err := sn.Populate(s)
		pt.Populate = time.Since(start)
		pt.BytesPerEntry = float64(bench.Heap().Sub(heap0).HeapAlloc) / float64(pt.Entries)
		return err
	}
	err := withSystem(p, system, opts, load, func(s api.Service) (err error) {
		fn := sn.StatOp(s)
		if op == "lookup" {
			fn = sn.LookupOp(s)
		}
		pt.Result, err = run(fmt.Sprintf("%s %d entries", op, n), p.Clients, 2, p.PerClient, fn)
		return err
	})
	return pt, err
}
