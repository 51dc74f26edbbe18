// Package core assembles Mantle, the paper's metadata service (§4–5): a
// stateless proxy layer orchestrating a per-namespace IndexNode Raft
// group (directory access metadata, single-RPC lookups, rename
// coordination) over a shared, sharded TafDB (complete metadata,
// distributed transactions, delta records).
//
// The proxy-side orchestration implemented here follows the paper's
// workflows exactly:
//
//   - every operation begins with a single-RPC lookup on IndexNode
//     (Figure 7),
//   - object operations then execute against TafDB with the resolved pid,
//   - mkdir/rmdir/setperm run a TafDB transaction and replicate the
//     access-metadata change through IndexNode's Raft log, the two
//     committing together: the proposal starts once every TafDB
//     participant has prepared and runs alongside the commit round
//     (txn.Runner's then),
//   - cross-directory dirrename runs the Figure 9 protocol: a single
//     PrepareRename RPC on IndexNode performs path resolution, RemovalList
//     insertion, lock acquisition, and loop detection; the proxy then
//     commits the TafDB transaction and the replicated IndexNode rename
//     together (steps 8a/8b), or, when the transaction fails to prepare,
//     aborts and retries. Retries reuse the operation's UUID, so a
//     crashed proxy's successor re-acquires the same lock idempotently
//     (§5.3).
package core

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"strconv"
	"sync/atomic"
	"time"

	"mantle/internal/api"
	"mantle/internal/faults"
	"mantle/internal/heat"
	"mantle/internal/indexnode"
	"mantle/internal/metrics"
	"mantle/internal/netsim"
	"mantle/internal/pathutil"
	"mantle/internal/rpc"
	"mantle/internal/tafdb"
	"mantle/internal/trace"
	"mantle/internal/txn"
	"mantle/internal/types"
)

// Config parameterises a Mantle deployment for one namespace.
type Config struct {
	// Fabric is the shared network; a zero-latency fabric is created if
	// nil.
	Fabric *netsim.Fabric
	// TafDB configures the shared metadata database. Its Fabric field is
	// overridden with the deployment fabric.
	TafDB tafdb.Config
	// Index configures the namespace's IndexNode group; Fabric likewise
	// overridden.
	Index indexnode.Config
	// ProxyCache enables the proxy-side metadata cache of Figure 20.
	// Off by default: Mantle's design intentionally rejects proxy
	// caching (stateless proxies), and the single-RPC lookup leaves it
	// little to save.
	ProxyCache bool
	// RetryBase/RetryMax shape rename retry backoff.
	RetryBase, RetryMax time.Duration
	// Heat parameterises the heat plane's op sampling. The zero value
	// gets production defaults.
	Heat HeatConfig
}

// HeatConfig parameterises the proxy's heat plane.
type HeatConfig struct {
	// SampleEvery head-samples one in N operations (default 64). A
	// sampled op opens a trace that is offered to the slow-op flight
	// recorder on completion. It costs two allocations, the trace (its
	// spans live in one slab) and the op rebound to it, so 2/N per op.
	// The op carries heat weight N: every heat sketch it passes (proxy,
	// IndexNode, TafDB) records it N times, and the other ops record
	// nothing. Negative disables sampling: no traces, and every op
	// records with weight 1.
	SampleEvery int
	// MinCount is the per-op floor (default 128): an op kind's first
	// MinCount ops record heat with weight 1, so a fresh or low-rate
	// proxy shows exact counts, and the recorder trusts the op's p99 as
	// a slowness threshold once that many have succeeded.
	MinCount int64
}

// The heat plane's fixed sizes: tracked keys per heavy-hitter sketch,
// the flight-recorder ring capacity, and the sampled ops an op's
// recorder threshold waits for before it trusts their own p99.
const (
	heatTopK     = 32
	recorderSize = 64
	sampledFloor = 16
)

func (h HeatConfig) withDefaults() HeatConfig {
	if h.SampleEvery == 0 {
		h.SampleEvery = 64
	} else if h.SampleEvery < 0 {
		h.SampleEvery = 0
	}
	if h.MinCount <= 0 {
		h.MinCount = 128
	}
	return h
}

// Mantle is one namespace's metadata service handle. It implements
// api.Service. Mantle is the Service a proxy embeds; proxies themselves
// are stateless, so concurrent goroutines calling these methods are the
// proxy fleet.
type Mantle struct {
	cfg    Config
	db     *tafdb.DB
	idx    *indexnode.Group
	caller *rpc.Caller
	uuidSq atomic.Uint64
	ownsDB bool
	pcache *proxyCache // nil unless Config.ProxyCache
	stats  *metrics.Registry
	// ops holds pre-resolved metric handles for every operation kind, so
	// the op frame neither concatenates strings nor takes the registry
	// lock on the hot path.
	ops [numOps]opMetrics
	// resolveLatency is the latency_resolve histogram, pre-resolved so
	// the hot lookup path never takes the registry lock.
	resolveLatency *metrics.Latency
	// coalescedRPC counts proxy-cache misses that shared another miss's
	// in-flight IndexNode RPC instead of issuing their own.
	coalescedRPC *metrics.Counter

	// Heat plane: the proxy-side hot-directory and cache-miss sketches,
	// the service-wide op rate, and the slow-op flight recorder.
	heatCfg  HeatConfig
	dirHeat  *heat.TopK[string]
	missHeat *heat.TopK[string]
	opRate   *heat.Rate
	recorder *trace.FlightRecorder
}

// opMetrics bundles one operation's counters and latency histogram.
// tick numbers the op's calls for the sampling decision (heat.Sampled);
// sampled, not exported, holds the durations of the sampled calls alone.
type opMetrics struct {
	ops, errors, retries *metrics.Counter
	latency              *metrics.Latency
	tick                 atomic.Uint64
	sampled              metrics.Latency
}

// threshold is the flight-recorder cut for a sampled call of the op: the
// op's p99 and, once sampledFloor sampled calls have finished, their own
// p99, whichever is larger. A sampled call pays for its spans, so against
// the all-calls p99 alone a quarter or more would count as slow.
func (om *opMetrics) threshold() time.Duration {
	t := om.latency.Quantile(0.99)
	if om.sampled.Count() >= sampledFloor {
		t = max(t, om.sampled.Quantile(0.99))
	}
	return t
}

var _ api.Service = (*Mantle)(nil)

// New builds and starts a Mantle deployment. An existing TafDB may be
// shared across namespaces via NewWithDB.
func New(cfg Config) (*Mantle, error) {
	if cfg.Fabric == nil {
		cfg.Fabric = netsim.NewLocalFabric()
	}
	cfg.TafDB.Fabric = cfg.Fabric
	db := tafdb.New(cfg.TafDB)
	if err := db.CreateRoot(types.RootID); err != nil {
		db.Stop()
		return nil, err
	}
	m, err := NewWithDB(cfg, db)
	if err != nil {
		db.Stop()
		return nil, err
	}
	m.ownsDB = true
	return m, nil
}

// NewWithDB builds a Mantle namespace service over an existing (shared)
// TafDB. The caller retains ownership of db.
func NewWithDB(cfg Config, db *tafdb.DB) (*Mantle, error) {
	if cfg.Fabric == nil {
		cfg.Fabric = netsim.NewLocalFabric()
	}
	cfg.Index.Fabric = cfg.Fabric
	if cfg.RetryBase <= 0 {
		cfg.RetryBase = 20 * time.Microsecond
	}
	if cfg.RetryMax <= 0 {
		cfg.RetryMax = 2 * time.Millisecond
	}
	idx, err := indexnode.NewGroup(cfg.Index)
	if err != nil {
		return nil, err
	}
	m := &Mantle{
		cfg:    cfg,
		db:     db,
		idx:    idx,
		caller: rpc.NewCaller(cfg.Fabric),
		stats:  metrics.NewRegistry(),
	}
	if cfg.ProxyCache {
		m.pcache = newProxyCache()
	}
	m.heatCfg = cfg.Heat.withDefaults()
	m.dirHeat = heat.NewTopK[string](heatTopK)
	m.missHeat = heat.NewTopK[string](heatTopK)
	m.opRate = heat.NewRate(0)
	m.recorder = trace.NewFlightRecorder(recorderSize)
	for kind, op := range opNames {
		om := &m.ops[kind]
		om.ops = m.stats.Counter("ops_" + op)
		om.errors = m.stats.Counter("errors_" + op)
		om.retries = m.stats.Counter("retries_" + op)
		om.latency = m.stats.Latency("latency_" + op)
	}
	m.resolveLatency = m.stats.Latency("latency_resolve")
	m.coalescedRPC = m.stats.Counter("lookup_coalesced_rpc")
	// Every layer registers what it owns on the deployment's registry:
	// this namespace's caller (fault-path counters, whole-call latency),
	// the fabric with every IndexNode and TafDB node, the IndexNode group,
	// TafDB, the heat plane, and — when a fault injector is installed on
	// the fabric — its delivery counters.
	m.caller.RegisterMetrics(m.stats)
	cfg.Fabric.RegisterMetrics(m.stats, slices.Concat(idx.Nodes(), db.Nodes())...)
	idx.RegisterMetrics(m.stats)
	db.RegisterMetrics(m.stats)
	m.stats.Collect(m.collectHeat)
	if inj, ok := cfg.Fabric.Faults().(interface{ Stats() faults.Stats }); ok {
		m.stats.Collect(func(e *metrics.Emitter) {
			s := inj.Stats()
			e.Int("fault_delivered", s.Delivered)
			e.Int("fault_dropped", s.Dropped)
			e.Int("fault_delayed", s.Delayed)
		})
	}
	return m, nil
}

// Metrics exposes the deployment's metrics registry (the mantled
// gateway's /metrics endpoint renders it).
func (m *Mantle) Metrics() *metrics.Registry { return m.stats }

// opKind indexes an operation's pre-resolved metric handles.
type opKind uint8

const (
	opLookup opKind = iota
	opCreate
	opDelete
	opObjStat
	opDirStat
	opReadDir
	opMkdir
	opRmdir
	opDirRename
	opSetPerm
	opReadDirPage
	numOps
)

// opNames are the metric-name suffixes, span names and flight-recorder
// keys of the operations, by kind.
var opNames = [numOps]string{
	"lookup", "create", "delete", "objstat", "dirstat", "readdir",
	"mkdir", "rmdir", "dirrename", "setperm", "readdirpage",
}

// frame is one operation from entry to result: the Fig 7 preamble every
// op shares (sample, time, resolve, check the aggregated permission) and
// the single place its outcome is accounted. Op methods hold it on the
// stack: begin, then enter for everything that resolves a path first,
// then done exactly once.
type frame struct {
	m    *Mantle
	kind opKind
	tr   *trace.Trace // the head-sampled trace, nil for most calls
	t    api.Timer
	// executing is set once the op is past its lookup phase, so done
	// charges the time since to PhaseExecute only for ops that got there.
	executing bool
}

// begin makes the op's one sampling decision and starts its timer. Every
// call advances the kind's tick, and heat.Sampled picks one in
// SampleEvery ticks. A sampled call gets a fresh trace, unless its
// caller already traced it, and is returned re-bound to the trace
// context; it also gets heat weight SampleEvery, and an unsampled call
// weight 0, except that the kind's first MinCount calls weigh 1. The
// unsampled path allocates nothing — which is also why the op travels
// beside the frame, not in it: the frame's trace outlives the call in
// the flight recorder, and an op stored next to it would be
// heap-allocated by every caller.
func (m *Mantle) begin(op *rpc.Op, kind opKind) (frame, *rpc.Op) {
	f := frame{m: m, kind: kind}
	if every := uint64(m.heatCfg.SampleEvery); every != 0 {
		tick := m.ops[kind].tick.Add(1)
		sampled := heat.Sampled(tick, every)
		switch {
		case tick <= uint64(m.heatCfg.MinCount):
			op.SetHeat(1)
		case sampled:
			op.SetHeat(int64(every))
		default:
			op.SetHeat(0)
		}
		if sampled && trace.FromContext(op.Context()) == nil {
			var ctx context.Context
			f.tr, ctx = trace.New(opNames[kind])
			op = op.WithContext(ctx)
		}
	}
	// The clock starts after sampling: a sampled op that paid for its own
	// trace inside its latency would look slower than its unsampled peers
	// and be over-retained by the tail-sampling recorder.
	f.t = *api.NewTimer()
	return f, op
}

// enter resolves dir in the single IndexNode RPC, closes the lookup
// phase — which is also the latency_resolve observation — and checks the
// aggregated path permission against what the op needs (0 = no check).
func (f *frame) enter(op *rpc.Op, dir, verb, path string, need types.Perm) (indexnode.LookupResult, error) {
	lres, err := f.m.lookup(op, dir)
	f.m.resolveLatency.Observe(f.t.Phase(types.PhaseLookup))
	if err == nil && !lres.Perm.Allows(need) {
		err = fmt.Errorf("%s %s: %w", verb, path, types.ErrPermission)
	}
	f.executing = err == nil
	return lres, err
}

// done closes the execute phase and accounts the completed operation. A
// sampled trace is finished here and offered to the flight recorder
// against the op's live p99 (opMetrics.threshold) — tail sampling: only
// spans of ops slower than their own distribution's tail are retained.
func (f *frame) done(op *rpc.Op, retries int, entry types.Entry, err error) (types.Result, error) {
	if f.executing {
		f.t.Phase(types.PhaseExecute)
	}
	res := f.t.Done(op, retries, entry)
	om := &f.m.ops[f.kind]
	om.ops.Inc()
	f.m.opRate.Add(1)
	if f.tr != nil {
		f.tr.Finish()
	}
	if err != nil {
		om.errors.Inc()
		return res, err
	}
	d := res.Phases.Total()
	om.latency.Observe(d)
	if retries > 0 {
		om.retries.Add(int64(retries))
	}
	if f.tr != nil {
		om.sampled.Observe(d)
		if om.latency.Count() >= f.m.heatCfg.MinCount {
			f.m.recorder.Offer(opNames[f.kind], f.tr, d, om.threshold())
		}
	}
	return res, nil
}

// lookup resolves dirPath, consulting the optional proxy-side cache
// before issuing the IndexNode RPC. The whole resolution is one
// path-resolve span. dirPath is canonical — ops clean a caller's path at
// entry — so one directory is one heat key, one cache key and one
// hot-set probe however the caller spelled it.
//
// The miss path is singleflight-coalesced: concurrent misses of the
// same path in the same invalidation epoch share one IndexNode RPC, so
// a hot directory's lookup storm costs one RPC per overlap window
// rather than one per caller. Keying the flight on the epoch captured
// *before* joining guarantees a lookup that begins after an
// invalidation never receives a pre-invalidation result; a serial
// (non-overlapping) lookup never coalesces, so the paper's
// one-RPC-per-lookup trip accounting (Table 1) is unchanged.
func (m *Mantle) lookup(op *rpc.Op, dirPath string) (res indexnode.LookupResult, err error) {
	ctx, sp := trace.Start(op.Context(), trace.PathResolve)
	defer sp.End()
	m.dirHeat.RecordN(dirPath, op.Heat())
	if m.pcache == nil {
		res, err = m.idx.Lookup(op.WithContext(ctx), dirPath)
	} else {
		if res, ok := m.pcache.Get(dirPath); ok {
			sp.SetAttr("cache", "proxy-hit")
			return res, nil
		}
		epoch0 := m.pcache.Epoch()
		var shared bool
		res, err, shared = m.pcache.flight.Do(pcFlightKey{dirPath, epoch0}, func() (indexnode.LookupResult, error) {
			m.missHeat.RecordN(dirPath, op.Heat())
			res, err := m.idx.Lookup(op.WithContext(ctx), dirPath)
			if err == nil {
				m.pcache.Fill(dirPath, res, epoch0)
			}
			return res, err
		})
		if shared {
			m.coalescedRPC.Inc()
			sp.SetAttr("coalesced", "rpc")
		}
	}
	if err == nil {
		if res.Hit {
			sp.SetAttr("cache", "topdir-hit")
		}
		sp.SetInt("levels", int64(res.Levels))
	}
	return res, err
}

// Name implements api.Service.
func (m *Mantle) Name() string { return "mantle" }

// Caller implements api.Service.
func (m *Mantle) Caller() *rpc.Caller { return m.caller }

// DB exposes the TafDB (stats, multi-namespace sharing).
func (m *Mantle) DB() *tafdb.DB { return m.db }

// Index exposes the IndexNode group (stats, ablation inspection).
func (m *Mantle) Index() *indexnode.Group { return m.idx }

// Stop implements api.Service.
func (m *Mantle) Stop() {
	m.idx.Stop()
	if m.ownsDB {
		m.db.Stop()
	}
}

func (m *Mantle) newUUID() string {
	var b [24]byte
	return string(strconv.AppendUint(append(b[:0], "mntl-"...), m.uuidSq.Add(1), 10))
}

// Lookup implements api.Service: a single-RPC path resolution.
func (m *Mantle) Lookup(op *rpc.Op, dirPath string) (types.Result, error) {
	f, op := m.begin(op, opLookup)
	dirPath = pathutil.Clean(dirPath)
	lres, err := f.enter(op, dirPath, "lookup", dirPath, 0)
	if err != nil {
		return f.done(op, 0, types.Entry{}, err)
	}
	return f.done(op, 0, types.Entry{
		ID: lres.ID, Pid: lres.ParentID, Kind: types.KindDir, Perm: lres.Perm,
	}, nil)
}

// Create implements api.Service.
func (m *Mantle) Create(op *rpc.Op, objPath string, size int64) (types.Result, error) {
	f, op := m.begin(op, opCreate)
	dir, name := pathutil.DirBase(objPath)
	lres, err := f.enter(op, dir, "create", objPath, types.PermWrite|types.PermLookup)
	if err != nil {
		return f.done(op, 0, types.Entry{}, err)
	}
	entry, retries, err := m.db.CreateObject(op, lres.ID, name, size)
	return f.done(op, retries, entry, err)
}

// Delete implements api.Service.
func (m *Mantle) Delete(op *rpc.Op, objPath string) (types.Result, error) {
	f, op := m.begin(op, opDelete)
	dir, name := pathutil.DirBase(objPath)
	lres, err := f.enter(op, dir, "delete", objPath, types.PermWrite|types.PermLookup)
	if err != nil {
		return f.done(op, 0, types.Entry{}, err)
	}
	retries, err := m.db.DeleteObject(op, lres.ID, name)
	return f.done(op, retries, types.Entry{}, err)
}

// ObjStat implements api.Service.
func (m *Mantle) ObjStat(op *rpc.Op, objPath string) (types.Result, error) {
	f, op := m.begin(op, opObjStat)
	dir, name := pathutil.DirBase(objPath)
	lres, err := f.enter(op, dir, "objstat", objPath, types.PermLookup)
	if err != nil {
		return f.done(op, 0, types.Entry{}, err)
	}
	entry, err := m.db.StatObject(op, lres.ID, name)
	return f.done(op, 0, entry, err)
}

// DirStat implements api.Service.
func (m *Mantle) DirStat(op *rpc.Op, dirPath string) (types.Result, error) {
	f, op := m.begin(op, opDirStat)
	dirPath = pathutil.Clean(dirPath)
	lres, err := f.enter(op, dirPath, "dirstat", dirPath, 0)
	if err != nil {
		return f.done(op, 0, types.Entry{}, err)
	}
	entry, err := m.db.StatDir(op, lres.ID)
	return f.done(op, 0, entry, err)
}

// ReadDir implements api.Service: the whole listing, as one unlimited
// page.
func (m *Mantle) ReadDir(op *rpc.Op, dirPath string) (types.Result, []types.Entry, error) {
	res, entries, _, err := m.readDirPage(opReadDir, op, dirPath, "", math.MaxInt)
	return res, entries, err
}

// ReadDirPage implements paginated listing: up to limit entries with
// names after startAfter, plus the continuation token for the next page.
func (m *Mantle) ReadDirPage(op *rpc.Op, dirPath, startAfter string, limit int) (types.Result, []types.Entry, string, error) {
	return m.readDirPage(opReadDirPage, op, dirPath, startAfter, limit)
}

func (m *Mantle) readDirPage(kind opKind, op *rpc.Op, dirPath, startAfter string, limit int) (types.Result, []types.Entry, string, error) {
	f, op := m.begin(op, kind)
	dirPath = pathutil.Clean(dirPath)
	lres, err := f.enter(op, dirPath, "list", dirPath, types.PermLookup|types.PermRead)
	var entries []types.Entry
	var next string
	if err == nil {
		entries, next, err = m.db.ReadDirPage(op, lres.ID, startAfter, limit)
	}
	res, err := f.done(op, 0, types.Entry{}, err)
	return res, entries, next, err
}

// Mkdir implements api.Service: the TafDB transaction and the replicated
// IndexNode access-metadata insert, committing together.
func (m *Mantle) Mkdir(op *rpc.Op, dirPath string) (types.Result, error) {
	f, op := m.begin(op, opMkdir)
	parent, name := pathutil.DirBase(dirPath)
	lres, err := f.enter(op, parent, "mkdir", dirPath, types.PermWrite)
	if err != nil {
		return f.done(op, 0, types.Entry{}, err)
	}
	id := m.db.NewID()
	var ierr error
	entry, retries, err := m.db.Mkdir(op, lres.ID, name, id, types.PermAll, func() {
		ierr = m.idx.AddDir(op, lres.ID, name, id, types.PermAll, parent)
	})
	if errors.Is(ierr, types.ErrUnavailable) {
		// The IndexNode group cannot commit (no quorum). Now that the
		// commit round has returned, compensate the TafDB insert so the
		// failed mkdir leaves no torn state and a post-heal retry starts
		// clean.
		_, _ = m.db.Rmdir(op, lres.ID, name, id, nil)
	}
	return f.done(op, retries, entry, cmp.Or(err, ierr))
}

// Rmdir implements api.Service.
func (m *Mantle) Rmdir(op *rpc.Op, dirPath string) (types.Result, error) {
	f, op := m.begin(op, opRmdir)
	dirPath = pathutil.Clean(dirPath)
	lres, err := f.enter(op, dirPath, "rmdir", dirPath, 0)
	if err != nil {
		return f.done(op, 0, types.Entry{}, err)
	}
	name := pathutil.Base(dirPath)
	var ierr error
	retries, err := m.db.Rmdir(op, lres.ParentID, name, lres.ID, func() {
		ierr = m.idx.RemoveDir(op, lres.ParentID, name, lres.ID, dirPath)
	})
	m.invalidate(op, dirPath)
	return f.done(op, retries, types.Entry{}, cmp.Or(err, ierr))
}

// invalidate drops proxy-cache state under path (no-op without the
// proxy cache), recorded as a cache-invalidate span.
func (m *Mantle) invalidate(op *rpc.Op, path string) {
	if m.pcache == nil {
		return
	}
	_, sp := trace.Start(op.Context(), trace.CacheInvalidate)
	sp.SetAttr("path", path)
	m.pcache.InvalidateSubtree(pathutil.Clean(path))
	sp.End()
}

// renameRetries bounds dirrename retries on lock conflicts.
const renameRetries = 10000

// DirRename implements api.Service: the Figure 9 protocol. The lookup
// phase is folded into loop detection (PrepareRename resolves both
// paths), so — matching the paper's breakdown — lookup time is recorded
// as zero and the PrepareRename RPC is charged to the loop-detection
// phase. The IndexNode rename is proposed once the TafDB transaction has
// prepared everywhere (steps 8a/8b); after that point an error is
// returned as is, never aborted or retried, since the entry may be
// applied.
func (m *Mantle) DirRename(op *rpc.Op, srcPath, dstPath string) (types.Result, error) {
	f, op := m.begin(op, opDirRename)
	dstParent, dstName := pathutil.DirBase(dstPath)
	uuid := m.newUUID()
	var totalRetries int
	for attempt := 0; ; attempt++ {
		prep, err := m.idx.PrepareRename(op, srcPath, dstParent, dstName, uuid)
		if err != nil {
			if errors.Is(err, types.ErrLocked) && attempt < renameRetries {
				totalRetries++
				txn.Backoff(attempt, m.cfg.RetryBase, m.cfg.RetryMax)
				continue
			}
			f.t.Phase(types.PhaseLoopDetect)
			return f.done(op, totalRetries, types.Entry{}, err)
		}
		f.t.Phase(types.PhaseLoopDetect)
		f.executing = true

		var proposed bool
		var ierr error
		retries, err := m.db.RenameDir(op, prep.SrcPid, prep.SrcName, prep.DstPid, dstName, prep.SrcID, prep.SrcPerm, func() {
			proposed = true
			ierr = m.idx.CommitRename(op, prep, dstName, srcPath, uuid)
		})
		totalRetries += retries
		if !proposed {
			// The transaction failed to prepare: nothing was proposed.
			aerr := m.idx.AbortRename(op, prep, srcPath, uuid)
			f.t.Phase(types.PhaseExecute)
			if aerr != nil {
				// The preparing replica may still hold the lock and the
				// RemovalList entry: report it, do not retry against it.
				return f.done(op, totalRetries, types.Entry{}, errors.Join(err, aerr))
			}
			if errors.Is(err, types.ErrRetryExhausted) && attempt < renameRetries {
				totalRetries++
				txn.Backoff(attempt, m.cfg.RetryBase, m.cfg.RetryMax)
				continue
			}
			return f.done(op, totalRetries, types.Entry{}, err)
		}
		m.invalidate(op, srcPath)
		return f.done(op, totalRetries, types.Entry{}, cmp.Or(err, ierr))
	}
}

// SetPerm changes a directory's permission, updating TafDB and the
// replicated IndexNode entry (which invalidates affected cache ranges on
// every replica), committing together.
func (m *Mantle) SetPerm(op *rpc.Op, dirPath string, perm types.Perm) (types.Result, error) {
	f, op := m.begin(op, opSetPerm)
	dirPath = pathutil.Clean(dirPath)
	lres, err := f.enter(op, dirPath, "setperm", dirPath, 0)
	if err != nil {
		return f.done(op, 0, types.Entry{}, err)
	}
	var ierr error
	retries, err := m.db.SetDirPerm(op, lres.ParentID, pathutil.Base(dirPath), lres.ID, perm, func() {
		ierr = m.idx.SetPerm(op, lres.ID, perm, dirPath)
	})
	m.invalidate(op, dirPath)
	return f.done(op, retries, types.Entry{}, cmp.Or(err, ierr))
}

// PopulateFrom implements api.Service: bulk-load a namespace into TafDB
// and the IndexNode replicas.
func (m *Mantle) PopulateFrom(src api.PopSource) error {
	// The IndexNode replicas load alongside TafDB's shards.
	indexed := make(chan struct{})
	go func() {
		m.idx.BulkAdd(src.Access())
		close(indexed)
	}()
	err := m.db.BulkInsertFrom(src.Rows)
	<-indexed
	return err
}

// Populate implements api.Service.
func (m *Mantle) Populate(dirs []api.PopDir, objects []api.PopObject) error {
	return m.PopulateFrom(api.SlicePop(dirs, objects))
}
