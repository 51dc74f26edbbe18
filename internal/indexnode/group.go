package indexnode

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"mantle/internal/clock"
	"mantle/internal/heat"
	"mantle/internal/metrics"
	"mantle/internal/netsim"
	"mantle/internal/pathutil"
	"mantle/internal/raft"
	"mantle/internal/rpc"
	"mantle/internal/trace"
	"mantle/internal/types"
)

// Config parameterises an IndexNode Raft group for one namespace.
type Config struct {
	// Voters is the number of voting replicas (the paper deploys 3).
	Voters int
	// Learners is the number of non-voting read replicas (§5.1.3).
	Learners int
	// K is the TopDirPathCache truncation distance (production: 3).
	K int
	// CacheEnabled gates TopDirPathCache ("+pathcache" ablation).
	CacheEnabled bool
	// FollowerRead routes lookups across followers and learners
	// ("+follower read" ablation).
	FollowerRead bool
	// Workers is the CPU worker count per replica node.
	Workers int
	// LookupBaseCost/LookupLevelCost model path-resolution CPU: a fixed
	// RPC handling cost plus one IndexTable access per level actually
	// walked — the cost TopDirPathCache saves.
	LookupBaseCost  time.Duration
	LookupLevelCost time.Duration
	// WriteCost is the CPU charge for directory-modification RPCs.
	WriteCost time.Duration
	// Raft is the template every replica's raft.Config is cut from: log
	// batching and pipelining ("+raftlogbatch" ablation), the simulated
	// fsync cost, election and heartbeat timing, log compaction. NewGroup
	// fills the per-replica fields (ID, Learner, Node, SM,
	// ProposeLatency) and the Fabric. Defaults differ from raft's own:
	// a 1s election timeout so scheduler starvation under heavy simulated
	// load cannot masquerade as leader failure, a 50ms heartbeat, and a
	// snapshot threshold of 8192 applied entries (negative disables).
	Raft raft.Config
	// RetryWindow bounds how long proxy-side calls chase a leader across
	// elections (and partitions) before failing with ErrUnavailable.
	// Default 5s; partition tests shrink it to fail fast.
	RetryWindow time.Duration
	// CallTimeout is the per-RPC deadline applied to proxy→replica calls
	// (0 = the rpc caller's default).
	CallTimeout time.Duration
	// Hotspot enables elastic hot-entry replication (DESIGN.md §9):
	// directories crossing HotThreshold in the group's decaying
	// read-heat sketch are promoted into a hot-set served by non-leader
	// replicas at a bounded-staleness read point, with load-aware
	// (power-of-two-choices) routing on piggybacked load hints.
	Hotspot bool
	// HotPromoteInterval is the promotion loop's cadence (default 100ms).
	HotPromoteInterval time.Duration
	// HotThreshold is the decayed read count at which a path is
	// promoted; demotion applies at half this (hysteresis). Default 512.
	HotThreshold int64
	// ShedThreshold, when positive, turns on backpressure: once every
	// live replica's load hint (queue delay) exceeds it, lookups are
	// shed with a typed ErrOverloaded + retry-after instead of queueing.
	ShedThreshold time.Duration
	// DegradedReads lets a replica that cannot reach the leader (no
	// leader elected, or the leader is partitioned away) serve lookups
	// from its local — possibly stale — state instead of failing. The
	// graceful-degradation mode for availability under partitions;
	// fallback reads are counted and off by default because they weaken
	// the consistency the rest of the suite asserts.
	DegradedReads bool
	// Fabric supplies network latency.
	Fabric *netsim.Fabric
	// Name prefixes replica identifiers (one group per namespace).
	Name string
}

func (c Config) withDefaults() Config {
	if c.Voters <= 0 {
		c.Voters = 3
	}
	if c.K <= 0 {
		c.K = 3
	}
	if c.Fabric == nil {
		c.Fabric = netsim.NewLocalFabric()
	}
	if c.Name == "" {
		c.Name = "indexnode"
	}
	c.Raft.Fabric = c.Fabric
	if c.Raft.SnapshotThreshold == 0 {
		c.Raft.SnapshotThreshold = 8192
	} else if c.Raft.SnapshotThreshold < 0 {
		c.Raft.SnapshotThreshold = 0
	}
	if c.Raft.ElectionTimeout <= 0 {
		c.Raft.ElectionTimeout = time.Second
	}
	if c.Raft.HeartbeatInterval <= 0 {
		c.Raft.HeartbeatInterval = 50 * time.Millisecond
	}
	if c.RetryWindow <= 0 {
		c.RetryWindow = 5 * time.Second
	}
	if c.HotPromoteInterval <= 0 {
		c.HotPromoteInterval = 100 * time.Millisecond
	}
	if c.HotThreshold <= 0 {
		c.HotThreshold = 512
	}
	return c
}

// proxySrc names the proxy endpoint on fault-rule edges: proxies are
// stateless and interchangeable, so they share one name.
const proxySrc = "proxy"

// Group is the per-namespace IndexNode service: a Raft group of replicas
// each holding the full directory access-metadata index, serving
// single-RPC lookups and coordinating directory mutations.
type Group struct {
	cfg       Config
	replicas  []*Replica
	rafts     []*raft.Raft
	nodes     []*netsim.Node
	rr        atomic.Uint64
	fallbacks atomic.Int64
	// proposeLat is shared by every replica's raft config, giving one
	// group-wide raft-propose latency distribution.
	proposeLat *metrics.Latency

	// Heat plane: group-wide op rates, the leader/follower/learner read
	// mix, and the hot-write-directory sketch (parent paths of mutations
	// flowing through Raft).
	lookupRate    *heat.Rate
	proposeRate   *heat.Rate
	leaderReads   atomic.Int64
	followerReads atomic.Int64
	learnerReads  atomic.Int64
	writeHeat     *heat.TopK[string]

	// Elastic hotspot management (hotspot.go): the decaying read-heat
	// sketch feeding the promotion loop, the promoted set, per-replica
	// piggybacked load hints, and the tier's counters.
	readHeat   *heat.TopK[string]
	hotSet     atomic.Pointer[hotSet]
	loadHints  []atomic.Int64
	promotions atomic.Int64
	demotions  atomic.Int64
	hotReads   atomic.Int64
	staleFalls atomic.Int64
	sheds      atomic.Int64
	hotStop    chan struct{}
	hotOnce    sync.Once
	hotWG      sync.WaitGroup
}

// GroupHeat is a point-in-time snapshot of the group's heat plane.
type GroupHeat struct {
	LookupsPerSec  float64             `json:"lookups_per_sec"`
	ProposesPerSec float64             `json:"proposes_per_sec"`
	LeaderReads    int64               `json:"leader_reads"`
	FollowerReads  int64               `json:"follower_reads"`
	LearnerReads   int64               `json:"learner_reads"`
	FallbackReads  int64               `json:"fallback_reads"`
	HotWriteDirs   []heat.Item[string] `json:"hot_write_dirs"`
	Hotspot        HotspotStats        `json:"hotspot"`
}

// Heat snapshots the group's heat plane.
func (g *Group) Heat() GroupHeat {
	return GroupHeat{
		LookupsPerSec:  g.lookupRate.PerSecond(),
		ProposesPerSec: g.proposeRate.PerSecond(),
		LeaderReads:    g.leaderReads.Load(),
		FollowerReads:  g.followerReads.Load(),
		LearnerReads:   g.learnerReads.Load(),
		FallbackReads:  g.fallbacks.Load(),
		HotWriteDirs:   g.writeHeat.Snapshot(),
		Hotspot:        g.Hotspot(),
	}
}

// ReadMix returns the leader/follower/learner read counters (tests and
// the skew benchmark's leader-share metric).
func (g *Group) ReadMix() (leader, follower, learner int64) {
	return g.leaderReads.Load(), g.followerReads.Load(), g.learnerReads.Load()
}

// noteRead classifies a successfully served lookup by the serving
// replica's current role (learner replicas never campaign, so index
// suffices; voters are split by live Raft role).
func (g *Group) noteRead(idx int, rf *raft.Raft) {
	if idx >= g.cfg.Voters {
		g.learnerReads.Add(1)
		return
	}
	if rf.Role() == raft.Leader {
		g.leaderReads.Add(1)
	} else {
		g.followerReads.Add(1)
	}
}

// callOpts returns the per-RPC options for proxy→replica calls.
func (g *Group) callOpts() rpc.CallOpts {
	return rpc.CallOpts{Src: proxySrc, Deadline: g.cfg.CallTimeout}
}

// retryable reports whether err is worth another attempt at a different
// replica (or the same one after re-election): leadership churn,
// crash-stop, or fabric-level loss — but never application errors.
func retryable(err error) bool {
	return errors.Is(err, types.ErrNotLeader) || errors.Is(err, types.ErrStopped) ||
		errors.Is(err, types.ErrUnreachable) || errors.Is(err, types.ErrTimeout)
}

// NewGroup builds, starts, and elects the group.
func NewGroup(cfg Config) (*Group, error) {
	cfg = cfg.withDefaults()
	if cfg.Learners < 0 {
		return nil, fmt.Errorf("indexnode: negative learner count %d", cfg.Learners)
	}
	g := &Group{
		cfg:         cfg,
		proposeLat:  &metrics.Latency{},
		lookupRate:  heat.NewRate(0),
		proposeRate: heat.NewRate(0),
		writeHeat:   heat.NewTopK[string](32),
		// The read-heat sketch decays with a half-life of two promotion
		// intervals, so a shifted hotspot cools below the demotion
		// threshold within a few loop ticks (the heat.TopK decay fix).
		readHeat: heat.NewTopKDecay[string](4*hotSetMax, 2*cfg.HotPromoteInterval),
		hotStop:  make(chan struct{}),
	}
	n := cfg.Voters + cfg.Learners
	g.loadHints = make([]atomic.Int64, n)
	raftCfgs := make([]raft.Config, n)
	for i := 0; i < n; i++ {
		rep := NewReplica(cfg.K, cfg.CacheEnabled)
		node := netsim.NewNode(fmt.Sprintf("%s-%d", cfg.Name, i), cfg.Workers)
		if h := cfg.Fabric.Faults(); h != nil {
			// A fault injector installed before deployment also governs
			// replica-local execution (blackholed nodes refuse work).
			node.SetFaults(h)
		}
		g.replicas = append(g.replicas, rep)
		g.nodes = append(g.nodes, node)
		rc := cfg.Raft
		rc.ID = node.Name()
		rc.Learner = i >= cfg.Voters
		rc.Node = node
		rc.SM = rep
		rc.ProposeLatency = g.proposeLat
		raftCfgs[i] = rc
	}
	g.rafts = raft.NewGroup(raftCfgs)
	if _, err := raft.WaitLeader(g.rafts, 10*time.Second); err != nil {
		g.Stop()
		return nil, err
	}
	if cfg.Hotspot {
		g.startHotspotLoop()
	}
	return g, nil
}

// Stop shuts the group down.
func (g *Group) Stop() {
	g.stopHotspot()
	for _, r := range g.rafts {
		r.Stop()
	}
	for _, rep := range g.replicas {
		rep.Close()
	}
}

// leaderIndex returns the index of the current live leader, or -1.
func (g *Group) leaderIndex() int {
	for i, r := range g.rafts {
		if r.Stopped() {
			continue
		}
		if r.Role() == raft.Leader {
			return i
		}
	}
	return -1
}

// Leader returns the leader replica (tests and stats).
func (g *Group) Leader() *Replica {
	if i := g.leaderIndex(); i >= 0 {
		return g.replicas[i]
	}
	return nil
}

// Replicas returns all replicas (stats).
func (g *Group) Replicas() []*Replica { return g.replicas }

// Nodes returns the replica CPU nodes (utilisation reporting).
func (g *Group) Nodes() []*netsim.Node { return g.nodes }

// BulkAdd populates every replica's IndexTable directly (experiment
// setup; bypasses Raft deterministically on all replicas). The replicas
// load concurrently.
func (g *Group) BulkAdd(entries []types.AccessEntry) {
	var wg sync.WaitGroup
	for _, rep := range g.replicas {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rep.BulkAdd(entries)
		}()
	}
	wg.Wait()
}

// lookupCost computes the CPU charge for a resolution that walked the
// given number of IndexTable levels.
func (g *Group) lookupCost(levels int) time.Duration {
	return g.cfg.LookupBaseCost + time.Duration(levels)*g.cfg.LookupLevelCost
}

// chargeFor computes the CPU charge for a completed resolution: a
// coalesced result shared another lookup's walk, so it carries the base
// RPC handling cost but no per-level component (the levels were charged
// once, to the leader of the flight).
func (g *Group) chargeFor(res LookupResult) time.Duration {
	if res.Coalesced {
		return g.cfg.LookupBaseCost
	}
	return g.lookupCost(res.Levels)
}

// pickReadTarget returns the replica index to serve the next lookup, or
// -1 when no replica is eligible. Under FollowerRead the default is
// round-robin over all replicas; with the hotspot tier on, routing is
// power-of-two-choices on the piggybacked load hints instead, so a
// replica with a deep queue stops attracting new reads.
func (g *Group) pickReadTarget(scratch []int) int {
	if !g.cfg.FollowerRead {
		return g.leaderIndex()
	}
	if g.cfg.Hotspot {
		cands := scratch[:0]
		for i, rf := range g.rafts {
			if !rf.Stopped() {
				cands = append(cands, i)
			}
		}
		return g.pickLoadAware(cands)
	}
	return int(g.rr.Add(1) % uint64(len(g.replicas)))
}

// Lookup resolves an absolute directory path in a single proxy RPC
// (Figure 7), optionally served by a follower or learner under
// ReadIndex consistency (§5.1.3). Returns the directory's ID, the
// aggregated path permission, and whether the serving replica hit its
// TopDirPathCache.
//
// When the serving replica cannot obtain a consistent read point — no
// leader, or the leader unreachable across a partition — and
// DegradedReads is on, the replica falls back to its local (possibly
// stale) state so lookups keep serving while writes are unavailable.
// Failed attempts are retried for RetryWindow, measured from the first
// failure (Call measures its window from entry).
func (g *Group) Lookup(op *rpc.Op, path string) (LookupResult, error) {
	g.lookupRate.Add(1)
	var res LookupResult
	var lastErr error
	opts := g.callOpts()
	var scratch [maxReplicas]int
	hot := false
	if g.cfg.Hotspot {
		g.readHeat.Record(path)
		if err := g.maybeShed(); err != nil {
			return res, err
		}
		hot = g.isHot(path)
	}
	// Set when the first failed attempt comes back around: a lookup that
	// succeeds first time reads no clock for its retry window.
	var deadline time.Duration // a clock.Mono reading
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			if now := clock.Mono(); deadline == 0 {
				deadline = now + g.cfg.RetryWindow
			} else if now >= deadline {
				break
			}
		}
		if hot {
			// Hot-set path: a non-leader replica serves at the bounded
			// staleness read point — one RPC, no leader round trip. A
			// read-point failure (no fresh leader contact, replica churn)
			// falls back to the consistent path for the rest of the op.
			cands := g.hotCandidates(scratch[:0])
			if len(cands) == 0 {
				hot = false
				g.staleFalls.Add(1)
				continue
			}
			idx := g.pickLoadAware(cands)
			rep, rf, node := g.replicas[idx], g.rafts[idx], g.nodes[idx]
			var lerr error
			var herr error
			callErr := op.Do(node, 0, opts, func() error {
				herr = rf.BoundedStaleRead(g.hotMaxStale(), func() error {
					res, lerr = rep.Lookup(path)
					node.Charge(g.chargeFor(res))
					return nil
				})
				return nil
			})
			if callErr != nil || herr != nil {
				hot = false
				g.staleFalls.Add(1)
				continue
			}
			g.noteLoadHint(idx)
			if lerr != nil {
				return res, lerr
			}
			g.noteRead(idx, rf)
			g.hotReads.Add(1)
			return res, nil
		}
		idx := g.pickReadTarget(scratch[:])
		if idx < 0 {
			time.Sleep(5 * time.Millisecond)
			lastErr = types.ErrNotLeader
			continue
		}
		rep, rf, node := g.replicas[idx], g.rafts[idx], g.nodes[idx]
		if rf.Stopped() {
			lastErr = types.ErrStopped
			continue
		}
		var err error
		callErr := op.Do(node, 0, opts, func() error {
			serve := func() error {
				var lerr error
				res, lerr = rep.Lookup(path)
				node.Charge(g.chargeFor(res))
				return lerr
			}
			// ConsistentRead on the leader is local (its own commit
			// index + apply wait) and protects reads right after a
			// leadership change, when a new leader may not yet have
			// applied everything committed by its predecessor.
			err = rf.ConsistentRead(serve)
			if err != nil && g.cfg.DegradedReads && retryable(err) {
				// Graceful degradation: serve from local state, stale at
				// worst by the unreplicated suffix of the log.
				if sres, serr := rep.Lookup(path); serr == nil {
					node.Charge(g.chargeFor(sres))
					g.fallbacks.Add(1)
					res, err = sres, nil
				}
			}
			return nil
		})
		if callErr != nil {
			if retryable(callErr) {
				lastErr = callErr
				continue
			}
			return res, callErr
		}
		if err == nil {
			g.noteLoadHint(idx)
			g.noteRead(idx, rf)
			return res, nil
		}
		if retryable(err) {
			lastErr = err
			time.Sleep(5 * time.Millisecond)
			continue
		}
		return res, err
	}
	return res, fmt.Errorf("indexnode lookup %s: %w: %w", path, types.ErrUnavailable, lastErr)
}

// AnyLeader, as Call's target, means whichever replica leads when an
// attempt starts.
const AnyLeader = -1

// Call runs fn as one proxy RPC per attempt on replica target — or, with
// AnyLeader, on the current leader — and owns what the write-side calls
// (and LocoFS's directory-server calls) share: the retry window, the
// back-off while no leader is elected, the retryable classification
// (leadership churn, crash-stop and fabric loss are retried; application
// errors return at once) and the ErrUnavailable wrap when the window
// closes. fn learns the replica index it runs on and the window's
// deadline.
func (g *Group) Call(op *rpc.Op, what string, target int, cost time.Duration, fn func(i int, deadline time.Time) error) error {
	var lastErr error
	opts := g.callOpts()
	deadline := time.Now().Add(g.cfg.RetryWindow)
	for attempt := 0; attempt == 0 || time.Now().Before(deadline); attempt++ {
		i := target
		if i == AnyLeader {
			if i = g.leaderIndex(); i < 0 {
				time.Sleep(5 * time.Millisecond)
				lastErr = types.ErrNotLeader
				continue
			}
		}
		var err error
		callErr := op.Do(g.nodes[i], cost, opts, func() error {
			err = fn(i, deadline)
			return nil
		})
		if callErr != nil {
			if retryable(callErr) {
				lastErr = callErr
				continue
			}
			return callErr
		}
		if err == nil || !retryable(err) {
			return err
		}
		// Leadership moved (or the old leader crashed or was cut off):
		// find the new leader and retry.
		lastErr = err
		time.Sleep(5 * time.Millisecond)
	}
	return fmt.Errorf("%s %s: %w: %w", g.cfg.Name, what, types.ErrUnavailable, lastErr)
}

// propose submits a command through the current leader with retry across
// leader changes (commands are idempotent at the state-machine level:
// puts/deletes of specific entries). Each attempt's commit wait is bounded
// by the remaining retry window, so a partitioned group makes propose
// fail fast with ErrUnavailable instead of hanging on an entry that can
// never commit.
func (g *Group) propose(op *rpc.Op, c Cmd) error {
	g.proposeRate.Add(1)
	ctx, sp := trace.Start(op.Context(), "raft-propose")
	sp.Annotate("cmd", "%d", c.Kind)
	defer sp.End()
	payload := c.Encode()
	return g.Call(op.WithContext(ctx), "propose", AnyLeader, g.cfg.WriteCost, func(li int, deadline time.Time) error {
		remaining := time.Until(deadline)
		if remaining < 10*time.Millisecond {
			remaining = 10 * time.Millisecond // first attempt always gets a slice
		}
		_, err := g.rafts[li].ProposeTimeout(payload, remaining)
		return err
	})
}

// KillLeader crash-stops the current leader replica (failure injection;
// returns false if no leader). The remaining voters elect a new leader
// and service continues.
func (g *Group) KillLeader() bool {
	li := g.leaderIndex()
	if li < 0 {
		return false
	}
	g.rafts[li].Stop()
	return true
}

// AddDir replicates a new directory's access entry (mkdir commit);
// parentPath feeds the write-heat sketch.
func (g *Group) AddDir(op *rpc.Op, pid types.InodeID, name string, id types.InodeID, perm types.Perm, parentPath string) error {
	g.writeHeat.Record(parentPath)
	return g.propose(op, Cmd{Kind: CmdAddDir, Pid: pid, Name: name, ID: id, Perm: perm})
}

// RemoveDir replicates a directory removal (rmdir commit); path drives
// the exact-entry cache invalidation.
func (g *Group) RemoveDir(op *rpc.Op, pid types.InodeID, name string, id types.InodeID, path string) error {
	g.writeHeat.Record(pathutil.Dir(path))
	return g.propose(op, Cmd{Kind: CmdRemoveDir, Pid: pid, Name: name, ID: id, Path: path})
}

// SetPerm replicates a permission change; path drives subtree cache
// invalidation on every replica.
func (g *Group) SetPerm(op *rpc.Op, id types.InodeID, perm types.Perm, path string) error {
	g.writeHeat.Record(path)
	return g.propose(op, Cmd{Kind: CmdSetPerm, ID: id, Perm: perm, Path: path})
}

// PrepareRename runs Figure 9 steps 1–7 on the leader in one RPC.
// Leadership churn and fabric-level losses are retried within the retry
// window; application errors (lock conflicts, loops) return immediately.
func (g *Group) PrepareRename(op *rpc.Op, srcPath, dstParentPath, dstName, lockID string) (RenamePrep, error) {
	var prep RenamePrep
	err := g.Call(op, "prepare rename", AnyLeader, 0, func(li int, _ time.Time) error {
		rep, node := g.replicas[li], g.nodes[li]
		var err error
		if cerr := g.rafts[li].ConsistentRead(func() error {
			prep, err = rep.PrepareRename(srcPath, dstParentPath, dstName, lockID)
			node.Charge(g.lookupCost(prep.Levels))
			return nil
		}); cerr != nil {
			return cerr
		}
		prep.Replica = li
		return err
	})
	return prep, err
}

// CommitRename replicates the rename through Raft: every replica moves
// the entry, clears the lock (leader), and invalidates its cache under
// the source path.
func (g *Group) CommitRename(op *rpc.Op, prep RenamePrep, dstName, srcPath, lockID string) error {
	g.writeHeat.Record(pathutil.Dir(srcPath))
	return g.propose(op, Cmd{
		Kind: CmdRename,
		Pid:  prep.SrcPid, Name: prep.SrcName, ID: prep.SrcID, Perm: prep.SrcPerm,
		DstPid: prep.DstPid, DstName: dstName,
		Path: srcPath, LockID: lockID,
	})
}

// AbortRename unwinds a prepared rename (one RPC) on the replica that
// prepared it: the lock and the RemovalList registration live there, and
// leadership may have moved since. A crash-stopped replica needs no
// abort — its volatile locks went with it and it never leads again.
func (g *Group) AbortRename(op *rpc.Op, prep RenamePrep, srcPath, lockID string) error {
	if g.rafts[prep.Replica].Stopped() {
		return nil
	}
	return g.Call(op, "abort rename", prep.Replica, g.cfg.WriteCost, func(i int, _ time.Time) error {
		g.replicas[i].AbortRename(prep.SrcID, srcPath, lockID)
		return nil
	})
}

// CacheStats aggregates TopDirPathCache statistics across replicas.
func (g *Group) CacheStats() (entries int, bytes int64, hits, misses int64) {
	for _, rep := range g.replicas {
		entries += rep.cache.Len()
		bytes += rep.cache.MemoryBytes()
		h, m := rep.cache.Stats()
		hits += h
		misses += m
	}
	return
}

// CoalescedWalks aggregates, across replicas, how many lookups shared
// another lookup's in-flight IndexTable walk (singleflight joiners).
func (g *Group) CoalescedWalks() int64 {
	var n int64
	for _, rep := range g.replicas {
		n += rep.CoalescedLookups()
	}
	return n
}

// Rafts exposes the group's raft replicas (stats and failure injection in
// tests and tools).
func (g *Group) Rafts() []*raft.Raft { return g.rafts }

// RaftBatchStats sums the write-batching counters across the group's
// replicas (appends and flush reasons accrue on whichever replica led).
func (g *Group) RaftBatchStats() raft.BatchStats {
	var out raft.BatchStats
	for _, r := range g.rafts {
		s := r.MetricsRef().Batch()
		out.Syncs += s.Syncs
		out.Appends += s.Appends
		out.Proposals += s.Proposals
		out.BatchBytes += s.BatchBytes
		out.FlushIdle += s.FlushIdle
		out.FlushCount += s.FlushCount
		out.FlushBytes += s.FlushBytes
	}
	return out
}

// RegisterMetrics exposes the group on reg: the TopDirPathCache and
// degraded-read counters, the raft log-batching family (one BatchStats
// snapshot, so raft_batch_occupancy is the proposals/appends printed
// beside it), the hot-set tier's counters, and the propose histogram.
func (g *Group) RegisterMetrics(reg *metrics.Registry) {
	reg.AttachLatency("latency_raft_propose", g.proposeLat)
	reg.Collect(func(e *metrics.Emitter) {
		entries, _, hits, _ := g.CacheStats()
		e.Int("indexnode_cache_entries", int64(entries))
		e.Int("indexnode_cache_hits", hits)
		e.Int("indexnode_lookup_coalesced", g.CoalescedWalks())
		e.Int("indexnode_fallback_reads", g.FallbackReads())
		b := g.RaftBatchStats()
		e.Int("raft_batch_appends", b.Appends)
		e.Int("raft_batch_proposals", b.Proposals)
		e.Int("raft_batch_bytes", b.BatchBytes)
		e.Int("raft_batch_syncs", b.Syncs)
		e.Int("raft_flush_idle", b.FlushIdle)
		e.Int("raft_flush_count", b.FlushCount)
		e.Int("raft_flush_bytes", b.FlushBytes)
		e.Ratio("raft_batch_occupancy", b.Proposals, b.Appends)
		e.Int("hotspot_promotions", g.promotions.Load())
		e.Int("hotspot_demotions", g.demotions.Load())
		e.Int("hotspot_hot_reads", g.hotReads.Load())
		e.Int("hotspot_stale_fallbacks", g.staleFalls.Load())
		e.Int("hotspot_sheds", g.sheds.Load())
	})
}

// MemberIDs returns the replica identifiers (raft IDs, which are also
// the netsim node names) — the handles fault injectors partition on.
func (g *Group) MemberIDs() []string {
	ids := make([]string, len(g.rafts))
	for i, r := range g.rafts {
		ids[i] = r.ID()
	}
	return ids
}

// FallbackReads counts lookups served from local replica state because a
// consistent read point was unobtainable (DegradedReads mode).
func (g *Group) FallbackReads() int64 { return g.fallbacks.Load() }

// ProposeLatency returns the group-wide raft-propose latency histogram
// (enqueue → applied, shared across replicas).
func (g *Group) ProposeLatency() *metrics.Latency { return g.proposeLat }
