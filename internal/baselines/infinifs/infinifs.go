// Package infinifs re-implements the InfiniFS-style metadata service the
// paper compares against (§6.1): speculative parallel path resolution
// (every level queried concurrently using predicted ancestor
// identities), the CFS two-single-shard-transaction strategy for
// directory mutations (avoiding distributed-transaction aborts on simple
// ops), a dedicated rename coordinator node for loop detection, and a
// distributed transaction for cross-directory renames (which collapses
// under destination contention, as Figure 14's dirrename-s shows).
// An optional AM-Cache — the proxy-side metadata cache evaluated in
// Figure 20 — short-circuits resolution for cached directory paths.
package infinifs

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"mantle/internal/api"
	"mantle/internal/baselines/dbtable"
	"mantle/internal/netsim"
	"mantle/internal/pathutil"
	"mantle/internal/radix"
	"mantle/internal/rpc"
	"mantle/internal/storage"
	"mantle/internal/trace"
	"mantle/internal/txn"
	"mantle/internal/types"
)

// Config parameterises the service.
type Config struct {
	// Store configures the underlying DBtable shards.
	Store dbtable.Config
	// Fabric supplies RPC latency.
	Fabric *netsim.Fabric
	// CoordWorkers is the rename coordinator node's CPU worker count.
	CoordWorkers int
	// AMCache enables the proxy-side metadata cache (Figure 20).
	AMCache bool
}

// Service is the InfiniFS-style baseline. Implements api.Service: the
// dbtable.Service frame with parallel resolution and the CFS link —
// txn1 writes the child row, txn2 atomically updates the parent's
// attribute row; both are single-shard, so contention never aborts, it
// only serialises on the atomic update — plus the ops that are its own.
type Service struct {
	*dbtable.Service
	coord  *coordinator
	uuidSq atomic.Uint64

	// amCache is the proxy-side AM-Cache: directory path → resolution
	// result, invalidated by subtree on rename and rmdir. Nil when off.
	amCache *radix.Cache[resolved]
}

// resolved is a directory path's resolution: its entry and the aggregated
// permission of the path.
type resolved struct {
	e    types.Entry
	perm types.Perm
}

var _ api.Service = (*Service)(nil)

// New builds the service.
func New(cfg Config) *Service {
	s := &Service{
		Service: dbtable.NewService("infinifs", cfg.Fabric, cfg.Store),
		coord: &coordinator{
			node:  netsim.NewNode("infinifs-rename-coord", cfg.CoordWorkers),
			locks: make(map[types.InodeID]string),
		},
	}
	s.Resolve = s.resolve
	s.Link = s.Store.LinkAtomic
	if cfg.AMCache {
		s.amCache = radix.NewCache[resolved]()
	}
	return s
}

// resolve resolves a directory path: AM-Cache hit, else parallel
// speculative resolution and a fill guarded by the epoch captured before
// the resolution began (radix.Cache), so a rename that lands while the
// queries are in flight cannot leave its stale result behind.
func (s *Service) resolve(op *rpc.Op, dirPath string) (types.Entry, types.Perm, error) {
	ctx, sp := trace.Start(op.Context(), trace.PathResolve)
	sp.SetAttr("mode", "parallel")
	defer sp.End()
	if s.amCache == nil {
		return s.Store.ResolvePathParallel(op.WithContext(ctx), dirPath)
	}
	path := pathutil.Clean(dirPath)
	epoch0 := s.amCache.Epoch()
	if r, ok := s.amCache.Get(path); ok {
		sp.SetAttr("cache", "am-hit")
		return r.e, r.perm, nil
	}
	e, perm, err := s.Store.ResolvePathParallel(op.WithContext(ctx), path)
	if err == nil {
		s.amCache.Fill(path, resolved{e, perm}, epoch0)
	}
	return e, perm, err
}

// ObjStat implements api.Service. InfiniFS resolves the object's own
// metadata within the parallel lookup round (the paper notes it bypasses
// the execute phase for objstat), so the final component's query is part
// of the fan-out and of the lookup phase.
func (s *Service) ObjStat(op *rpc.Op, objPath string) (types.Result, error) {
	t := api.NewTimer()
	parent, name, err := s.Enter(t, op, "objstat", objPath, types.PermLookup)
	var e types.Entry
	if err == nil {
		e, err = s.Store.ResolveStep(op, parent.ID, name)
		t.Phase(types.PhaseLookup)
	}
	if err == nil && e.IsDir() {
		err = fmt.Errorf("objstat %s: %w", objPath, types.ErrIsDir)
	}
	return t.Done(op, 0, e), err
}

// DirStat implements api.Service: the directory's own row is the last
// query of the parallel round, never served from the AM-Cache (its
// attributes change with every child).
func (s *Service) DirStat(op *rpc.Op, dirPath string) (types.Result, error) {
	t := api.NewTimer()
	e, _, err := s.Store.ResolvePathParallel(op, dirPath)
	t.Phase(types.PhaseLookup)
	return t.Done(op, 0, e), err
}

// Rmdir implements api.Service: an emptiness-guarded delete (2PC across
// the child-range shard and the row shard when they differ) plus the
// atomic parent update.
func (s *Service) Rmdir(op *rpc.Op, dirPath string) (types.Result, error) {
	t := api.NewTimer()
	pe, name, err := s.Enter(t, op, "rmdir", dirPath, types.PermWrite|types.PermLookup)
	if err != nil {
		return t.Done(op, 0, types.Entry{}), err
	}
	de, err := s.Store.ResolveStep(op, pe.ID, name)
	if err == nil && !de.IsDir() {
		err = fmt.Errorf("rmdir %s: %w", dirPath, types.ErrNotDir)
	}
	var retries int
	if err == nil {
		retries, err = s.Store.RunTxn(op, func(int) ([]txn.Piece, error) {
			return []txn.Piece{{
				P: s.Store.ShardFor(pe.ID),
				Muts: []storage.Mutation{{
					Kind: storage.MutDelete, Key: types.Key{Pid: pe.ID, Name: name}, MustExist: true,
				}},
			}, {
				P: s.Store.ShardFor(de.ID),
				Guards: []storage.Guard{{
					Kind:  storage.GuardRangeEmpty,
					Key:   types.Key{Pid: de.ID, Name: ""},
					KeyHi: types.Key{Pid: de.ID + 1, Name: ""},
				}},
			}}, nil
		})
	}
	if err == nil {
		attr := dbtable.AttrUpdate(pe, storage.AttrDelta{LinkCount: -1})
		err = s.Store.ApplyAtomic(op, attr.Key.Pid, []storage.Mutation{attr})
	}
	if err == nil && s.amCache != nil {
		s.amCache.InvalidateSubtree(pathutil.Clean(dirPath))
	}
	t.Phase(types.PhaseExecute)
	return t.Done(op, retries, types.Entry{}), err
}

// DirRename implements api.Service: loop detection on the dedicated
// rename coordinator (one RPC), then a distributed transaction spanning
// the source and destination parents' shards with in-place attribute
// updates — the contended path that collapses in dirrename-s.
func (s *Service) DirRename(op *rpc.Op, srcPath, dstPath string) (types.Result, error) {
	uuid := fmt.Sprintf("inf-%d", s.uuidSq.Add(1))
	t := api.NewTimer()
	spe, srcName, err := s.Enter(t, op, "rename", srcPath, types.PermWrite)
	if err != nil {
		return t.Done(op, 0, types.Entry{}), err
	}
	dpe, dstName, err := s.Enter(t, op, "rename", dstPath, types.PermWrite)
	if err != nil {
		return t.Done(op, 0, types.Entry{}), err
	}
	moved, err := s.Store.ResolveStep(op, spe.ID, srcName)
	if err == nil && !moved.IsDir() {
		err = fmt.Errorf("rename %s: %w", srcPath, types.ErrNotDir)
	}
	t.Phase(types.PhaseLookup)
	if err != nil {
		return t.Done(op, 0, types.Entry{}), err
	}

	// Loop detection + rename lock on the coordinator.
	err = s.coord.prepare(op, moved.ID, srcPath, pathutil.Dir(dstPath), uuid)
	t.Phase(types.PhaseLoopDetect)
	if err != nil {
		return t.Done(op, 0, types.Entry{}), err
	}
	defer s.coord.release(moved.ID, uuid)

	moved.Pid, moved.Name = dpe.ID, dstName
	retries, err := s.Store.MoveTxn(op, spe, dpe, srcName, moved)
	if err == nil && s.amCache != nil {
		s.amCache.InvalidateSubtree(pathutil.Clean(srcPath))
	}
	t.Phase(types.PhaseExecute)
	return t.Done(op, retries, types.Entry{}), err
}

// coordinator is InfiniFS's dedicated rename coordination node: it
// serialises rename lock acquisition and performs loop detection by
// walking the destination's ancestor chain.
type coordinator struct {
	node *netsim.Node

	mu    sync.Mutex
	locks map[types.InodeID]string
}

// coordCost is the coordinator's CPU charge per rename prepare.
const coordCost = 20 * time.Microsecond

func (c *coordinator) prepare(op *rpc.Op, srcID types.InodeID, srcPath, dstParentPath, uuid string) error {
	return op.Call(c.node, coordCost, func() error {
		c.mu.Lock()
		defer c.mu.Unlock()
		if holder, held := c.locks[srcID]; held && holder != uuid {
			return fmt.Errorf("rename coord: src %d locked: %w", srcID, types.ErrLocked)
		}
		// Loop detection: the rename loops iff the source is an ancestor
		// of (or equal to) the destination parent. The real coordinator
		// walks its directory index; the proxy supplies both resolved
		// paths here, so the ancestor test is a path comparison with the
		// same outcome.
		if pathutil.IsAncestor(srcPath, dstParentPath, true) {
			return fmt.Errorf("rename coord: %s under %s: %w", srcPath, dstParentPath, types.ErrLoop)
		}
		c.locks[srcID] = uuid
		return nil
	})
}

func (c *coordinator) release(srcID types.InodeID, uuid string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if holder, held := c.locks[srcID]; held && holder == uuid {
		delete(c.locks, srcID)
	}
}
