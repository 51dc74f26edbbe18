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

// Service is the InfiniFS-style baseline. Implements api.Service.
type Service struct {
	store  *dbtable.Store
	caller *rpc.Caller
	coord  *coordinator
	uuidSq atomic.Uint64

	amCache *amCache
}

var _ api.Service = (*Service)(nil)

// New builds the service.
func New(cfg Config) *Service {
	if cfg.Fabric == nil {
		cfg.Fabric = netsim.NewLocalFabric()
	}
	cfg.Store.Fabric = cfg.Fabric
	if cfg.Store.Name == "" {
		cfg.Store.Name = "infinifs"
	}
	s := &Service{
		store:  dbtable.New(cfg.Store),
		caller: rpc.NewCaller(cfg.Fabric),
		coord: &coordinator{
			node:  netsim.NewNode("infinifs-rename-coord", cfg.CoordWorkers),
			locks: make(map[types.InodeID]string),
		},
	}
	if cfg.AMCache {
		s.amCache = newAMCache()
	}
	return s
}

// Name implements api.Service.
func (s *Service) Name() string { return "infinifs" }

// Caller implements api.Service.
func (s *Service) Caller() *rpc.Caller { return s.caller }

// Stop implements api.Service.
func (s *Service) Stop() {}

// resolve resolves a directory path: AM-Cache hit, else parallel
// speculative resolution (with cache fill).
func (s *Service) resolve(op *rpc.Op, dirPath string) (types.Entry, types.Perm, error) {
	ctx, sp := trace.Start(op.Context(), "path-resolve")
	sp.SetAttr("mode", "parallel")
	defer sp.End()
	if s.amCache != nil {
		if e, perm, ok := s.amCache.get(dirPath); ok {
			sp.SetAttr("cache", "am-hit")
			return e, perm, nil
		}
	}
	e, perm, err := s.store.ResolvePathParallel(op.WithContext(ctx), dirPath)
	if err == nil && s.amCache != nil {
		s.amCache.put(dirPath, e, perm)
	}
	return e, perm, err
}

// Lookup implements api.Service.
func (s *Service) Lookup(op *rpc.Op, dirPath string) (types.Result, error) {
	t := api.NewTimer()
	e, perm, err := s.resolve(op, dirPath)
	t.Phase(types.PhaseLookup)
	if err != nil {
		return t.Done(op, 0, types.Entry{}), err
	}
	e.Perm = perm
	return t.Done(op, 0, e), nil
}

func parentRowKey(e types.Entry) types.Key {
	if e.ID == types.RootID {
		return dbtable.RootKey()
	}
	return types.Key{Pid: e.Pid, Name: e.Name}
}

// Create implements api.Service: CFS strategy — txn1 inserts the object
// row; txn2 atomically updates the parent's attribute row. Both are
// single-shard, so contention never aborts, it only serialises on the
// atomic update.
func (s *Service) Create(op *rpc.Op, objPath string, size int64) (types.Result, error) {
	dir, name := pathutil.Dir(objPath), pathutil.Base(objPath)
	t := api.NewTimer()
	parent, perm, err := s.resolve(op, dir)
	t.Phase(types.PhaseLookup)
	if err != nil {
		return t.Done(op, 0, types.Entry{}), err
	}
	if !perm.Allows(types.PermWrite | types.PermLookup) {
		return t.Done(op, 0, types.Entry{}), fmt.Errorf("create %s: %w", objPath, types.ErrPermission)
	}
	entry := types.Entry{
		Pid: parent.ID, Name: name, ID: s.store.NewID(), Kind: types.KindObject,
		Perm: types.PermAll, Attr: types.Attr{Size: size, MTime: time.Now()},
	}
	err = s.store.ApplyAtomic(op, s.store.NewTxnID(), parent.ID, nil, []storage.Mutation{{
		Kind: storage.MutPut, Key: types.Key{Pid: parent.ID, Name: name},
		Entry: entry, IfAbsent: true,
	}})
	if err == nil {
		pk := parentRowKey(parent)
		err = s.store.ApplyAtomic(op, s.store.NewTxnID(), pk.Pid, nil, []storage.Mutation{{
			Kind: storage.MutDeltaAttr, Key: pk,
			Delta: storage.AttrDelta{LinkCount: 1, Size: size}, MustExist: true,
		}})
	}
	t.Phase(types.PhaseExecute)
	return t.Done(op, 0, entry), err
}

// Delete implements api.Service.
func (s *Service) Delete(op *rpc.Op, objPath string) (types.Result, error) {
	dir, name := pathutil.Dir(objPath), pathutil.Base(objPath)
	t := api.NewTimer()
	parent, perm, err := s.resolve(op, dir)
	t.Phase(types.PhaseLookup)
	if err != nil {
		return t.Done(op, 0, types.Entry{}), err
	}
	if !perm.Allows(types.PermWrite | types.PermLookup) {
		return t.Done(op, 0, types.Entry{}), fmt.Errorf("delete %s: %w", objPath, types.ErrPermission)
	}
	err = s.store.ApplyAtomic(op, s.store.NewTxnID(), parent.ID, nil, []storage.Mutation{{
		Kind: storage.MutDelete, Key: types.Key{Pid: parent.ID, Name: name},
		MustExist: true, WantKind: types.KindObject,
	}})
	if err == nil {
		pk := parentRowKey(parent)
		err = s.store.ApplyAtomic(op, s.store.NewTxnID(), pk.Pid, nil, []storage.Mutation{{
			Kind: storage.MutDeltaAttr, Key: pk,
			Delta: storage.AttrDelta{LinkCount: -1}, MustExist: true,
		}})
	}
	t.Phase(types.PhaseExecute)
	return t.Done(op, 0, types.Entry{}), err
}

// ObjStat implements api.Service. InfiniFS resolves the object's own
// metadata within the parallel lookup round (the paper notes it bypasses
// the execute phase for objstat), so the final component's query is part
// of the fan-out.
func (s *Service) ObjStat(op *rpc.Op, objPath string) (types.Result, error) {
	t := api.NewTimer()
	e, perm, err := s.resolveObject(op, objPath)
	t.Phase(types.PhaseLookup)
	if err != nil {
		return t.Done(op, 0, types.Entry{}), err
	}
	if !perm.Allows(types.PermLookup) {
		return t.Done(op, 0, types.Entry{}), fmt.Errorf("objstat %s: %w", objPath, types.ErrPermission)
	}
	if e.IsDir() {
		return t.Done(op, 0, e), fmt.Errorf("objstat %s: %w", objPath, types.ErrIsDir)
	}
	return t.Done(op, 0, e), nil
}

// resolveObject resolves a full object path in one parallel round: the
// directory chain plus the object row itself.
func (s *Service) resolveObject(op *rpc.Op, objPath string) (types.Entry, types.Perm, error) {
	dir, name := pathutil.Dir(objPath), pathutil.Base(objPath)
	if s.amCache != nil {
		if pe, perm, ok := s.amCache.get(dir); ok {
			e, err := s.store.ResolveStep(op, pe.ID, name)
			return e, perm, err
		}
	}
	pe, perm, err := s.store.ResolvePathParallel(op, dir)
	if err != nil {
		return types.Entry{}, 0, err
	}
	if s.amCache != nil {
		s.amCache.put(dir, pe, perm)
	}
	e, err := s.store.ResolveStep(op, pe.ID, name)
	return e, perm, err
}

// DirStat implements api.Service.
func (s *Service) DirStat(op *rpc.Op, dirPath string) (types.Result, error) {
	t := api.NewTimer()
	e, perm, err := s.store.ResolvePathParallel(op, dirPath)
	t.Phase(types.PhaseLookup)
	if err != nil {
		return t.Done(op, 0, types.Entry{}), err
	}
	_ = perm
	return t.Done(op, 0, e), nil
}

// ReadDir implements api.Service.
func (s *Service) ReadDir(op *rpc.Op, dirPath string) (types.Result, []types.Entry, error) {
	t := api.NewTimer()
	e, perm, err := s.resolve(op, dirPath)
	t.Phase(types.PhaseLookup)
	if err != nil {
		return t.Done(op, 0, types.Entry{}), nil, err
	}
	if !perm.Allows(types.PermLookup | types.PermRead) {
		return t.Done(op, 0, types.Entry{}), nil, fmt.Errorf("readdir %s: %w", dirPath, types.ErrPermission)
	}
	entries, err := s.store.ScanChildren(op, e.ID)
	t.Phase(types.PhaseExecute)
	return t.Done(op, 0, types.Entry{}), entries, err
}

// Mkdir implements api.Service: CFS two single-shard transactions.
func (s *Service) Mkdir(op *rpc.Op, dirPath string) (types.Result, error) {
	parent, name := pathutil.Dir(dirPath), pathutil.Base(dirPath)
	t := api.NewTimer()
	pe, perm, err := s.resolve(op, parent)
	t.Phase(types.PhaseLookup)
	if err != nil {
		return t.Done(op, 0, types.Entry{}), err
	}
	if !perm.Allows(types.PermWrite | types.PermLookup) {
		return t.Done(op, 0, types.Entry{}), fmt.Errorf("mkdir %s: %w", dirPath, types.ErrPermission)
	}
	entry := types.Entry{
		Pid: pe.ID, Name: name, ID: s.store.NewID(), Kind: types.KindDir,
		Perm: types.PermAll, Attr: types.Attr{MTime: time.Now()},
	}
	err = s.store.ApplyAtomic(op, s.store.NewTxnID(), pe.ID, nil, []storage.Mutation{{
		Kind: storage.MutPut, Key: types.Key{Pid: pe.ID, Name: name},
		Entry: entry, IfAbsent: true,
	}})
	if err == nil {
		pk := parentRowKey(pe)
		err = s.store.ApplyAtomic(op, s.store.NewTxnID(), pk.Pid, nil, []storage.Mutation{{
			Kind: storage.MutDeltaAttr, Key: pk,
			Delta: storage.AttrDelta{LinkCount: 1}, MustExist: true,
		}})
	}
	t.Phase(types.PhaseExecute)
	return t.Done(op, 0, entry), err
}

// Rmdir implements api.Service: an emptiness-guarded delete (2PC across
// the child-range shard and the row shard when they differ) plus the
// atomic parent update.
func (s *Service) Rmdir(op *rpc.Op, dirPath string) (types.Result, error) {
	parent, name := pathutil.Dir(dirPath), pathutil.Base(dirPath)
	t := api.NewTimer()
	pe, perm, err := s.resolve(op, parent)
	t.Phase(types.PhaseLookup)
	if err != nil {
		return t.Done(op, 0, types.Entry{}), err
	}
	if !perm.Allows(types.PermWrite | types.PermLookup) {
		return t.Done(op, 0, types.Entry{}), fmt.Errorf("rmdir %s: %w", dirPath, types.ErrPermission)
	}
	de, err := s.store.ResolveStep(op, pe.ID, name)
	if err != nil {
		t.Phase(types.PhaseExecute)
		return t.Done(op, 0, types.Entry{}), err
	}
	if !de.IsDir() {
		t.Phase(types.PhaseExecute)
		return t.Done(op, 0, types.Entry{}), fmt.Errorf("rmdir %s: %w", dirPath, types.ErrNotDir)
	}
	rowShard := s.store.ShardFor(pe.ID)
	childShard := s.store.ShardFor(de.ID)
	retries, err := s.store.RunTxn(op, func(int) ([]txn.Piece, error) {
		rowPiece := txn.Piece{
			P: rowShard,
			Muts: []storage.Mutation{{
				Kind: storage.MutDelete, Key: types.Key{Pid: pe.ID, Name: name}, MustExist: true,
			}},
		}
		guard := storage.Guard{
			Kind:  storage.GuardRangeEmpty,
			Key:   types.Key{Pid: de.ID, Name: ""},
			KeyHi: types.Key{Pid: de.ID + 1, Name: ""},
		}
		if rowShard == childShard {
			rowPiece.Guards = append(rowPiece.Guards, guard)
			return []txn.Piece{rowPiece}, nil
		}
		return []txn.Piece{rowPiece, {P: childShard, Guards: []storage.Guard{guard}}}, nil
	})
	if err == nil {
		pk := parentRowKey(pe)
		err = s.store.ApplyAtomic(op, s.store.NewTxnID(), pk.Pid, nil, []storage.Mutation{{
			Kind: storage.MutDeltaAttr, Key: pk,
			Delta: storage.AttrDelta{LinkCount: -1}, MustExist: true,
		}})
	}
	if err == nil && s.amCache != nil {
		s.amCache.invalidate(dirPath)
	}
	t.Phase(types.PhaseExecute)
	return t.Done(op, retries, types.Entry{}), err
}

// DirRename implements api.Service: loop detection on the dedicated
// rename coordinator (one RPC), then a distributed transaction spanning
// the source and destination parents' shards with in-place attribute
// updates — the contended path that collapses in dirrename-s.
func (s *Service) DirRename(op *rpc.Op, srcPath, dstPath string) (types.Result, error) {
	srcParent, srcName := pathutil.Dir(srcPath), pathutil.Base(srcPath)
	dstParent, dstName := pathutil.Dir(dstPath), pathutil.Base(dstPath)
	uuid := fmt.Sprintf("inf-%d", s.uuidSq.Add(1))
	t := api.NewTimer()
	spe, sperm, err := s.resolve(op, srcParent)
	if err != nil {
		t.Phase(types.PhaseLookup)
		return t.Done(op, 0, types.Entry{}), err
	}
	dpe, dperm, err := s.resolve(op, dstParent)
	t.Phase(types.PhaseLookup)
	if err != nil {
		return t.Done(op, 0, types.Entry{}), err
	}
	if !sperm.Allows(types.PermWrite) || !dperm.Allows(types.PermWrite) {
		return t.Done(op, 0, types.Entry{}), fmt.Errorf("rename %s: %w", srcPath, types.ErrPermission)
	}
	se, err := s.store.ResolveStep(op, spe.ID, srcName)
	if err != nil {
		t.Phase(types.PhaseLookup)
		return t.Done(op, 0, types.Entry{}), err
	}
	if !se.IsDir() {
		t.Phase(types.PhaseLookup)
		return t.Done(op, 0, types.Entry{}), fmt.Errorf("rename %s: %w", srcPath, types.ErrNotDir)
	}

	// Loop detection + rename lock on the coordinator.
	if err := s.coord.prepare(op, se.ID, srcPath, dstParent, uuid); err != nil {
		t.Phase(types.PhaseLoopDetect)
		return t.Done(op, 0, types.Entry{}), err
	}
	t.Phase(types.PhaseLoopDetect)
	defer s.coord.release(se.ID, uuid)

	moved := se
	moved.Pid = dpe.ID
	moved.Name = dstName
	srcShard := s.store.ShardFor(spe.ID)
	dstShard := s.store.ShardFor(dpe.ID)
	sk, dk := parentRowKey(spe), parentRowKey(dpe)
	skShard, dkShard := s.store.ShardFor(sk.Pid), s.store.ShardFor(dk.Pid)
	retries, err := s.store.RunTxn(op, func(int) ([]txn.Piece, error) {
		byShard := map[*txn.Participant]*txn.Piece{}
		add := func(p *txn.Participant, g []storage.Guard, m []storage.Mutation) {
			piece, ok := byShard[p]
			if !ok {
				piece = &txn.Piece{P: p}
				byShard[p] = piece
			}
			piece.Guards = append(piece.Guards, g...)
			piece.Muts = append(piece.Muts, m...)
		}
		add(srcShard, nil, []storage.Mutation{{
			Kind: storage.MutDelete, Key: types.Key{Pid: spe.ID, Name: srcName}, MustExist: true,
		}})
		add(dstShard, nil, []storage.Mutation{{
			Kind: storage.MutPut, Key: types.Key{Pid: dpe.ID, Name: dstName},
			Entry: moved, IfAbsent: true,
		}})
		if spe.ID != dpe.ID {
			add(skShard, nil, []storage.Mutation{{
				Kind: storage.MutDeltaAttr, Key: sk,
				Delta: storage.AttrDelta{LinkCount: -1}, MustExist: true,
			}})
			add(dkShard, nil, []storage.Mutation{{
				Kind: storage.MutDeltaAttr, Key: dk,
				Delta: storage.AttrDelta{LinkCount: 1}, MustExist: true,
			}})
		}
		pieces := make([]txn.Piece, 0, len(byShard))
		for _, p := range byShard {
			pieces = append(pieces, *p)
		}
		return pieces, nil
	})
	if err == nil && s.amCache != nil {
		s.amCache.invalidate(srcPath)
	}
	t.Phase(types.PhaseExecute)
	return t.Done(op, retries, types.Entry{}), err
}

// Populate implements api.Service.
func (s *Service) Populate(dirs []api.PopDir, objects []api.PopObject) error {
	return dbtable.Populate(s.store, dirs, objects)
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

// amCache is the proxy-side AM-Cache: directory path → resolution
// result, with subtree invalidation on rename/rmdir.
type amCache struct {
	mu     sync.RWMutex
	m      map[string]amEntry
	prefix *radix.Tree
	hits   atomic.Int64
}

type amEntry struct {
	e    types.Entry
	perm types.Perm
}

func newAMCache() *amCache {
	return &amCache{m: make(map[string]amEntry), prefix: radix.New()}
}

func (c *amCache) get(path string) (types.Entry, types.Perm, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	ent, ok := c.m[pathutil.Clean(path)]
	if ok {
		c.hits.Add(1)
	}
	return ent.e, ent.perm, ok
}

func (c *amCache) put(path string, e types.Entry, perm types.Perm) {
	path = pathutil.Clean(path)
	if path == "/" {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m[path] = amEntry{e: e, perm: perm}
	c.prefix.Insert(path)
}

func (c *amCache) invalidate(path string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, p := range c.prefix.RemoveSubtree(pathutil.Clean(path)) {
		delete(c.m, p)
	}
}
