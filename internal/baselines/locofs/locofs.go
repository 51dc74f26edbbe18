// Package locofs re-implements the LocoFS-style tiered metadata service
// the paper compares against (§6.1, §3.3): directory metadata lives on a
// single dedicated directory server (path resolution is local — one
// proxy RPC — but there is no prefix cache and no follower read, so the
// node's CPU is the bottleneck), while object metadata lives in a
// sharded database. Directory-structure mutations replicate through a
// Raft group without log batching — the "throttled by the Raft
// throughput" behaviour of Figure 14 — and updates to the same key in
// the sub-directory list serialise on a per-key latch.
//
// The directory server is Mantle's own IndexNode group with the
// TopDirPathCache, follower reads and log batching off (Mantle-base in the
// paper's Fig 16 is this directory server), which also owns finding the
// leader and retrying across elections. What is LocoFS's own is
// everything around it: one dirCall RPC per directory operation that
// resolves, checks and proposes on the leader, the per-level resolve and
// per-key latch charges, and the side counters.
package locofs

import (
	"fmt"
	"sync"
	"time"

	"mantle/internal/api"
	"mantle/internal/baselines/dbtable"
	"mantle/internal/indexnode"
	"mantle/internal/netsim"
	"mantle/internal/pathutil"
	"mantle/internal/raft"
	"mantle/internal/rpc"
	"mantle/internal/storage"
	"mantle/internal/trace"
	"mantle/internal/types"
)

// Config parameterises the service.
type Config struct {
	// ObjStore configures the sharded object-metadata database.
	ObjStore dbtable.Config
	// Fabric supplies RPC latency.
	Fabric *netsim.Fabric
	// DirWorkers is the directory server's CPU worker count.
	DirWorkers int
	// ResolveBaseCost/ResolveLevelCost model local path resolution CPU
	// on the directory server (no cache: every level is walked).
	ResolveBaseCost  time.Duration
	ResolveLevelCost time.Duration
	// LatchCost is the serialised cost of updating the same directory
	// key concurrently.
	LatchCost time.Duration
	// FsyncCost is the Raft log sync cost (no batching in LocoFS).
	FsyncCost time.Duration
	// Voters is the directory server's Raft group size.
	Voters int
}

// Service is the LocoFS-style baseline. Implements api.Service.
type Service struct {
	cfg      Config
	objStore *dbtable.Store
	caller   *rpc.Caller
	dir      *indexnode.Group
	counts   dirCounts
}

var _ api.Service = (*Service)(nil)

// New builds and starts the service.
func New(cfg Config) (*Service, error) {
	if cfg.Fabric == nil {
		cfg.Fabric = netsim.NewLocalFabric()
	}
	if cfg.ObjStore.Name == "" {
		cfg.ObjStore.Name = "locofs-obj"
	}
	if cfg.Voters <= 0 {
		cfg.Voters = 3
	}
	if cfg.LatchCost <= 0 {
		cfg.LatchCost = 120 * time.Microsecond
	}
	dir, err := indexnode.NewGroup(indexnode.Config{
		Name: "locofs-dir", Voters: cfg.Voters, Workers: cfg.DirWorkers, Fabric: cfg.Fabric,
		// CacheEnabled, FollowerRead and Raft.BatchEnabled stay off: no
		// prefix cache, leader-only reads, and an unbatched log — the
		// paper attributes LocoFS's mkdir throughput ceiling to the last.
		// The log is never compacted and the heartbeat is raft's own
		// default for a 1s election timeout, not the group's.
		Raft: raft.Config{FsyncCost: cfg.FsyncCost, HeartbeatInterval: 200 * time.Millisecond, SnapshotThreshold: -1},
	})
	if err != nil {
		return nil, err
	}
	return &Service{
		cfg:      cfg,
		objStore: dbtable.New(cfg.ObjStore),
		caller:   rpc.NewCaller(cfg.Fabric),
		dir:      dir,
		counts:   dirCounts{m: make(map[types.InodeID]dirCount)},
	}, nil
}

// Name implements api.Service.
func (s *Service) Name() string { return "locofs" }

// Caller implements api.Service.
func (s *Service) Caller() *rpc.Caller { return s.caller }

// Stop implements api.Service.
func (s *Service) Stop() { s.dir.Stop() }

// latch serialises an update of the key of directory dir (as resolved to
// res) on the per-row pacer (the object store's latch map, which the
// directory keys share).
func (s *Service) latch(res indexnode.LookupResult, dir string) {
	s.objStore.RowPacer(types.Key{Pid: res.ParentID, Name: pathutil.Base(dir)}).Charge(s.cfg.LatchCost)
}

// resolveCost is the directory server's CPU charge for a walk of levels.
func (s *Service) resolveCost(levels int) time.Duration {
	return s.cfg.ResolveBaseCost + time.Duration(levels)*s.cfg.ResolveLevelCost
}

// leader is the directory server as one dirCall finds it: the replica the
// RPC landed on, its CPU node and its log.
type leader struct {
	rep  *indexnode.Replica
	node *netsim.Node
	log  *raft.Raft
}

// resolve walks dir on the directory server (no cache: every level from
// the root), charging the walk to its node, and requires need of the
// aggregated path permission; verb and path label the permission error.
func (s *Service) resolve(d leader, verb, path, dir string, need types.Perm) (indexnode.LookupResult, error) {
	res, err := d.rep.Lookup(dir)
	d.node.Charge(s.resolveCost(res.Levels))
	if err == nil && !res.Perm.Allows(need) {
		err = fmt.Errorf("%s %s: %w", verb, path, types.ErrPermission)
	}
	return res, err
}

// dirCall performs one RPC to the directory server's leader; a call that
// finds leadership moved (ErrNotLeader from propose included) is retried
// there.
func (s *Service) dirCall(op *rpc.Op, fn func(d leader) error) error {
	return s.dir.Call(op, "call", indexnode.AnyLeader, 0, func(i int, _ time.Duration) error {
		return fn(leader{s.dir.Replicas()[i], s.dir.Nodes()[i], s.dir.Rafts()[i]})
	})
}

// propose replicates a directory mutation through the log of the leader
// the RPC is running on.
func (d leader) propose(c indexnode.Cmd) error {
	_, err := d.log.Propose(c.Encode())
	return err
}

// statDir is the body Lookup and DirStat share: one RPC in which the
// directory server resolves dirPath and returns its entry with the
// (weakly consistent) object link count.
func (s *Service) statDir(op *rpc.Op, verb, dirPath string) (types.Entry, error) {
	var out types.Entry
	err := s.dirCall(op, func(d leader) error {
		res, err := s.resolve(d, verb, dirPath, dirPath, 0)
		if err != nil {
			return err
		}
		out = types.Entry{
			Pid: res.ParentID, Name: pathutil.Base(dirPath), ID: res.ID, Kind: types.KindDir,
			Perm: res.Perm, Attr: types.Attr{LinkCount: s.counts.of(res.ID).links},
		}
		return nil
	})
	return out, err
}

// Lookup implements api.Service: one RPC; resolution is local to the
// directory server.
func (s *Service) Lookup(op *rpc.Op, dirPath string) (types.Result, error) {
	t := api.NewTimer()
	ctx, sp := trace.Start(op.Context(), trace.PathResolve)
	sp.SetAttr("mode", "dir-server-local")
	out, err := s.statDir(op.WithContext(ctx), "lookup", dirPath)
	sp.End()
	t.Phase(types.PhaseLookup)
	return t.Done(op, 0, out), err
}

// Create implements api.Service: the duplicate-name check and parent
// update go through the directory node (the cross-component coordination
// §3.3 calls out), then the object row is inserted in the object store.
func (s *Service) Create(op *rpc.Op, objPath string, size int64) (types.Result, error) {
	dir, name := pathutil.DirBase(objPath)
	t := api.NewTimer()
	var parentID types.InodeID
	err := s.dirCall(op, func(d leader) error {
		res, err := s.resolve(d, "create", objPath, dir, types.PermWrite|types.PermLookup)
		if err != nil {
			return err
		}
		parentID = res.ID
		// Duplicate name check (the dir node owns naming) against both
		// halves of the namespace: objects and subdirectories.
		if s.nameTaken(d.rep, res.ID, name) {
			return fmt.Errorf("create %s: %w", objPath, types.ErrExists)
		}
		// Parent update: in-memory on the dir node, serialised per key.
		s.latch(res, dir)
		return nil
	})
	t.Phase(types.PhaseLookup)
	if err != nil {
		return t.Done(op, 0, types.Entry{}), err
	}
	entry := types.Entry{
		Pid: parentID, Name: name, ID: s.objStore.NewID(), Kind: types.KindObject,
		Perm: types.PermAll, Attr: types.Attr{Size: size, MTime: time.Now()},
	}
	err = s.objWrite(op, parentID, 1, storage.Mutation{
		Kind: storage.MutPut, Key: types.Key{Pid: parentID, Name: name},
		Entry: entry, IfAbsent: true,
	})
	t.Phase(types.PhaseExecute)
	return t.Done(op, 0, entry), err
}

// Delete implements api.Service.
func (s *Service) Delete(op *rpc.Op, objPath string) (types.Result, error) {
	dir, name := pathutil.DirBase(objPath)
	t := api.NewTimer()
	var parentID types.InodeID
	err := s.dirCall(op, func(d leader) error {
		res, err := s.resolve(d, "delete", objPath, dir, types.PermWrite|types.PermLookup)
		if err != nil {
			return err
		}
		parentID = res.ID
		s.latch(res, dir)
		return nil
	})
	t.Phase(types.PhaseLookup)
	if err != nil {
		return t.Done(op, 0, types.Entry{}), err
	}
	err = s.objWrite(op, parentID, -1, storage.Mutation{
		Kind: storage.MutDelete, Key: types.Key{Pid: parentID, Name: name}, MustExist: true,
	})
	t.Phase(types.PhaseExecute)
	return t.Done(op, 0, types.Entry{}), err
}

// nameTaken reports whether name exists under dir as a subdirectory or
// as an object.
func (s *Service) nameTaken(rep *indexnode.Replica, dir types.InodeID, name string) bool {
	if _, ok := rep.Table().Get(dir, name); ok {
		return true
	}
	_, ok := s.objStore.GetDirect(types.Key{Pid: dir, Name: name})
	return ok
}

// objWrite applies one object-row mutation under parent in the object
// store (one RPC) and, only once it has succeeded, moves the parent's
// link count by delta — a failed write leaves no trace in the count
// Rmdir's emptiness check reads.
func (s *Service) objWrite(op *rpc.Op, parent types.InodeID, delta int64, m storage.Mutation) error {
	err := s.objStore.ApplyRelaxed(op, parent, []storage.Mutation{m})
	if err == nil {
		s.counts.add(parent, delta, 0)
	}
	return err
}

// ObjStat implements api.Service.
func (s *Service) ObjStat(op *rpc.Op, objPath string) (types.Result, error) {
	dir, name := pathutil.DirBase(objPath)
	t := api.NewTimer()
	var parentID types.InodeID
	err := s.dirCall(op, func(d leader) error {
		res, err := s.resolve(d, "objstat", objPath, dir, types.PermLookup)
		parentID = res.ID
		return err
	})
	t.Phase(types.PhaseLookup)
	if err != nil {
		return t.Done(op, 0, types.Entry{}), err
	}
	out, err := s.objStore.ResolveStep(op, parentID, name)
	t.Phase(types.PhaseExecute)
	return t.Done(op, 0, out), err
}

// DirStat implements api.Service: one RPC; the directory server resolves
// the path during the execution phase (the paper's Figure 13 accounting
// for LocoFS directory operations).
func (s *Service) DirStat(op *rpc.Op, dirPath string) (types.Result, error) {
	t := api.NewTimer()
	out, err := s.statDir(op, "dirstat", dirPath)
	t.Phase(types.PhaseExecute)
	return t.Done(op, 0, out), err
}

// ReadDir implements api.Service: subdirectories come from the directory
// server; objects from the object store.
func (s *Service) ReadDir(op *rpc.Op, dirPath string) (types.Result, []types.Entry, error) {
	t := api.NewTimer()
	var dirID types.InodeID
	var subdirs []types.Entry
	err := s.dirCall(op, func(d leader) error {
		res, err := s.resolve(d, "readdir", dirPath, dirPath, types.PermLookup|types.PermRead)
		if err != nil {
			return err
		}
		dirID = res.ID
		d.rep.Table().ForEach(func(e types.AccessEntry) bool {
			if e.Pid == dirID {
				subdirs = append(subdirs, types.Entry{Pid: e.Pid, Name: e.Name, ID: e.ID, Kind: types.KindDir, Perm: e.Perm})
			}
			return true
		})
		return nil
	})
	t.Phase(types.PhaseLookup)
	if err != nil {
		return t.Done(op, 0, types.Entry{}), nil, err
	}
	objs, err := s.objStore.ScanChildren(op, dirID)
	t.Phase(types.PhaseExecute)
	return t.Done(op, 0, types.Entry{}), append(subdirs, objs...), err
}

// Mkdir implements api.Service: resolution on the directory server, then
// a Raft-replicated mutation — the unbatched log write that throttles
// LocoFS's directory throughput.
func (s *Service) Mkdir(op *rpc.Op, dirPath string) (types.Result, error) {
	parent, name := pathutil.DirBase(dirPath)
	id := s.objStore.NewID()
	t := api.NewTimer()
	var entry types.Entry
	err := s.dirCall(op, func(d leader) error {
		pres, err := s.resolve(d, "mkdir", dirPath, parent, types.PermWrite|types.PermLookup)
		if err != nil {
			return err
		}
		if s.nameTaken(d.rep, pres.ID, name) {
			return fmt.Errorf("mkdir %s: %w", dirPath, types.ErrExists)
		}
		s.latch(pres, parent)
		entry = types.Entry{
			Pid: pres.ID, Name: name, ID: id, Kind: types.KindDir,
			Perm: types.PermAll, Attr: types.Attr{MTime: time.Now()},
		}
		err = d.propose(indexnode.Cmd{Kind: indexnode.CmdAddDir, Pid: pres.ID, Name: name, ID: id, Perm: types.PermAll})
		if err == nil {
			s.counts.add(pres.ID, 0, 1)
		}
		return err
	})
	t.Phase(types.PhaseExecute)
	return t.Done(op, 0, entry), err
}

// Rmdir implements api.Service.
func (s *Service) Rmdir(op *rpc.Op, dirPath string) (types.Result, error) {
	parent, name := pathutil.DirBase(dirPath)
	t := api.NewTimer()
	err := s.dirCall(op, func(d leader) error {
		pres, err := s.resolve(d, "rmdir", dirPath, parent, types.PermWrite|types.PermLookup)
		if err != nil {
			return err
		}
		de, ok := d.rep.Table().Get(pres.ID, name)
		if !ok {
			return fmt.Errorf("rmdir %s: %w", dirPath, types.ErrNotFound)
		}
		if c := s.counts.of(de.ID); c.links > 0 || c.subs > 0 {
			return fmt.Errorf("rmdir %s: %w", dirPath, types.ErrNotEmpty)
		}
		s.latch(pres, parent)
		err = d.propose(indexnode.Cmd{Kind: indexnode.CmdRemoveDir, Pid: pres.ID, Name: name, ID: de.ID, Path: dirPath})
		if err == nil {
			s.counts.add(pres.ID, 0, -1)
			s.counts.forget(de.ID)
		}
		return err
	})
	t.Phase(types.PhaseExecute)
	return t.Done(op, 0, types.Entry{}), err
}

// DirRename implements api.Service: resolution and loop detection are
// local to the directory server, then the rename replicates through the
// unbatched Raft log; same-key updates serialise on the latch.
func (s *Service) DirRename(op *rpc.Op, srcPath, dstPath string) (types.Result, error) {
	srcParent, srcName := pathutil.DirBase(srcPath)
	dstParent, dstName := pathutil.DirBase(dstPath)
	t := api.NewTimer()
	err := s.dirCall(op, func(d leader) error {
		sres, err := d.rep.Lookup(srcParent)
		if err != nil {
			d.node.Charge(s.resolveCost(sres.Levels))
			return err
		}
		dres, err := d.rep.Lookup(dstParent)
		d.node.Charge(s.resolveCost(sres.Levels + dres.Levels))
		if err != nil {
			return err
		}
		if !sres.Perm.Allows(types.PermWrite) || !dres.Perm.Allows(types.PermWrite) {
			return fmt.Errorf("rename %s: %w", srcPath, types.ErrPermission)
		}
		table := d.rep.Table()
		se, ok := table.Get(sres.ID, srcName)
		if !ok {
			return fmt.Errorf("rename src %s: %w", srcPath, types.ErrNotFound)
		}
		if _, exists := table.Get(dres.ID, dstName); exists {
			return fmt.Errorf("rename dst %s: %w", dstPath, types.ErrExists)
		}
		// Loop detection: a local ancestor walk from the destination
		// parent towards the root, charged per level.
		d.node.Charge(time.Duration(dres.Levels) * s.cfg.ResolveLevelCost)
		if table.IsAncestorID(se.ID, dres.ID) {
			return fmt.Errorf("rename %s under %s: %w", srcPath, dstPath, types.ErrLoop)
		}
		s.latch(dres, dstParent)
		err = d.propose(indexnode.Cmd{
			Kind: indexnode.CmdRename, Pid: sres.ID, Name: srcName, ID: se.ID, Perm: se.Perm,
			DstPid: dres.ID, DstName: dstName, Path: srcPath,
		})
		if err == nil {
			s.counts.add(sres.ID, 0, -1)
			s.counts.add(dres.ID, 0, 1)
		}
		return err
	})
	t.Phase(types.PhaseExecute)
	return t.Done(op, 0, types.Entry{}), err
}

// Populate implements api.Service. The side counts move by what landed:
// a directory gains the subdirectories new to the directory server's
// table and the object rows new to the object store.
func (s *Service) Populate(dirs []api.PopDir, objects []api.PopObject) error {
	rows, access := api.PopRows(&s.objStore.IDAlloc, dirs, objects)
	for dir, n := range s.dir.BulkAdd(access) {
		s.counts.add(dir, 0, n)
	}
	links, err := s.objStore.BulkInsert(rows[len(dirs):])
	for dir, n := range links {
		s.counts.add(dir, n, 0)
	}
	return err
}

// dirCount is one directory's bookkeeping beside the replicated tree:
// how many objects link to it and how many subdirectories it holds.
type dirCount struct{ links, subs int64 }

// dirCounts is the directory server's weakly consistent side map — what
// DirStat's link count and Rmdir's emptiness check read. The service
// moves a count once the write it describes has succeeded; the counts
// never ride the log.
type dirCounts struct {
	mu sync.Mutex
	m  map[types.InodeID]dirCount
}

func (c *dirCounts) add(dir types.InodeID, links, subs int64) {
	c.mu.Lock()
	v := c.m[dir]
	c.m[dir] = dirCount{v.links + links, v.subs + subs}
	c.mu.Unlock()
}

func (c *dirCounts) of(dir types.InodeID) dirCount {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.m[dir]
}

func (c *dirCounts) forget(dir types.InodeID) {
	c.mu.Lock()
	delete(c.m, dir)
	c.mu.Unlock()
}
