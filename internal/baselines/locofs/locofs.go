// Package locofs re-implements the LocoFS-style tiered metadata service
// the paper compares against (§6.1, §3.3): directory metadata lives on a
// single dedicated directory server (path resolution is local — one
// proxy RPC — but there is no prefix cache and no follower read, so the
// node's CPU is the bottleneck), while object metadata lives in a
// sharded database. Directory-structure mutations replicate through a
// Raft group without log batching — the "throttled by the Raft
// throughput" behaviour of Figure 14 — and updates to the same key in
// the sub-directory list serialise on a per-key latch.
package locofs

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"sync"
	"time"

	"mantle/internal/api"
	"mantle/internal/baselines/dbtable"
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
	rafts    []*raft.Raft
	states   []*dirState
	nodes    []*netsim.Node
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
	s := &Service{
		cfg:      cfg,
		objStore: dbtable.New(cfg.ObjStore),
		caller:   rpc.NewCaller(cfg.Fabric),
	}
	raftCfgs := make([]raft.Config, cfg.Voters)
	for i := 0; i < cfg.Voters; i++ {
		st := newDirState()
		node := netsim.NewNode(fmt.Sprintf("locofs-dir-%d", i), cfg.DirWorkers)
		s.states = append(s.states, st)
		s.nodes = append(s.nodes, node)
		raftCfgs[i] = raft.Config{
			ID:              fmt.Sprintf("locofs-dir-%d", i),
			Fabric:          cfg.Fabric,
			Node:            node,
			ElectionTimeout: time.Second,
			FsyncCost:       cfg.FsyncCost,
			// LocoFS does not batch its directory-server log writes —
			// the paper attributes its mkdir throughput ceiling to this.
			BatchEnabled: false,
			SM:           st,
		}
	}
	s.rafts = raft.NewGroup(raftCfgs)
	if _, err := raft.WaitLeader(s.rafts, 10*time.Second); err != nil {
		s.Stop()
		return nil, err
	}
	return s, nil
}

// Name implements api.Service.
func (s *Service) Name() string { return "locofs" }

// Caller implements api.Service.
func (s *Service) Caller() *rpc.Caller { return s.caller }

// Stop implements api.Service.
func (s *Service) Stop() {
	for _, r := range s.rafts {
		r.Stop()
	}
}

func (s *Service) leader() (int, error) {
	for i, r := range s.rafts {
		if role, _, _ := r.Status(); role == raft.Leader {
			return i, nil
		}
	}
	return -1, types.ErrNotLeader
}

// latch serialises an update of directory e's key on the per-row pacer
// (the object store's latch map, which the directory keys share).
func (s *Service) latch(e dirEnt) {
	s.objStore.RowPacer(types.Key{Pid: e.Pid, Name: e.Name}).Charge(s.cfg.LatchCost)
}

// resolveCost is the directory server's CPU charge for a walk of levels.
func (s *Service) resolveCost(levels int) time.Duration {
	return s.cfg.ResolveBaseCost + time.Duration(levels)*s.cfg.ResolveLevelCost
}

// resolveOn walks dir on the directory server's state, charging the walk
// to its node, and requires need of the aggregated path permission;
// verb and path label the permission error.
func (s *Service) resolveOn(st *dirState, node *netsim.Node, verb, path, dir string, need types.Perm) (dirEnt, error) {
	e, perm, levels, err := st.resolve(dir)
	node.Charge(s.resolveCost(levels))
	if err == nil && !perm.Allows(need) {
		err = fmt.Errorf("%s %s: %w", verb, path, types.ErrPermission)
	}
	return e, err
}

// dirCall performs one RPC to the directory server leader, retrying
// briefly across elections.
func (s *Service) dirCall(op *rpc.Op, fn func(st *dirState, node *netsim.Node) error) error {
	var lastErr error
	deadline := time.Now().Add(5 * time.Second)
	for attempt := 0; attempt == 0 || time.Now().Before(deadline); attempt++ {
		li, err := s.leader()
		if err != nil {
			lastErr = err
			time.Sleep(time.Millisecond)
			continue
		}
		return op.Call(s.nodes[li], 0, func() error {
			return fn(s.states[li], s.nodes[li])
		})
	}
	return fmt.Errorf("locofs dir server: %w", lastErr)
}

// propose replicates a directory mutation through Raft.
func (s *Service) propose(c dirCmd) error {
	payload := c.encode()
	var lastErr error
	deadline := time.Now().Add(5 * time.Second)
	for attempt := 0; attempt == 0 || time.Now().Before(deadline); attempt++ {
		li, err := s.leader()
		if err != nil {
			lastErr = err
			time.Sleep(time.Millisecond)
			continue
		}
		if _, err := s.rafts[li].Propose(payload); err == nil {
			return nil
		} else if errors.Is(err, types.ErrNotLeader) {
			lastErr = err
			time.Sleep(time.Millisecond)
			continue
		} else {
			return err
		}
	}
	return fmt.Errorf("locofs propose: %w", lastErr)
}

// Lookup implements api.Service: one RPC; resolution is local to the
// directory server.
func (s *Service) Lookup(op *rpc.Op, dirPath string) (types.Result, error) {
	t := api.NewTimer()
	ctx, sp := trace.Start(op.Context(), "path-resolve")
	sp.SetAttr("mode", "dir-server-local")
	var out types.Entry
	err := s.dirCall(op.WithContext(ctx), func(st *dirState, node *netsim.Node) error {
		e, err := s.resolveOn(st, node, "lookup", dirPath, dirPath, 0)
		if err != nil {
			return err
		}
		out = e.entry()
		return nil
	})
	sp.End()
	t.Phase(types.PhaseLookup)
	return t.Done(op, 0, out), err
}

// Create implements api.Service: the duplicate-name check and parent
// update go through the directory node (the cross-component coordination
// §3.3 calls out), then the object row is inserted in the object store.
func (s *Service) Create(op *rpc.Op, objPath string, size int64) (types.Result, error) {
	dir, name := pathutil.Dir(objPath), pathutil.Base(objPath)
	t := api.NewTimer()
	var parentID types.InodeID
	err := s.dirCall(op, func(st *dirState, node *netsim.Node) error {
		e, err := s.resolveOn(st, node, "create", objPath, dir, types.PermWrite|types.PermLookup)
		if err != nil {
			return err
		}
		parentID = e.ID
		// Duplicate name check (the dir node owns naming) against both
		// halves of the namespace: objects and subdirectories.
		if s.nameTaken(st, e.ID, name) {
			return fmt.Errorf("create %s: %w", objPath, types.ErrExists)
		}
		// Parent update: in-memory on the dir node, serialised per key.
		s.latch(e)
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
	dir, name := pathutil.Dir(objPath), pathutil.Base(objPath)
	t := api.NewTimer()
	var parentID types.InodeID
	err := s.dirCall(op, func(st *dirState, node *netsim.Node) error {
		e, err := s.resolveOn(st, node, "delete", objPath, dir, types.PermWrite|types.PermLookup)
		if err != nil {
			return err
		}
		parentID = e.ID
		s.latch(e)
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
func (s *Service) nameTaken(st *dirState, dir types.InodeID, name string) bool {
	if _, ok := st.get(dir, name); ok {
		return true
	}
	_, ok := s.objStore.GetDirect(types.Key{Pid: dir, Name: name})
	return ok
}

// objWrite applies one object-row mutation under parent in the object
// store (one RPC) and, only once it has succeeded, moves the parent's
// link count by delta on the directory replicas — a failed write leaves
// no trace in the count Rmdir's emptiness check reads.
func (s *Service) objWrite(op *rpc.Op, parent types.InodeID, delta int64, m storage.Mutation) error {
	p := s.objStore.ShardFor(parent)
	err := op.Call(p.Node, p.Cost, func() error { return p.Shard.Apply([]storage.Mutation{m}) })
	if err == nil {
		for _, st := range s.states {
			st.bumpLink(parent, delta)
		}
	}
	return err
}

// ObjStat implements api.Service.
func (s *Service) ObjStat(op *rpc.Op, objPath string) (types.Result, error) {
	dir, name := pathutil.Dir(objPath), pathutil.Base(objPath)
	t := api.NewTimer()
	var parentID types.InodeID
	err := s.dirCall(op, func(st *dirState, node *netsim.Node) error {
		e, err := s.resolveOn(st, node, "objstat", objPath, dir, types.PermLookup)
		if err != nil {
			return err
		}
		parentID = e.ID
		return nil
	})
	t.Phase(types.PhaseLookup)
	if err != nil {
		return t.Done(op, 0, types.Entry{}), err
	}
	var out types.Entry
	p := s.objStore.ShardFor(parentID)
	err = op.Call(p.Node, p.Cost, func() error {
		row, ok := p.Shard.Get(types.Key{Pid: parentID, Name: name})
		if !ok {
			return fmt.Errorf("objstat %s: %w", objPath, types.ErrNotFound)
		}
		out = row.Entry
		return nil
	})
	t.Phase(types.PhaseExecute)
	return t.Done(op, 0, out), err
}

// DirStat implements api.Service: one RPC; the directory server resolves
// the path during the execution phase (the paper's Figure 13 accounting
// for LocoFS directory operations).
func (s *Service) DirStat(op *rpc.Op, dirPath string) (types.Result, error) {
	t := api.NewTimer()
	var out types.Entry
	err := s.dirCall(op, func(st *dirState, node *netsim.Node) error {
		e, err := s.resolveOn(st, node, "dirstat", dirPath, dirPath, 0)
		if err != nil {
			return err
		}
		out = e.entry()
		return nil
	})
	t.Phase(types.PhaseExecute)
	return t.Done(op, 0, out), err
}

// ReadDir implements api.Service: subdirectories come from the directory
// server; objects from the object store.
func (s *Service) ReadDir(op *rpc.Op, dirPath string) (types.Result, []types.Entry, error) {
	t := api.NewTimer()
	var dirID types.InodeID
	var subdirs []types.Entry
	err := s.dirCall(op, func(st *dirState, node *netsim.Node) error {
		e, err := s.resolveOn(st, node, "readdir", dirPath, dirPath, types.PermLookup|types.PermRead)
		if err != nil {
			return err
		}
		dirID = e.ID
		subdirs = st.children(e.ID)
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
	parent, name := pathutil.Dir(dirPath), pathutil.Base(dirPath)
	id := s.objStore.NewID()
	t := api.NewTimer()
	var entry types.Entry
	err := s.dirCall(op, func(st *dirState, node *netsim.Node) error {
		pe, err := s.resolveOn(st, node, "mkdir", dirPath, parent, types.PermWrite|types.PermLookup)
		if err != nil {
			return err
		}
		if s.nameTaken(st, pe.ID, name) {
			return fmt.Errorf("mkdir %s: %w", dirPath, types.ErrExists)
		}
		s.latch(pe)
		entry = types.Entry{
			Pid: pe.ID, Name: name, ID: id, Kind: types.KindDir,
			Perm: types.PermAll, Attr: types.Attr{MTime: time.Now()},
		}
		return s.propose(dirCmd{Kind: cmdMkdir, Pid: pe.ID, Name: name, ID: id, Perm: types.PermAll})
	})
	t.Phase(types.PhaseExecute)
	return t.Done(op, 0, entry), err
}

// Rmdir implements api.Service.
func (s *Service) Rmdir(op *rpc.Op, dirPath string) (types.Result, error) {
	parent, name := pathutil.Dir(dirPath), pathutil.Base(dirPath)
	t := api.NewTimer()
	err := s.dirCall(op, func(st *dirState, node *netsim.Node) error {
		pe, err := s.resolveOn(st, node, "rmdir", dirPath, parent, types.PermWrite|types.PermLookup)
		if err != nil {
			return err
		}
		de, ok := st.get(pe.ID, name)
		if !ok {
			return fmt.Errorf("rmdir %s: %w", dirPath, types.ErrNotFound)
		}
		if st.linkCount(de.ID) > 0 || st.subdirCount(de.ID) > 0 {
			return fmt.Errorf("rmdir %s: %w", dirPath, types.ErrNotEmpty)
		}
		s.latch(pe)
		return s.propose(dirCmd{Kind: cmdRmdir, Pid: pe.ID, Name: name, ID: de.ID})
	})
	t.Phase(types.PhaseExecute)
	return t.Done(op, 0, types.Entry{}), err
}

// DirRename implements api.Service: resolution and loop detection are
// local to the directory server, then the rename replicates through the
// unbatched Raft log; same-key updates serialise on the latch.
func (s *Service) DirRename(op *rpc.Op, srcPath, dstPath string) (types.Result, error) {
	srcParent, srcName := pathutil.Dir(srcPath), pathutil.Base(srcPath)
	dstParent, dstName := pathutil.Dir(dstPath), pathutil.Base(dstPath)
	t := api.NewTimer()
	err := s.dirCall(op, func(st *dirState, node *netsim.Node) error {
		spe, sperm, slev, err := st.resolve(srcParent)
		if err != nil {
			node.Charge(s.resolveCost(slev))
			return err
		}
		dpe, dperm, dlev, err := st.resolve(dstParent)
		node.Charge(s.resolveCost(slev + dlev))
		if err != nil {
			return err
		}
		if !sperm.Allows(types.PermWrite) || !dperm.Allows(types.PermWrite) {
			return fmt.Errorf("rename %s: %w", srcPath, types.ErrPermission)
		}
		se, ok := st.get(spe.ID, srcName)
		if !ok {
			return fmt.Errorf("rename src %s: %w", srcPath, types.ErrNotFound)
		}
		if _, exists := st.get(dpe.ID, dstName); exists {
			return fmt.Errorf("rename dst %s: %w", dstPath, types.ErrExists)
		}
		// Loop detection: local ancestor walk, charged per level.
		levels, loop := st.wouldLoop(se.ID, dpe.ID)
		node.Charge(time.Duration(levels) * s.cfg.ResolveLevelCost)
		if loop {
			return fmt.Errorf("rename %s under %s: %w", srcPath, dstPath, types.ErrLoop)
		}
		s.latch(dpe)
		return s.propose(dirCmd{
			Kind: cmdRename, Pid: spe.ID, Name: srcName, ID: se.ID, Perm: se.Perm,
			DstPid: dpe.ID, DstName: dstName,
		})
	})
	t.Phase(types.PhaseExecute)
	return t.Done(op, 0, types.Entry{}), err
}

// Populate implements api.Service.
func (s *Service) Populate(dirs []api.PopDir, objects []api.PopObject) error {
	for _, st := range s.states {
		st.bulkAdd(dirs)
	}
	entries := make([]types.Entry, 0, len(objects))
	for _, d := range dirs {
		s.objStore.ReserveIDs(d.ID)
	}
	for _, o := range objects {
		entries = append(entries, types.Entry{
			Pid: o.Pid, Name: o.Name, ID: s.objStore.NewID(), Kind: types.KindObject,
			Perm: types.PermAll, Attr: types.Attr{Size: o.Size},
		})
		for _, st := range s.states {
			st.bumpLink(o.Pid, 1)
		}
	}
	return s.objStore.BulkInsert(entries)
}

// --- directory server state machine ---

type cmdKind uint8

const (
	cmdMkdir cmdKind = iota + 1
	cmdRmdir
	cmdRename
)

type dirCmd struct {
	Kind    cmdKind
	Pid     types.InodeID
	Name    string
	ID      types.InodeID
	Perm    types.Perm
	DstPid  types.InodeID
	DstName string
}

func (c dirCmd) encode() []byte {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(c); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

func decodeDirCmd(b []byte) dirCmd {
	var c dirCmd
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&c); err != nil {
		panic(err)
	}
	return c
}

type dirEnt struct {
	Pid  types.InodeID
	Name string
	ID   types.InodeID
	Perm types.Perm
	Attr types.Attr
}

func (e *dirEnt) entry() types.Entry {
	return types.Entry{Pid: e.Pid, Name: e.Name, ID: e.ID, Kind: types.KindDir, Perm: e.Perm, Attr: e.Attr}
}

// dirState is one replica's in-memory directory tree.
type dirState struct {
	mu    sync.RWMutex
	byKey map[types.Key]*dirEnt
	byID  map[types.InodeID]*dirEnt
	links map[types.InodeID]int64 // object link counts (weakly consistent)
	nsubs map[types.InodeID]int   // subdirectory counts
}

func newDirState() *dirState {
	return &dirState{
		byKey: make(map[types.Key]*dirEnt),
		byID:  make(map[types.InodeID]*dirEnt),
		links: make(map[types.InodeID]int64),
		nsubs: make(map[types.InodeID]int),
	}
}

// Apply implements raft.StateMachine.
func (st *dirState) Apply(_ uint64, cmd []byte) {
	c := decodeDirCmd(cmd)
	st.mu.Lock()
	defer st.mu.Unlock()
	switch c.Kind {
	case cmdMkdir:
		e := &dirEnt{Pid: c.Pid, Name: c.Name, ID: c.ID, Perm: c.Perm,
			Attr: types.Attr{MTime: time.Now()}}
		st.byKey[types.Key{Pid: c.Pid, Name: c.Name}] = e
		st.byID[c.ID] = e
		st.nsubs[c.Pid]++
	case cmdRmdir:
		delete(st.byKey, types.Key{Pid: c.Pid, Name: c.Name})
		delete(st.byID, c.ID)
		delete(st.links, c.ID)
		delete(st.nsubs, c.ID)
		st.nsubs[c.Pid]--
	case cmdRename:
		k := types.Key{Pid: c.Pid, Name: c.Name}
		e, ok := st.byKey[k]
		if !ok {
			return
		}
		delete(st.byKey, k)
		e.Pid, e.Name = c.DstPid, c.DstName
		st.byKey[types.Key{Pid: c.DstPid, Name: c.DstName}] = e
		st.nsubs[c.Pid]--
		st.nsubs[c.DstPid]++
	}
}

func (st *dirState) get(pid types.InodeID, name string) (dirEnt, bool) {
	st.mu.RLock()
	defer st.mu.RUnlock()
	e, ok := st.byKey[types.Key{Pid: pid, Name: name}]
	if !ok {
		return dirEnt{}, false
	}
	return *e, true
}

// resolve walks path locally, returning the final entry, aggregated
// permission, and levels walked.
func (st *dirState) resolve(path string) (dirEnt, types.Perm, int, error) {
	comps := pathutil.Split(path)
	st.mu.RLock()
	defer st.mu.RUnlock()
	cur := dirEnt{ID: types.RootID, Perm: types.PermAll}
	perm := types.PermAll
	levels := 0
	for i, name := range comps {
		e, ok := st.byKey[types.Key{Pid: cur.ID, Name: name}]
		if !ok {
			return dirEnt{}, 0, levels, fmt.Errorf("locofs resolve %s at %q: %w", path, name, types.ErrNotFound)
		}
		levels++
		perm = perm.Intersect(e.Perm)
		if i < len(comps)-1 && !perm.Allows(types.PermLookup) {
			return dirEnt{}, 0, levels, fmt.Errorf("locofs resolve %s: %w", path, types.ErrPermission)
		}
		cur = *e
	}
	out := cur
	if lc, ok := st.links[out.ID]; ok {
		out.Attr.LinkCount += lc
	}
	return out, perm, levels, nil
}

func (st *dirState) children(dir types.InodeID) []types.Entry {
	st.mu.RLock()
	defer st.mu.RUnlock()
	var out []types.Entry
	for k, e := range st.byKey {
		if k.Pid == dir {
			out = append(out, e.entry())
		}
	}
	return out
}

func (st *dirState) bumpLink(dir types.InodeID, d int64) {
	st.mu.Lock()
	st.links[dir] += d
	st.mu.Unlock()
}

func (st *dirState) linkCount(dir types.InodeID) int64 {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.links[dir]
}

func (st *dirState) subdirCount(dir types.InodeID) int {
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.nsubs[dir]
}

func (st *dirState) wouldLoop(srcID, dstParentID types.InodeID) (int, bool) {
	st.mu.RLock()
	defer st.mu.RUnlock()
	cur := dstParentID
	levels := 0
	for cur != types.RootID {
		if cur == srcID {
			return levels, true
		}
		e, ok := st.byID[cur]
		if !ok {
			break
		}
		cur = e.Pid
		levels++
	}
	return levels, false
}

func (st *dirState) bulkAdd(dirs []api.PopDir) {
	st.mu.Lock()
	defer st.mu.Unlock()
	for _, d := range dirs {
		perm := d.Perm
		if perm == 0 {
			perm = types.PermAll
		}
		e := &dirEnt{Pid: d.Pid, Name: pathutil.Base(d.Path), ID: d.ID, Perm: perm}
		st.byKey[types.Key{Pid: d.Pid, Name: pathutil.Base(d.Path)}] = e
		st.byID[d.ID] = e
		st.nsubs[d.Pid]++
	}
}
