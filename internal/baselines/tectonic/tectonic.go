// Package tectonic re-implements the Tectonic-style DBtable metadata
// service the paper compares against (§6.1): level-by-level multi-RPC
// path resolution over the sharded MetaTable, and relaxed-consistency
// directory mutations — no distributed transactions; the updates to a
// parent's attribute row are independent single-shard writes serialised
// by a row latch, exactly the behaviour the paper's authors gave their
// re-implementation ("for Tectonic, we relax the consistency and avoid
// using distributed transactions"). It performs no rename loop
// detection, consistent with the paper's Figure 15 breakdown, which
// shows no loop-detection phase for Tectonic.
package tectonic

import (
	"fmt"
	"time"

	"mantle/internal/api"
	"mantle/internal/baselines/dbtable"
	"mantle/internal/netsim"
	"mantle/internal/pathutil"
	"mantle/internal/rpc"
	"mantle/internal/storage"
	"mantle/internal/trace"
	"mantle/internal/types"
)

// Config parameterises the service.
type Config struct {
	// Store configures the underlying DBtable shards.
	Store dbtable.Config
	// Fabric supplies RPC latency (also used for the store when unset
	// there).
	Fabric *netsim.Fabric
	// DistributedTxn switches directory mutations from relaxed
	// independent writes to full two-phase-commit transactions with
	// in-place parent-attribute updates. This is the *legacy* DBtable
	// service of §2.3/§3 (the pre-Mantle Baidu deployment whose Figure 4
	// contention collapse motivates the paper); the paper's Tectonic
	// re-implementation leaves it off.
	DistributedTxn bool
	// NameOverride changes the reported service name (the experiments
	// driver labels the legacy configuration "dbtable").
	NameOverride string
}

// Service is the Tectonic-style baseline. Implements api.Service.
type Service struct {
	cfg    Config
	store  *dbtable.Store
	caller *rpc.Caller
}

var _ api.Service = (*Service)(nil)

// New builds the service.
func New(cfg Config) *Service {
	if cfg.Fabric == nil {
		cfg.Fabric = netsim.NewLocalFabric()
	}
	cfg.Store.Fabric = cfg.Fabric
	if cfg.Store.Name == "" {
		cfg.Store.Name = "tectonic"
	}
	return &Service{
		cfg:    cfg,
		store:  dbtable.New(cfg.Store),
		caller: rpc.NewCaller(cfg.Fabric),
	}
}

// Name implements api.Service.
func (s *Service) Name() string {
	if s.cfg.NameOverride != "" {
		return s.cfg.NameOverride
	}
	return "tectonic"
}

// Caller implements api.Service.
func (s *Service) Caller() *rpc.Caller { return s.caller }

// Stop implements api.Service.
func (s *Service) Stop() {}

// Lookup implements api.Service: the sequential multi-RPC traversal.
func (s *Service) Lookup(op *rpc.Op, dirPath string) (types.Result, error) {
	t := api.NewTimer()
	ctx, sp := trace.Start(op.Context(), "path-resolve")
	sp.SetAttr("mode", "sequential")
	e, perm, err := s.store.ResolvePath(op.WithContext(ctx), dirPath)
	sp.End()
	t.Phase(types.PhaseLookup)
	if err != nil {
		return t.Done(op, 0, types.Entry{}), err
	}
	e.Perm = perm
	return t.Done(op, 0, e), nil
}

// parentRowKey is the MetaTable key of directory entry e itself (where
// its attributes live).
func parentRowKey(e types.Entry) types.Key {
	if e.ID == types.RootID {
		return dbtable.RootKey()
	}
	return types.Key{Pid: e.Pid, Name: e.Name}
}

// Create implements api.Service: resolve the parent (N RPCs), insert the
// object row, then update the parent's attribute row — two independent
// relaxed writes.
func (s *Service) Create(op *rpc.Op, objPath string, size int64) (types.Result, error) {
	dir, name := pathutil.Dir(objPath), pathutil.Base(objPath)
	t := api.NewTimer()
	parent, perm, err := s.store.ResolvePath(op, dir)
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
	var retries int
	if s.cfg.DistributedTxn {
		retries, err = s.legacyInsert(op, parent, entry, storage.AttrDelta{LinkCount: 1, Size: size})
	} else {
		err = s.store.ApplyRelaxed(op, parent.ID, []storage.Mutation{{
			Kind: storage.MutPut, Key: types.Key{Pid: parent.ID, Name: name},
			Entry: entry, IfAbsent: true,
		}})
		if err == nil {
			pk := parentRowKey(parent)
			err = s.store.ApplyRelaxed(op, pk.Pid, []storage.Mutation{{
				Kind: storage.MutDeltaAttr, Key: pk,
				Delta: storage.AttrDelta{LinkCount: 1, Size: size}, MustExist: true,
			}})
		}
	}
	t.Phase(types.PhaseExecute)
	return t.Done(op, retries, entry), err
}

// Delete implements api.Service.
func (s *Service) Delete(op *rpc.Op, objPath string) (types.Result, error) {
	dir, name := pathutil.Dir(objPath), pathutil.Base(objPath)
	t := api.NewTimer()
	parent, perm, err := s.store.ResolvePath(op, dir)
	t.Phase(types.PhaseLookup)
	if err != nil {
		return t.Done(op, 0, types.Entry{}), err
	}
	if !perm.Allows(types.PermWrite | types.PermLookup) {
		return t.Done(op, 0, types.Entry{}), fmt.Errorf("delete %s: %w", objPath, types.ErrPermission)
	}
	var retries int
	if s.cfg.DistributedTxn {
		retries, err = s.legacyDelete(op, parent, name, storage.AttrDelta{LinkCount: -1}, types.KindObject)
	} else {
		err = s.store.ApplyRelaxed(op, parent.ID, []storage.Mutation{{
			Kind: storage.MutDelete, Key: types.Key{Pid: parent.ID, Name: name},
			MustExist: true, WantKind: types.KindObject,
		}})
		if err == nil {
			pk := parentRowKey(parent)
			err = s.store.ApplyRelaxed(op, pk.Pid, []storage.Mutation{{
				Kind: storage.MutDeltaAttr, Key: pk,
				Delta: storage.AttrDelta{LinkCount: -1}, MustExist: true,
			}})
		}
	}
	t.Phase(types.PhaseExecute)
	return t.Done(op, retries, types.Entry{}), err
}

// ObjStat implements api.Service.
func (s *Service) ObjStat(op *rpc.Op, objPath string) (types.Result, error) {
	dir, name := pathutil.Dir(objPath), pathutil.Base(objPath)
	t := api.NewTimer()
	parent, perm, err := s.store.ResolvePath(op, dir)
	t.Phase(types.PhaseLookup)
	if err != nil {
		return t.Done(op, 0, types.Entry{}), err
	}
	if !perm.Allows(types.PermLookup) {
		return t.Done(op, 0, types.Entry{}), fmt.Errorf("objstat %s: %w", objPath, types.ErrPermission)
	}
	e, err := s.store.ResolveStep(op, parent.ID, name)
	t.Phase(types.PhaseExecute)
	if err == nil && e.IsDir() {
		err = fmt.Errorf("objstat %s: %w", objPath, types.ErrIsDir)
	}
	return t.Done(op, 0, e), err
}

// DirStat implements api.Service: resolve the parent chain, then read
// the directory's own row (its attributes are inline).
func (s *Service) DirStat(op *rpc.Op, dirPath string) (types.Result, error) {
	parent, name := pathutil.Dir(dirPath), pathutil.Base(dirPath)
	t := api.NewTimer()
	if dirPath == "/" || name == "" {
		_, _, err := s.store.ResolvePath(op, "/")
		t.Phase(types.PhaseLookup)
		var root types.Entry
		if err == nil {
			root, _ = s.store.GetDirect(dbtable.RootKey())
		}
		return t.Done(op, 0, root), err
	}
	pe, perm, err := s.store.ResolvePath(op, parent)
	t.Phase(types.PhaseLookup)
	if err != nil {
		return t.Done(op, 0, types.Entry{}), err
	}
	if !perm.Allows(types.PermLookup) {
		return t.Done(op, 0, types.Entry{}), fmt.Errorf("dirstat %s: %w", dirPath, types.ErrPermission)
	}
	e, err := s.store.ResolveStep(op, pe.ID, name)
	t.Phase(types.PhaseExecute)
	if err == nil && !e.IsDir() {
		err = fmt.Errorf("dirstat %s: %w", dirPath, types.ErrNotDir)
	}
	return t.Done(op, 0, e), err
}

// ReadDir implements api.Service.
func (s *Service) ReadDir(op *rpc.Op, dirPath string) (types.Result, []types.Entry, error) {
	t := api.NewTimer()
	e, perm, err := s.store.ResolvePath(op, dirPath)
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

// Mkdir implements api.Service: insert the directory row and update the
// parent's row as two relaxed writes (the Figure 2 flow without its 2PC).
func (s *Service) Mkdir(op *rpc.Op, dirPath string) (types.Result, error) {
	parent, name := pathutil.Dir(dirPath), pathutil.Base(dirPath)
	t := api.NewTimer()
	pe, perm, err := s.store.ResolvePath(op, parent)
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
	var retries int
	if s.cfg.DistributedTxn {
		retries, err = s.legacyInsert(op, pe, entry, storage.AttrDelta{LinkCount: 1})
	} else {
		err = s.store.ApplyRelaxed(op, pe.ID, []storage.Mutation{{
			Kind: storage.MutPut, Key: types.Key{Pid: pe.ID, Name: name},
			Entry: entry, IfAbsent: true,
		}})
		if err == nil {
			pk := parentRowKey(pe)
			err = s.store.ApplyRelaxed(op, pk.Pid, []storage.Mutation{{
				Kind: storage.MutDeltaAttr, Key: pk,
				Delta: storage.AttrDelta{LinkCount: 1}, MustExist: true,
			}})
		}
	}
	t.Phase(types.PhaseExecute)
	return t.Done(op, retries, entry), err
}

// Rmdir implements api.Service.
func (s *Service) Rmdir(op *rpc.Op, dirPath string) (types.Result, error) {
	parent, name := pathutil.Dir(dirPath), pathutil.Base(dirPath)
	t := api.NewTimer()
	pe, perm, err := s.store.ResolvePath(op, parent)
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
	if de.Attr.LinkCount > 0 {
		t.Phase(types.PhaseExecute)
		return t.Done(op, 0, types.Entry{}), fmt.Errorf("rmdir %s: %w", dirPath, types.ErrNotEmpty)
	}
	var retries int
	if s.cfg.DistributedTxn {
		retries, err = s.legacyDelete(op, pe, name, storage.AttrDelta{LinkCount: -1}, types.KindDir)
	} else {
		err = s.store.ApplyRelaxed(op, pe.ID, []storage.Mutation{{
			Kind: storage.MutDelete, Key: types.Key{Pid: pe.ID, Name: name}, MustExist: true,
		}})
		if err == nil {
			pk := parentRowKey(pe)
			err = s.store.ApplyRelaxed(op, pk.Pid, []storage.Mutation{{
				Kind: storage.MutDeltaAttr, Key: pk,
				Delta: storage.AttrDelta{LinkCount: -1}, MustExist: true,
			}})
		}
	}
	t.Phase(types.PhaseExecute)
	return t.Done(op, retries, types.Entry{}), err
}

// DirRename implements api.Service: two path resolutions, then four
// relaxed writes (delete source row, insert destination row, update both
// parents). No loop detection — the relaxed re-implementation trades
// that safety away, as the paper notes.
func (s *Service) DirRename(op *rpc.Op, srcPath, dstPath string) (types.Result, error) {
	srcParent, srcName := pathutil.Dir(srcPath), pathutil.Base(srcPath)
	dstParent, dstName := pathutil.Dir(dstPath), pathutil.Base(dstPath)
	t := api.NewTimer()
	spe, sperm, err := s.store.ResolvePath(op, srcParent)
	if err != nil {
		t.Phase(types.PhaseLookup)
		return t.Done(op, 0, types.Entry{}), err
	}
	dpe, dperm, err := s.store.ResolvePath(op, dstParent)
	t.Phase(types.PhaseLookup)
	if err != nil {
		return t.Done(op, 0, types.Entry{}), err
	}
	if !sperm.Allows(types.PermWrite) || !dperm.Allows(types.PermWrite) {
		return t.Done(op, 0, types.Entry{}), fmt.Errorf("rename %s: %w", srcPath, types.ErrPermission)
	}
	se, err := s.store.ResolveStep(op, spe.ID, srcName)
	if err != nil {
		t.Phase(types.PhaseExecute)
		return t.Done(op, 0, types.Entry{}), err
	}
	if !se.IsDir() {
		t.Phase(types.PhaseExecute)
		return t.Done(op, 0, types.Entry{}), fmt.Errorf("rename %s: %w", srcPath, types.ErrNotDir)
	}
	moved := se
	moved.Pid = dpe.ID
	moved.Name = dstName
	var retries int
	if s.cfg.DistributedTxn {
		retries, err = s.legacyRename(op, spe, dpe, srcName, dstName, moved)
	} else {
		err = s.store.ApplyRelaxed(op, dpe.ID, []storage.Mutation{{
			Kind: storage.MutPut, Key: types.Key{Pid: dpe.ID, Name: dstName},
			Entry: moved, IfAbsent: true,
		}})
		if err == nil {
			err = s.store.ApplyRelaxed(op, spe.ID, []storage.Mutation{{
				Kind: storage.MutDelete, Key: types.Key{Pid: spe.ID, Name: srcName}, MustExist: true,
			}})
		}
		if err == nil && spe.ID != dpe.ID {
			sk := parentRowKey(spe)
			err = s.store.ApplyRelaxed(op, sk.Pid, []storage.Mutation{{
				Kind: storage.MutDeltaAttr, Key: sk,
				Delta: storage.AttrDelta{LinkCount: -1}, MustExist: true,
			}})
			if err == nil {
				dk := parentRowKey(dpe)
				err = s.store.ApplyRelaxed(op, dk.Pid, []storage.Mutation{{
					Kind: storage.MutDeltaAttr, Key: dk,
					Delta: storage.AttrDelta{LinkCount: 1}, MustExist: true,
				}})
			}
		}
	}
	t.Phase(types.PhaseExecute)
	return t.Done(op, retries, types.Entry{}), err
}

// Populate implements api.Service.
func (s *Service) Populate(dirs []api.PopDir, objects []api.PopObject) error {
	return dbtable.Populate(s.store, dirs, objects)
}
