package dbtable

import (
	"fmt"
	"time"

	"mantle/internal/api"
	"mantle/internal/netsim"
	"mantle/internal/pathutil"
	"mantle/internal/rpc"
	"mantle/internal/storage"
	"mantle/internal/trace"
	"mantle/internal/txn"
	"mantle/internal/types"
)

// Service is the api.Service frame the DBtable-based systems share:
// every op splits its path, resolves the parent directory (the lookup
// phase), checks the aggregated path permission, executes against the
// Store (the execute phase) and reports the RPCs and retries consumed.
// What distinguishes the systems is two decisions, chosen at
// construction: how a directory path is resolved, and how a child-row
// write is linked to its parent's attribute update (§2.3, Fig 2). A
// system embeds Service and adds the ops that are its own (Rmdir and
// DirRename, whose emptiness and loop checks differ per system).
type Service struct {
	Store *Store

	// Resolve resolves a directory path to its entry and the permission
	// aggregated along the path: ResolveSequential, or a system's own
	// (InfiniFS's parallel resolution behind its AM-Cache).
	Resolve func(op *rpc.Op, dirPath string) (types.Entry, types.Perm, error)
	// Link applies child — a put or delete of a row under parent — and
	// adds delta to parent's attribute row, returning the transaction
	// retries consumed: Store.LinkRelaxed, LinkAtomic or LinkTxn.
	Link func(op *rpc.Op, parent types.Entry, child storage.Mutation, delta storage.AttrDelta) (int, error)

	name   string
	caller *rpc.Caller
}

// NewService builds the frame over a fresh Store on fabric (nil = a
// local fabric). name is what Name reports and, unless cfg names them,
// the prefix of the shard nodes. The caller sets Resolve and Link.
func NewService(name string, fabric *netsim.Fabric, cfg Config) *Service {
	if fabric == nil {
		fabric = netsim.NewLocalFabric()
	}
	if cfg.Name == "" {
		cfg.Name = name
	}
	return &Service{Store: New(cfg), name: name, caller: rpc.NewCaller(fabric)}
}

// Name implements api.Service.
func (s *Service) Name() string { return s.name }

// Caller implements api.Service.
func (s *Service) Caller() *rpc.Caller { return s.caller }

// Stop implements api.Service.
func (s *Service) Stop() {}

// Populate implements api.Service.
func (s *Service) Populate(dirs []api.PopDir, objects []api.PopObject) error {
	return Populate(s.Store, dirs, objects)
}

// ResolveSequential is the Resolve of the level-by-level systems: the
// Store's multi-RPC traversal under a path-resolve span.
func (s *Service) ResolveSequential(op *rpc.Op, dirPath string) (types.Entry, types.Perm, error) {
	ctx, sp := trace.Start(op.Context(), trace.PathResolve)
	sp.SetAttr("mode", "sequential")
	defer sp.End()
	return s.Store.ResolvePath(op.WithContext(ctx), dirPath)
}

// Enter opens an op on the last component of path: it resolves the
// parent directory, marks the lookup phase on t and requires need of the
// path permission.
func (s *Service) Enter(t *api.Timer, op *rpc.Op, verb, path string, need types.Perm) (parent types.Entry, name string, err error) {
	dir, name := pathutil.DirBase(path)
	parent, perm, err := s.Resolve(op, dir)
	t.Phase(types.PhaseLookup)
	if err == nil && !perm.Allows(need) {
		err = fmt.Errorf("%s %s: %w", verb, path, types.ErrPermission)
	}
	return parent, name, err
}

// Lookup implements api.Service.
func (s *Service) Lookup(op *rpc.Op, dirPath string) (types.Result, error) {
	t := api.NewTimer()
	e, perm, err := s.Resolve(op, dirPath)
	t.Phase(types.PhaseLookup)
	if err != nil {
		return t.Done(op, 0, types.Entry{}), err
	}
	e.Perm = perm
	return t.Done(op, 0, e), nil
}

// insert is Create and Mkdir: a new row under the parent, linked.
func (s *Service) insert(op *rpc.Op, verb, path string, kind types.EntryKind, size int64) (types.Result, error) {
	t := api.NewTimer()
	parent, name, err := s.Enter(t, op, verb, path, types.PermWrite|types.PermLookup)
	if err != nil {
		return t.Done(op, 0, types.Entry{}), err
	}
	entry := types.Entry{
		Pid: parent.ID, Name: name, ID: s.Store.NewID(), Kind: kind,
		Perm: types.PermAll, Attr: types.Attr{Size: size, MTime: time.Now()},
	}
	retries, err := s.Link(op, parent, storage.Mutation{
		Kind: storage.MutPut, Key: types.Key{Pid: parent.ID, Name: name}, Entry: entry, IfAbsent: true,
	}, storage.AttrDelta{LinkCount: 1, Size: size})
	t.Phase(types.PhaseExecute)
	return t.Done(op, retries, entry), err
}

// Create implements api.Service.
func (s *Service) Create(op *rpc.Op, objPath string, size int64) (types.Result, error) {
	return s.insert(op, "create", objPath, types.KindObject, size)
}

// Mkdir implements api.Service (the Figure 2 flow).
func (s *Service) Mkdir(op *rpc.Op, dirPath string) (types.Result, error) {
	return s.insert(op, "mkdir", dirPath, types.KindDir, 0)
}

// Delete implements api.Service.
func (s *Service) Delete(op *rpc.Op, objPath string) (types.Result, error) {
	t := api.NewTimer()
	parent, name, err := s.Enter(t, op, "delete", objPath, types.PermWrite|types.PermLookup)
	if err != nil {
		return t.Done(op, 0, types.Entry{}), err
	}
	retries, err := s.Link(op, parent, storage.Mutation{
		Kind: storage.MutDelete, Key: types.Key{Pid: parent.ID, Name: name},
		MustExist: true, WantKind: types.KindObject,
	}, storage.AttrDelta{LinkCount: -1})
	t.Phase(types.PhaseExecute)
	return t.Done(op, retries, types.Entry{}), err
}

// stat is ObjStat and DirStat: resolve the parent chain, then read the
// entry's own row (a directory's attributes are inline in it).
func (s *Service) stat(op *rpc.Op, verb, path string, wantDir bool) (types.Result, error) {
	t := api.NewTimer()
	parent, name, err := s.Enter(t, op, verb, path, types.PermLookup)
	if err != nil {
		return t.Done(op, 0, types.Entry{}), err
	}
	e, err := s.Store.ResolveStep(op, parent.ID, name)
	t.Phase(types.PhaseExecute)
	if err == nil && e.IsDir() != wantDir {
		kind := types.ErrIsDir
		if wantDir {
			kind = types.ErrNotDir
		}
		err = fmt.Errorf("%s %s: %w", verb, path, kind)
	}
	return t.Done(op, 0, e), err
}

// ObjStat implements api.Service.
func (s *Service) ObjStat(op *rpc.Op, objPath string) (types.Result, error) {
	return s.stat(op, "objstat", objPath, false)
}

// DirStat implements api.Service.
func (s *Service) DirStat(op *rpc.Op, dirPath string) (types.Result, error) {
	if pathutil.Base(dirPath) == "" {
		// The root has no parent row; its attributes live in the
		// synthetic root row.
		t := api.NewTimer()
		root, _ := s.Store.GetDirect(rootKey)
		t.Phase(types.PhaseLookup)
		return t.Done(op, 0, root), nil
	}
	return s.stat(op, "dirstat", dirPath, true)
}

// ReadDir implements api.Service.
func (s *Service) ReadDir(op *rpc.Op, dirPath string) (types.Result, []types.Entry, error) {
	t := api.NewTimer()
	e, perm, err := s.Resolve(op, dirPath)
	t.Phase(types.PhaseLookup)
	if err == nil && !perm.Allows(types.PermLookup|types.PermRead) {
		err = fmt.Errorf("readdir %s: %w", dirPath, types.ErrPermission)
	}
	if err != nil {
		return t.Done(op, 0, types.Entry{}), nil, err
	}
	entries, err := s.Store.ScanChildren(op, e.ID)
	t.Phase(types.PhaseExecute)
	return t.Done(op, 0, types.Entry{}), entries, err
}

// parentRowKey is the MetaTable key of directory entry e itself — the
// row, in its own parent's range, where its attributes live.
func parentRowKey(e types.Entry) types.Key {
	if e.ID == types.RootID {
		return rootKey
	}
	return types.Key{Pid: e.Pid, Name: e.Name}
}

// AttrUpdate is the in-place update of a directory's attribute row.
func AttrUpdate(dir types.Entry, delta storage.AttrDelta) storage.Mutation {
	return storage.Mutation{Kind: storage.MutDeltaAttr, Key: parentRowKey(dir), Delta: delta, MustExist: true}
}

// linkWrites links with two independent single-shard writes, child row
// first: no transaction spans them, so nothing aborts under contention —
// the parent update only serialises inside apply.
func linkWrites(apply func(*rpc.Op, types.InodeID, []storage.Mutation) error,
	op *rpc.Op, parent types.Entry, child storage.Mutation, delta storage.AttrDelta) (int, error) {
	err := apply(op, child.Key.Pid, []storage.Mutation{child})
	if err == nil {
		attr := AttrUpdate(parent, delta)
		err = apply(op, attr.Key.Pid, []storage.Mutation{attr})
	}
	return 0, err
}

// LinkRelaxed is Tectonic's link: two relaxed writes, the parent update
// serialised by the row latch.
func (s *Store) LinkRelaxed(op *rpc.Op, parent types.Entry, child storage.Mutation, delta storage.AttrDelta) (int, error) {
	return linkWrites(s.ApplyRelaxed, op, parent, child, delta)
}

// LinkAtomic is InfiniFS's link (the CFS strategy): two single-shard
// atomic updates, the parent update serialised at the cheaper
// atomic-increment cost.
func (s *Store) LinkAtomic(op *rpc.Op, parent types.Entry, child storage.Mutation, delta storage.AttrDelta) (int, error) {
	return linkWrites(s.ApplyAtomic, op, parent, child, delta)
}

// LinkTxn is the legacy DBtable link: one distributed transaction over
// the child's shard and the parent-attribute row's shard, updating the
// attributes in place under exclusive row locks. Under shared-directory
// contention these transactions abort and retry — the Figure 4b
// collapse of the pre-Mantle Baidu service.
func (s *Store) LinkTxn(op *rpc.Op, parent types.Entry, child storage.Mutation, delta storage.AttrDelta) (int, error) {
	return s.RunTxn(op, func(int) ([]txn.Piece, error) {
		return []txn.Piece{s.piece(child), s.piece(AttrUpdate(parent, delta))}, nil
	})
}

// piece is the transaction piece carrying m to its row's shard.
func (s *Store) piece(m storage.Mutation) txn.Piece {
	return txn.Piece{P: s.ShardFor(m.Key.Pid), Muts: []storage.Mutation{m}}
}

// MoveTxn renames directory row (srcParent, srcName) to moved — already
// re-keyed under dstParent — in a single distributed transaction that
// also moves one link between the two parents' attribute rows.
func (s *Store) MoveTxn(op *rpc.Op, srcParent, dstParent types.Entry, srcName string, moved types.Entry) (int, error) {
	return s.RunTxn(op, func(int) ([]txn.Piece, error) {
		pieces := []txn.Piece{
			s.piece(storage.Mutation{
				Kind: storage.MutDelete, Key: types.Key{Pid: srcParent.ID, Name: srcName}, MustExist: true,
			}),
			s.piece(storage.Mutation{
				Kind: storage.MutPut, Key: types.Key{Pid: moved.Pid, Name: moved.Name}, Entry: moved, IfAbsent: true,
			}),
		}
		if srcParent.ID != dstParent.ID {
			pieces = append(pieces,
				s.piece(AttrUpdate(srcParent, storage.AttrDelta{LinkCount: -1})),
				s.piece(AttrUpdate(dstParent, storage.AttrDelta{LinkCount: 1})))
		}
		return pieces, nil
	})
}
