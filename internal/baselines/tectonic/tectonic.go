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
//
// The op frame is dbtable.Service; this package chooses its resolver
// and link strategy and adds Rmdir and DirRename.
package tectonic

import (
	"fmt"

	"mantle/internal/api"
	"mantle/internal/baselines/dbtable"
	"mantle/internal/netsim"
	"mantle/internal/rpc"
	"mantle/internal/storage"
	"mantle/internal/types"
)

// Config parameterises the service.
type Config struct {
	// Store configures the underlying DBtable shards.
	Store dbtable.Config
	// Fabric supplies RPC latency.
	Fabric *netsim.Fabric
	// Legacy links with full two-phase-commit transactions and in-place
	// parent-attribute updates instead of relaxed independent writes, and
	// reports the service as "dbtable": the *legacy* DBtable service of
	// §2.3/§3 (the pre-Mantle Baidu deployment whose Figure 4 contention
	// collapse motivates the paper). The paper's Tectonic
	// re-implementation leaves it off.
	Legacy bool
}

// Service is the Tectonic-style baseline. Implements api.Service.
type Service struct {
	*dbtable.Service
	legacy bool
}

var _ api.Service = (*Service)(nil)

// New builds the service.
func New(cfg Config) *Service {
	name := "tectonic"
	if cfg.Legacy {
		name = "dbtable"
	}
	s := &Service{Service: dbtable.NewService(name, cfg.Fabric, cfg.Store), legacy: cfg.Legacy}
	s.Resolve = s.ResolveSequential
	s.Link = s.Store.LinkRelaxed
	if cfg.Legacy {
		s.Link = s.Store.LinkTxn
	}
	return s
}

// Rmdir implements api.Service: the emptiness check reads the link count
// inline in the directory's own row.
func (s *Service) Rmdir(op *rpc.Op, dirPath string) (types.Result, error) {
	t := api.NewTimer()
	parent, name, err := s.Enter(t, op, "rmdir", dirPath, types.PermWrite|types.PermLookup)
	if err != nil {
		return t.Done(op, 0, types.Entry{}), err
	}
	de, err := s.Store.ResolveStep(op, parent.ID, name)
	if err == nil && !de.IsDir() {
		err = fmt.Errorf("rmdir %s: %w", dirPath, types.ErrNotDir)
	}
	if err == nil && de.Attr.LinkCount > 0 {
		err = fmt.Errorf("rmdir %s: %w", dirPath, types.ErrNotEmpty)
	}
	var retries int
	if err == nil {
		retries, err = s.Link(op, parent, storage.Mutation{
			Kind: storage.MutDelete, Key: types.Key{Pid: parent.ID, Name: name},
			MustExist: true, WantKind: types.KindDir,
		}, storage.AttrDelta{LinkCount: -1})
	}
	t.Phase(types.PhaseExecute)
	return t.Done(op, retries, types.Entry{}), err
}

// DirRename implements api.Service: two path resolutions, then four
// relaxed writes (insert destination row, delete source row, update both
// parents) — or, for the legacy service, the same four in one
// distributed transaction. No loop detection — the relaxed
// re-implementation trades that safety away, as the paper notes.
func (s *Service) DirRename(op *rpc.Op, srcPath, dstPath string) (types.Result, error) {
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
	var retries int
	if err == nil {
		moved.Pid, moved.Name = dpe.ID, dstName
		retries, err = s.move(op, spe, dpe, srcName, moved)
	}
	t.Phase(types.PhaseExecute)
	return t.Done(op, retries, types.Entry{}), err
}

// move applies a rename's row writes.
func (s *Service) move(op *rpc.Op, spe, dpe types.Entry, srcName string, moved types.Entry) (int, error) {
	if s.legacy {
		return s.Store.MoveTxn(op, spe, dpe, srcName, moved)
	}
	writes := []storage.Mutation{
		{Kind: storage.MutPut, Key: types.Key{Pid: moved.Pid, Name: moved.Name}, Entry: moved, IfAbsent: true},
		{Kind: storage.MutDelete, Key: types.Key{Pid: spe.ID, Name: srcName}, MustExist: true},
	}
	if spe.ID != dpe.ID {
		writes = append(writes,
			dbtable.AttrUpdate(spe, storage.AttrDelta{LinkCount: -1}),
			dbtable.AttrUpdate(dpe, storage.AttrDelta{LinkCount: 1}))
	}
	for _, w := range writes {
		if err := s.Store.ApplyRelaxed(op, w.Key.Pid, []storage.Mutation{w}); err != nil {
			return 0, err
		}
	}
	return 0, nil
}
