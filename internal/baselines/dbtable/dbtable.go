// Package dbtable implements the DBtable-style metadata substrate that
// the paper's baseline systems are built on (§2.3, Figure 2): a single
// MetaTable sharded by parent directory ID, where a directory's
// attribute metadata lives in its parent's child row. Path resolution is
// a level-by-level traversal — one RPC per component — and directory
// mutations that touch a parent's row on another shard require
// distributed transactions (the legacy Baidu service and InfiniFS) or
// relaxed independent writes (the Tectonic re-implementation).
//
// The package also models the per-row serialisation that the paper
// attributes to baseline systems under contention: relaxed in-place
// updates of a hot row serialise on a row latch (Tectonic, LocoFS), and
// single-shard atomic updates serialise more cheaply (InfiniFS's CFS
// strategy). Both are expressed as per-row pacer nodes.
package dbtable

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"mantle/internal/netsim"
	"mantle/internal/pathutil"
	"mantle/internal/rpc"
	"mantle/internal/storage"
	"mantle/internal/txn"
	"mantle/internal/types"
)

// Config parameterises a Store.
type Config struct {
	// Shards is the number of MetaTable shards.
	Shards int
	// Workers is the CPU worker count per shard node.
	Workers int
	// OpCost is the CPU service time per shard access.
	OpCost time.Duration
	// LatchCost is the serialised cost of a relaxed in-place update to a
	// hot row (Tectonic/LocoFS-style latch).
	LatchCost time.Duration
	// AtomicCost is the serialised cost of a single-shard atomic
	// increment (InfiniFS/CFS-style); cheaper than a latch-held update.
	AtomicCost time.Duration
	// RetryBase, RetryMax shape transactional retry backoff.
	RetryBase, RetryMax time.Duration
	// Name prefixes shard node names.
	Name string
}

func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = 4
	}
	if c.LatchCost <= 0 {
		c.LatchCost = 150 * time.Microsecond
	}
	if c.AtomicCost <= 0 {
		c.AtomicCost = 30 * time.Microsecond
	}
	if c.RetryBase <= 0 {
		c.RetryBase = 20 * time.Microsecond
	}
	if c.RetryMax <= 0 {
		c.RetryMax = 2 * time.Millisecond
	}
	if c.Name == "" {
		c.Name = "dbtable"
	}
	return c
}

// rootKey is the synthetic row holding the root directory's metadata
// (the root has no parent row otherwise).
var rootKey = types.Key{Pid: 0, Name: "/"}

// Store is a sharded DBtable MetaTable.
type Store struct {
	cfg    Config
	parts  []*txn.Participant
	txnSeq atomic.Uint64
	types.IDAlloc

	// Per-row pacers modelling latch/atomic serialisation on hot rows.
	latchMu sync.Mutex
	latches map[types.Key]*netsim.Node

	retries atomic.Int64
}

// New creates a Store with an initialised root directory row.
func New(cfg Config) *Store {
	cfg = cfg.withDefaults()
	s := &Store{
		cfg:     cfg,
		latches: make(map[types.Key]*netsim.Node),
	}
	for i := 0; i < cfg.Shards; i++ {
		s.parts = append(s.parts, &txn.Participant{
			Shard: storage.NewShard(fmt.Sprintf("%s-%d", cfg.Name, i)),
			Node:  netsim.NewNode(fmt.Sprintf("%s-%d", cfg.Name, i), cfg.Workers),
			Cost:  cfg.OpCost,
		})
	}
	_ = s.ShardFor(0).Shard.Apply([]storage.Mutation{{
		Kind: storage.MutPut, Key: rootKey,
		Entry: types.Entry{
			Pid: 0, Name: "/", ID: types.RootID, Kind: types.KindDir,
			Perm: types.PermAll, Attr: types.Attr{MTime: time.Now()},
		},
	}})
	return s
}

// NewTxnID returns a unique transaction ID.
func (s *Store) NewTxnID() string {
	return fmt.Sprintf("%s-%d", s.cfg.Name, s.txnSeq.Add(1))
}

// Retries returns cumulative transactional retries.
func (s *Store) Retries() int64 { return s.retries.Load() }

// ShardFor maps a pid to its participant.
func (s *Store) ShardFor(pid types.InodeID) *txn.Participant {
	return s.parts[s.shardIdx(pid)]
}

func (s *Store) shardIdx(pid types.InodeID) int { return storage.HashShard(pid, len(s.parts)) }

// GetDirect reads a row without RPC charging (modelling helpers and
// population checks).
func (s *Store) GetDirect(k types.Key) (types.Entry, bool) {
	row, ok := s.ShardFor(k.Pid).Shard.Get(k)
	if !ok {
		return types.Entry{}, false
	}
	return row.Entry, true
}

// ResolveStep performs one charged RPC resolving (pid, name).
func (s *Store) ResolveStep(op *rpc.Op, pid types.InodeID, name string) (types.Entry, error) {
	p := s.ShardFor(pid)
	var out types.Entry
	err := op.Call(p.Node, p.Cost, func() error {
		row, ok := p.Shard.Get(types.Key{Pid: pid, Name: name})
		if !ok {
			return fmt.Errorf("resolve %d/%s: %w", pid, name, types.ErrNotFound)
		}
		out = row.Entry
		return nil
	})
	return out, err
}

// ResolvePath resolves an absolute directory path level by level — the
// multi-RPC traversal of Figure 2 — checking lookup permission at each
// traversed level. It returns the final entry and the aggregated path
// permission.
func (s *Store) ResolvePath(op *rpc.Op, path string) (types.Entry, types.Perm, error) {
	comps := pathutil.Split(path)
	cur := types.Entry{Pid: 0, Name: "/", ID: types.RootID, Kind: types.KindDir, Perm: types.PermAll}
	perm := types.PermAll
	for i, name := range comps {
		e, err := s.ResolveStep(op, cur.ID, name)
		if err != nil {
			return types.Entry{}, 0, err
		}
		if !e.IsDir() {
			return types.Entry{}, 0, fmt.Errorf("resolve %s at %q: %w", path, name, types.ErrNotDir)
		}
		perm = perm.Intersect(e.Perm)
		if i < len(comps)-1 && !perm.Allows(types.PermLookup) {
			return types.Entry{}, 0, fmt.Errorf("resolve %s at %q: %w", path, name, types.ErrPermission)
		}
		cur = e
	}
	return cur, perm, nil
}

// ResolvePathParallel resolves all levels concurrently — InfiniFS's
// speculative parallel resolution. The per-level queries are issued in
// one parallel round using predicted ancestor identities (the paper's
// hash-based prediction is modelled as always-correct: each level's
// query is addressed with the true parent ID, reproducing the RPC fan-out
// and queueing behaviour without the prediction bookkeeping; see
// DESIGN.md). Each level still costs one RPC, so the lookup's RPC count
// equals the sequential traversal's; only the latency overlaps.
func (s *Store) ResolvePathParallel(op *rpc.Op, path string) (types.Entry, types.Perm, error) {
	comps := pathutil.Split(path)
	if len(comps) == 0 {
		return types.Entry{Pid: 0, Name: "/", ID: types.RootID, Kind: types.KindDir, Perm: types.PermAll}, types.PermAll, nil
	}
	// Predict the ancestor chain (uncharged direct reads stand in for
	// hash-based ID prediction).
	pids := make([]types.InodeID, len(comps))
	pids[0] = types.RootID
	cur := types.RootID
	for i := 0; i < len(comps)-1; i++ {
		e, ok := s.GetDirect(types.Key{Pid: cur, Name: comps[i]})
		if !ok {
			// Prediction impossible (missing ancestor): fall back to the
			// sequential walk, which will produce the right error.
			return s.ResolvePath(op, path)
		}
		cur = e.ID
		pids[i+1] = cur
	}
	entries := make([]types.Entry, len(comps))
	calls := make([]func(*rpc.Op) error, len(comps))
	for i := range comps {
		i := i
		calls[i] = func(o *rpc.Op) error {
			e, err := s.ResolveStep(o, pids[i], comps[i])
			entries[i] = e
			return err
		}
	}
	if err := op.Parallel(calls); err != nil {
		return types.Entry{}, 0, err
	}
	// Validate the speculative chain and aggregate permissions.
	perm := types.PermAll
	for i, e := range entries {
		perm = perm.Intersect(e.Perm)
		if i < len(comps)-1 {
			if !e.IsDir() {
				return types.Entry{}, 0, fmt.Errorf("resolve %s: %w", path, types.ErrNotDir)
			}
			if !perm.Allows(types.PermLookup) {
				return types.Entry{}, 0, fmt.Errorf("resolve %s: %w", path, types.ErrPermission)
			}
			if e.ID != pids[i+1] {
				// Misprediction (concurrent rename): sequential fallback.
				return s.ResolvePath(op, path)
			}
		}
	}
	return entries[len(entries)-1], perm, nil
}

// RowPacer returns the per-row serialisation pacer for key, creating it
// on first use.
func (s *Store) RowPacer(k types.Key) *netsim.Node {
	s.latchMu.Lock()
	defer s.latchMu.Unlock()
	n, ok := s.latches[k]
	if !ok {
		n = netsim.NewNode(fmt.Sprintf("latch-%s", k), 1)
		s.latches[k] = n
	}
	return n
}

// ApplyRelaxed performs mutations on one shard without transactional
// locking (Tectonic's relaxed consistency): one RPC; in-place attribute
// updates additionally serialise on the row latch for latchCost.
func (s *Store) ApplyRelaxed(op *rpc.Op, pid types.InodeID, muts []storage.Mutation) error {
	p := s.ShardFor(pid)
	return op.Call(p.Node, p.Cost, func() error {
		for _, m := range muts {
			if m.Kind == storage.MutDeltaAttr {
				s.RowPacer(m.Key).Charge(s.cfg.LatchCost)
			}
		}
		return p.Shard.Apply(muts)
	})
}

// maxRetries bounds transactional and atomic-apply retries.
const maxRetries = 10000

// ApplyAtomic performs a single-shard transaction in one RPC with
// atomic-increment costing (the CFS strategy InfiniFS adopts): in-place
// attribute updates serialise at the cheaper AtomicCost.
func (s *Store) ApplyAtomic(op *rpc.Op, pid types.InodeID, muts []storage.Mutation) error {
	p, txnID := s.ShardFor(pid), s.NewTxnID()
	return op.Call(p.Node, p.Cost, func() error {
		for _, m := range muts {
			if m.Kind == storage.MutDeltaAttr {
				s.RowPacer(m.Key).Charge(s.cfg.AtomicCost)
			}
		}
		// Prepare is no-wait; a single-shard atomic update waits for the
		// row instead, as it would on the shard's latch: the holder is
		// another atomic apply between its prepare and commit, or a 2PC
		// piece about to resolve.
		var err error
		for attempt := 0; attempt <= maxRetries; attempt++ {
			if err = p.Shard.Prepare(txnID, nil, muts); !errors.Is(err, types.ErrConflict) {
				break
			}
			txn.Backoff(attempt, s.cfg.RetryBase, s.cfg.RetryMax)
		}
		if err != nil {
			return err
		}
		return p.Shard.Commit(txnID)
	})
}

// RunTxn executes a distributed transaction with retry-on-conflict, as
// the legacy DBtable service and InfiniFS renames do. build lists one
// piece per row group; pieces sharing a shard are merged here.
func (s *Store) RunTxn(op *rpc.Op, build func(attempt int) ([]txn.Piece, error)) (int, error) {
	wrapped := func(attempt int) ([]txn.Piece, error) {
		if attempt > 0 {
			s.retries.Add(1)
		}
		pieces, err := build(attempt)
		return txn.Merge(pieces), err
	}
	return txn.RunWithRetry(txn.Direct{}, op, s.NewTxnID(), maxRetries, s.cfg.RetryBase, s.cfg.RetryMax, nil, wrapped)
}

// BulkInsert loads rows through storage.BulkInsert, returning the link
// counts for the caller to land.
func (s *Store) BulkInsert(entries []types.Entry) (map[types.InodeID]int64, error) {
	shards := make([]*storage.Shard, len(s.parts))
	for i, p := range s.parts {
		shards[i] = p.Shard
	}
	return storage.BulkInsert(shards, s.shardIdx, "", entries)
}

// ScanChildren lists a directory's children in one charged RPC.
func (s *Store) ScanChildren(op *rpc.Op, dir types.InodeID) ([]types.Entry, error) {
	p := s.ShardFor(dir)
	var out []types.Entry
	err := op.Call(p.Node, p.Cost, func() error {
		p.Shard.ScanChildren(dir, func(r storage.Row) bool {
			out = append(out, r.Entry)
			return true
		})
		return nil
	})
	return out, err
}
