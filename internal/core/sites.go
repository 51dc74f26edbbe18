package core

import (
	"fmt"
	"sync"
	"time"

	"mantle/internal/clock"
	"mantle/internal/indexnode"
	"mantle/internal/metrics"
	"mantle/internal/netsim"
	"mantle/internal/repl"
	"mantle/internal/storage"
	"mantle/internal/types"
)

// SitesConfig parameterises a two-site deployment: a primary serving
// all traffic and an asynchronously replicated secondary standing by
// for disaster recovery.
type SitesConfig struct {
	// Site is the per-site Mantle configuration. Each site gets its own
	// fabric (shard/replica node names repeat across sites), so Fabric
	// and the nested TafDB/Index fabrics are overridden.
	Site Config
	// RTT is the intra-site round trip each site's own fabric charges
	// per RPC.
	RTT time.Duration
	// WANRTT is the inter-site round trip charged per shipped batch.
	WANRTT time.Duration
	// Link is the replication link's configuration; callers set its
	// tuning (Interval, BatchMax), NewSites fills the endpoints (Logs,
	// Offer, Fabric, Node, SrcName).
	Link repl.LinkConfig
}

// Sites is a primary/secondary pair joined by an asynchronous
// replication link. Each primary TafDB shard logs its every committed
// mutation batch to its WAL, stamped from the primary's site clock; a
// repl.Link ships each shard's durable records across the WAN fabric to
// the secondary's repl.Applier, which applies them in commit order with
// cross-shard transactions grouped atomically and conflicts resolved
// last-writer-wins.
type Sites struct {
	// Primary serves all client traffic until failover.
	Primary *Mantle
	// Secondary is the passive replica; promote it with Failover.
	Secondary *Mantle
	// WAN is the inter-site fabric — install fault injectors here to
	// partition or blackhole the replication stream.
	WAN *netsim.Fabric

	app          *repl.Applier
	replEndpoint *netsim.Node
	linkCfg      repl.LinkConfig
	shards       int

	mu       sync.Mutex
	link     *repl.Link
	promoted bool
}

// Endpoint names on the WAN fabric; chaos tests target these.
const (
	PrimaryReplName   = "site-a-repl"
	SecondaryReplName = "site-b-repl"
)

// NewSites builds both sites and the replication plane. The link is not
// started: call Bootstrap (for a secondary joining an already-populated
// primary) and/or StartReplication.
func NewSites(cfg SitesConfig) (*Sites, error) {
	if cfg.Site.TafDB.Shards <= 0 {
		// Both sites must agree on the shard count (shipped records
		// carry shard indexes), so pin the default here rather than
		// letting each DB resolve it independently.
		cfg.Site.TafDB.Shards = 4
	}
	s := &Sites{shards: cfg.Site.TafDB.Shards}

	priCfg := cfg.Site
	priCfg.Fabric = netsim.NewFabric(netsim.Config{RTT: cfg.RTT})
	priCfg.TafDB.Clock = clock.New(1)
	primary, err := New(priCfg)
	if err != nil {
		return nil, err
	}
	s.Primary = primary

	secCfg := cfg.Site
	secCfg.Fabric = netsim.NewFabric(netsim.Config{RTT: cfg.RTT})
	secCfg.TafDB.Clock = nil
	secondary, err := New(secCfg)
	if err != nil {
		primary.Stop()
		return nil, err
	}
	s.Secondary = secondary

	s.app = repl.NewApplier(2, s.shards, func(shard int, muts []storage.Mutation) error {
		return secondary.DB().ApplyToShard(shard, muts)
	})
	s.WAN = netsim.NewFabric(netsim.Config{RTT: cfg.WANRTT})
	s.replEndpoint = netsim.NewNode(SecondaryReplName, 0)
	s.linkCfg = cfg.Link
	s.linkCfg.Logs = make([]*storage.WAL, s.shards)
	for i := range s.linkCfg.Logs {
		s.linkCfg.Logs[i] = primary.DB().Shard(i).WAL()
	}
	s.linkCfg.Offer = s.app.Offer
	s.linkCfg.Fabric = s.WAN
	s.linkCfg.Node = s.replEndpoint
	s.linkCfg.SrcName = PrimaryReplName
	s.registerMetrics()
	return s, nil
}

// Applier exposes the secondary-side apply state (tests, fsck).
func (s *Sites) Applier() *repl.Applier { return s.app }

// Link returns the running replication link (nil when stopped).
func (s *Sites) Link() *repl.Link {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.link
}

// StartReplication starts (or restarts) the link from the applier's
// current per-shard watermarks. No-op while a link is already running
// or after promotion.
func (s *Sites) StartReplication() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.link != nil || s.promoted {
		return
	}
	cfg := s.linkCfg
	cfg.Cursor = s.app.AppliedSeqs()
	s.link = repl.StartLink(cfg)
}

// StopReplication stops the link (it can be restarted; the applier's
// watermarks are preserved).
func (s *Sites) StopReplication() {
	s.mu.Lock()
	link := s.link
	s.link = nil
	s.mu.Unlock()
	if link != nil {
		link.Stop()
	}
}

// Bootstrap loads the secondary from a consistent snapshot of every
// primary shard — the join path for a new secondary, or one whose
// cursor fell below a shard log's trimmed base. Each shard's cut covers a
// commit sequence; rows are bulk-applied to the secondary in chunks and
// the applier's cursor advances past the cut, so a subsequently started
// link replays only the suffix. The secondary's index is rebuilt from
// the loaded rows. Returns rows loaded.
func (s *Sites) Bootstrap() (int, error) {
	if s.Link() != nil {
		return 0, fmt.Errorf("sites: stop replication before bootstrap")
	}
	const chunk = 1024
	total := 0
	for si := 0; si < s.shards; si++ {
		rows, seq := s.Primary.DB().Shard(si).SnapshotRows()
		muts := make([]storage.Mutation, 0, chunk)
		flush := func() error {
			if len(muts) == 0 {
				return nil
			}
			err := s.Secondary.DB().ApplyToShard(si, muts)
			muts = muts[:0]
			return err
		}
		for _, r := range rows {
			muts = append(muts, storage.Mutation{
				Kind:  storage.MutPut,
				Key:   types.Key{Pid: r.Entry.Pid, Name: r.Entry.Name},
				Entry: r.Entry,
			})
			if len(muts) == chunk {
				if err := flush(); err != nil {
					return total, err
				}
			}
		}
		if err := flush(); err != nil {
			return total, err
		}
		s.app.SetCursor(si, seq)
		total += len(rows)
	}
	s.Secondary.RebuildIndex()
	return total, nil
}

// FailoverReport summarises a promotion.
type FailoverReport struct {
	// Discarded counts buffered-but-unappliable records dropped at the
	// cut (incomplete cross-shard transactions and records sequenced
	// behind them) — the replicated loss window beyond the watermark.
	Discarded int `json:"discarded"`
	// IndexEntries is the directory count in the rebuilt index.
	IndexEntries int `json:"index_entries"`
	// Watermarks is the applier state at the cut.
	Watermarks repl.Watermarks `json:"watermarks"`
}

// Failover promotes the secondary: the link stops, the applier is
// finalized (buffered records that never became applicable are
// discarded, freezing a transaction-atomic prefix of each shard's
// stream), and the secondary's index is rebuilt from its TafDB rows so
// lookups reflect the replicated namespace. The secondary then serves
// reads and writes as an ordinary Mantle. Idempotent.
func (s *Sites) Failover() FailoverReport {
	s.StopReplication()
	s.mu.Lock()
	already := s.promoted
	s.promoted = true
	s.mu.Unlock()
	discarded := s.app.Finalize()
	rep := FailoverReport{
		Discarded:  discarded,
		Watermarks: s.app.Watermarks(),
	}
	if !already {
		rep.IndexEntries = s.Secondary.RebuildIndex()
	}
	return rep
}

// Promoted reports whether Failover has run.
func (s *Sites) Promoted() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.promoted
}

// Stop tears down the link and both sites.
func (s *Sites) Stop() {
	s.StopReplication()
	s.Primary.Stop()
	s.Secondary.Stop()
}

// registerMetrics exports the replication plane on the registry of the
// site serving traffic: the primary until Failover, whose exposition also
// carries the standby's whole registry under a standby_ prefix, and the
// promoted secondary after it (the demoted primary is nobody's standby).
// A scrape reads the role once: the secondary rendered as the primary's
// standby never emits the family, even if a failover lands mid-scrape.
func (s *Sites) registerMetrics() {
	s.Primary.Metrics().Collect(func(e *metrics.Emitter) {
		if !s.Promoted() {
			s.collectRepl(e)
			e.Include("standby_", s.Secondary.Metrics())
		}
	})
	s.Secondary.Metrics().Collect(func(e *metrics.Emitter) {
		if !e.Included() && s.Promoted() {
			s.collectRepl(e)
		}
	})
}

// collectRepl emits the repl_* family from one ReplStatus snapshot: the
// link view (shipped counts, lag) and the applier view (applied
// watermarks, conflicts, discards).
func (s *Sites) collectRepl(e *metrics.Emitter) {
	st := s.ReplStatus("")
	e.Int("repl_shipped", st.Lag.Shipped)
	e.Int("repl_shipped_bytes", st.Lag.ShippedBytes)
	e.Int("repl_ship_failures", st.Lag.Failures)
	e.Int("repl_lag_entries", st.Lag.LagEntries)
	e.Int("repl_lag_bytes", st.Lag.LagBytes)
	e.Int("repl_applied", st.Watermarks.Applied)
	e.Int("repl_applied_muts", st.Watermarks.Muts)
	e.Int("repl_conflicts", st.Watermarks.Conflicts)
	e.Int("repl_pending_txns", int64(st.Watermarks.Pending))
	e.Int("repl_discarded", st.Watermarks.Discarded)
	e.Int("repl_applied_hlc_wall", st.Watermarks.AppliedHLC.Wall)
}

// LinkStats snapshots the link accounting, zero when stopped.
func (s *Sites) LinkStats() repl.LinkStats {
	if l := s.Link(); l != nil {
		return l.Stats()
	}
	return repl.LinkStats{}
}

// ReplStatus is the replication section of /status.
type ReplStatus struct {
	Role       string          `json:"role"` // primary | secondary | promoted
	Lag        repl.LinkStats  `json:"lag"`
	Watermarks repl.Watermarks `json:"watermarks"`
}

// ReplStatus snapshots the replication plane for /status.
func (s *Sites) ReplStatus(role string) ReplStatus {
	return ReplStatus{
		Role:       role,
		Lag:        s.LinkStats(),
		Watermarks: s.app.Watermarks(),
	}
}

// RebuildIndex reconstructs the IndexNode group's directory table from
// TafDB's directory access rows, reusing the raft snapshot machinery: a
// scratch replica bulk-loads the entries, its Snapshot bytes Restore
// onto every replica in the group (dropping caches and any divergent
// state). Used by admin rebuild-index and by failover promotion.
// Returns directory entries restored.
func (m *Mantle) RebuildIndex() int {
	var entries []types.AccessEntry
	var maxID types.InodeID
	m.db.ForEachRow(func(row storage.Row) {
		e := row.Entry
		maxID = max(maxID, e.ID, e.Pid)
		if e.Kind != types.KindDir || (len(e.Name) > 0 && e.Name[0] == 0) {
			return
		}
		entries = append(entries, e.Access())
	})
	// Rows that arrived by replication or bulk load carry IDs this
	// site's allocator never issued; advance it past them so
	// post-promotion writes cannot collide.
	m.db.ReserveIDs(maxID)
	tmp := indexnode.NewReplica(3, false)
	defer tmp.Close()
	tmp.BulkAdd(entries)
	snap := tmp.Snapshot()
	for _, r := range m.idx.Replicas() {
		r.Restore(snap)
	}
	return len(entries)
}
