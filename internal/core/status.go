package core

import (
	"fmt"
	"io"

	"mantle/internal/heat"
	"mantle/internal/indexnode"
	"mantle/internal/tafdb"
	"mantle/internal/trace"
	"mantle/internal/types"
)

// Status is the live heat-plane snapshot the mantled /status endpoint
// serves: per-layer hot directories, per-shard load, and the slow-op
// flight recorder's retained span trees.
type Status struct {
	Proxy     ProxyStatus                `json:"proxy"`
	Index     indexnode.GroupHeat        `json:"index"`
	Shards    []tafdb.ShardLoad          `json:"shards"`
	DBDirs    []heat.Item[types.InodeID] `json:"db_hot_dirs"`
	Migration tafdb.MigrationStats       `json:"migration"`
	SlowOps   SlowOpsStatus              `json:"slow_ops"`
}

// ProxyStatus is the proxy layer's slice of the heat plane.
type ProxyStatus struct {
	OpsPerSec float64             `json:"ops_per_sec"`
	HotDirs   []heat.Item[string] `json:"hot_dirs"`
	HotMisses []heat.Item[string] `json:"hot_misses"`
}

// SlowOpsStatus summarises the flight recorder.
type SlowOpsStatus struct {
	Sampled  int64                `json:"sampled"`
	Captured int64                `json:"captured"`
	Records  []trace.FlightRecord `json:"records"`
}

// Status snapshots the deployment's heat plane.
func (m *Mantle) Status() Status {
	return Status{
		Proxy: ProxyStatus{
			OpsPerSec: m.opRate.PerSecond(),
			HotDirs:   m.dirHeat.Snapshot(),
			HotMisses: m.missHeat.Snapshot(),
		},
		Index:     m.idx.Heat(),
		Shards:    m.db.ShardLoads(),
		DBDirs:    m.db.HotDirs(),
		Migration: m.db.Migrations(),
		SlowOps: SlowOpsStatus{
			Sampled:  m.recorder.Sampled(),
			Captured: m.recorder.Captured(),
			Records:  m.recorder.Snapshot(),
		},
	}
}

// topN bounds a snapshot for human-readable rendering.
func topN[K comparable](items []heat.Item[K], n int) []heat.Item[K] {
	if len(items) > n {
		return items[:n]
	}
	return items
}

// WriteStatus renders the heat plane as human-readable text (the
// ?format=text view of /status and the mdtest/experiments heat report).
func (m *Mantle) WriteStatus(w io.Writer) {
	s := m.Status()
	fmt.Fprintf(w, "== proxy ==\n")
	fmt.Fprintf(w, "ops/sec (ewma): %.1f\n", s.Proxy.OpsPerSec)
	writeHotDirs(w, "hot dirs", s.Proxy.HotDirs)
	writeHotDirs(w, "hot cache misses", s.Proxy.HotMisses)

	fmt.Fprintf(w, "\n== indexnode ==\n")
	fmt.Fprintf(w, "lookups/sec (ewma): %.1f  proposes/sec (ewma): %.1f\n",
		s.Index.LookupsPerSec, s.Index.ProposesPerSec)
	fmt.Fprintf(w, "read mix: leader %d, follower %d, learner %d, fallback %d\n",
		s.Index.LeaderReads, s.Index.FollowerReads, s.Index.LearnerReads, s.Index.FallbackReads)
	writeHotDirs(w, "hot write dirs", s.Index.HotWriteDirs)
	if h := s.Index.Hotspot; h.Enabled {
		fmt.Fprintf(w, "hotspot: %d hot paths, %d promotions, %d demotions, %d hot reads, %d stale fallbacks, %d sheds\n",
			len(h.HotSet), h.Promotions, h.Demotions, h.HotReads, h.StaleFalls, h.Sheds)
		for _, p := range h.HotSet {
			fmt.Fprintf(w, "  hot %s\n", p)
		}
	}

	fmt.Fprintf(w, "\n== tafdb ==\n")
	fmt.Fprintf(w, "%-6s %10s %10s %10s %8s %10s\n", "shard", "rows", "reads", "pieces", "2pc", "ops/sec")
	for _, sl := range s.Shards {
		fmt.Fprintf(w, "%-6d %10d %10d %10d %8d %10.1f\n",
			sl.Shard, sl.Rows, sl.Reads, sl.TxnPieces, sl.TwoPC, sl.PerSecond)
	}
	if len(s.DBDirs) > 0 {
		fmt.Fprintf(w, "hot dirs (pid):")
		for _, it := range topN(s.DBDirs, 10) {
			fmt.Fprintf(w, " %d(%d)", it.Key, it.Count)
		}
		fmt.Fprintln(w)
	}

	if s.Migration.Epoch > 0 || s.Migration.Aborts > 0 {
		fmt.Fprintf(w, "migrations: %d done (%d rows), %d aborted, %d dirs off home, routing epoch %d\n",
			s.Migration.Migrations, s.Migration.Rows, s.Migration.Aborts,
			s.Migration.Overrides, s.Migration.Epoch)
	}

	fmt.Fprintf(w, "\n== slow ops ==\n")
	fmt.Fprintf(w, "%d sampled, %d captured\n", s.SlowOps.Sampled, s.SlowOps.Captured)
	for _, r := range s.SlowOps.Records {
		fmt.Fprintf(w, "%s %v (threshold %v, trips %d)\n%s",
			r.Op, r.Duration, r.Threshold, r.Trips, r.Tree)
	}
}

func writeHotDirs(w io.Writer, label string, items []heat.Item[string]) {
	if len(items) == 0 {
		return
	}
	fmt.Fprintf(w, "%s:\n", label)
	for _, it := range topN(items, 10) {
		fmt.Fprintf(w, "  %-40s %d (±%d)\n", it.Key, it.Count, it.Err)
	}
}

// WriteHeatMetrics appends the heat plane to a text /metrics exposition
// in the same "name value" shape as metrics.Registry.Write.
func (m *Mantle) WriteHeatMetrics(w io.Writer) error {
	s := m.Status()
	if _, err := fmt.Fprintf(w, "heat_proxy_ops_per_sec %.3f\n", s.Proxy.OpsPerSec); err != nil {
		return err
	}
	for _, it := range s.Proxy.HotDirs {
		fmt.Fprintf(w, "heat_proxy_dir{%s} %d\n", it.Key, it.Count)
	}
	for _, it := range s.Proxy.HotMisses {
		fmt.Fprintf(w, "heat_proxy_miss{%s} %d\n", it.Key, it.Count)
	}
	fmt.Fprintf(w, "heat_index_lookups_per_sec %.3f\n", s.Index.LookupsPerSec)
	fmt.Fprintf(w, "heat_index_proposes_per_sec %.3f\n", s.Index.ProposesPerSec)
	fmt.Fprintf(w, "heat_index_leader_reads %d\n", s.Index.LeaderReads)
	fmt.Fprintf(w, "heat_index_follower_reads %d\n", s.Index.FollowerReads)
	fmt.Fprintf(w, "heat_index_learner_reads %d\n", s.Index.LearnerReads)
	fmt.Fprintf(w, "heat_index_hot_reads %d\n", s.Index.Hotspot.HotReads)
	fmt.Fprintf(w, "heat_index_hot_paths %d\n", int64(len(s.Index.Hotspot.HotSet)))
	fmt.Fprintf(w, "heat_index_sheds %d\n", s.Index.Hotspot.Sheds)
	fmt.Fprintf(w, "heat_migrations %d\n", s.Migration.Migrations)
	fmt.Fprintf(w, "heat_migration_rows %d\n", s.Migration.Rows)
	fmt.Fprintf(w, "heat_routing_epoch %d\n", s.Migration.Epoch)
	for _, it := range s.Index.HotWriteDirs {
		fmt.Fprintf(w, "heat_index_write_dir{%s} %d\n", it.Key, it.Count)
	}
	for _, sl := range s.Shards {
		fmt.Fprintf(w, "heat_shard_%d_reads %d\n", sl.Shard, sl.Reads)
		fmt.Fprintf(w, "heat_shard_%d_pieces %d\n", sl.Shard, sl.TxnPieces)
		fmt.Fprintf(w, "heat_shard_%d_2pc %d\n", sl.Shard, sl.TwoPC)
		fmt.Fprintf(w, "heat_shard_%d_per_sec %.3f\n", sl.Shard, sl.PerSecond)
	}
	for _, it := range s.DBDirs {
		fmt.Fprintf(w, "heat_db_dir{%d} %d\n", it.Key, it.Count)
	}
	fmt.Fprintf(w, "heat_slowop_sampled %d\n", s.SlowOps.Sampled)
	_, err := fmt.Fprintf(w, "heat_slowop_captured %d\n", s.SlowOps.Captured)
	return err
}

// WriteHeatReport renders the full heat report (status text) — the
// mdtest -heat-report and experiments -heat-out surface.
func (m *Mantle) WriteHeatReport(w io.Writer) {
	m.WriteStatus(w)
}
