package core

import (
	"fmt"
	"io"
	"strconv"

	"mantle/internal/heat"
	"mantle/internal/indexnode"
	"mantle/internal/metrics"
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
		fmt.Fprintf(w, "hotspot: %d hot paths, %d promotions, %d demotions, %d hot reads, %d fallbacks, %d sheds\n",
			len(h.HotSet), h.Promotions, h.Demotions, h.HotReads, h.Fallbacks, h.Sheds)
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

// collectHeat exports the heat plane on /metrics from one Status
// snapshot; per-key series carry the key as their label.
func (m *Mantle) collectHeat(e *metrics.Emitter) {
	s := m.Status()
	e.Float("heat_proxy_ops_per_sec", s.Proxy.OpsPerSec)
	for _, it := range s.Proxy.HotDirs {
		e.Label("path", it.Key).Int("heat_proxy_dir", it.Count)
	}
	for _, it := range s.Proxy.HotMisses {
		e.Label("path", it.Key).Int("heat_proxy_miss", it.Count)
	}
	e.Float("heat_index_lookups_per_sec", s.Index.LookupsPerSec)
	e.Float("heat_index_proposes_per_sec", s.Index.ProposesPerSec)
	e.Int("heat_index_leader_reads", s.Index.LeaderReads)
	e.Int("heat_index_follower_reads", s.Index.FollowerReads)
	e.Int("heat_index_learner_reads", s.Index.LearnerReads)
	e.Int("heat_index_hot_paths", int64(len(s.Index.Hotspot.HotSet)))
	for _, it := range s.Index.HotWriteDirs {
		e.Label("path", it.Key).Int("heat_index_write_dir", it.Count)
	}
	e.Int("heat_routing_epoch", int64(s.Migration.Epoch))
	for _, sl := range s.Shards {
		l := e.Label("shard", strconv.Itoa(sl.Shard))
		l.Int("heat_shard_reads", sl.Reads)
		l.Int("heat_shard_pieces", sl.TxnPieces)
		l.Int("heat_shard_2pc", sl.TwoPC)
		l.Float("heat_shard_per_sec", sl.PerSecond)
	}
	for _, it := range s.DBDirs {
		e.Label("pid", strconv.FormatUint(uint64(it.Key), 10)).Int("heat_db_dir", it.Count)
	}
	e.Int("heat_slowop_sampled", s.SlowOps.Sampled)
	e.Int("heat_slowop_captured", s.SlowOps.Captured)
}
