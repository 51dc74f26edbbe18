package main

// This file is the benchmark's contract in code: the workload names, the
// end-to-end metrics with their regression bounds, and the per-layer
// metrics with the layer they belong to and the end-to-end number each is
// expected to move. BENCHMARK.json at the repository root lists the same
// names; TestSpecMatchesBenchmarkJSON fails on any drift between the two.

// metricSpec describes one reported number.
type metricSpec struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the base median by which an end-to-end
	// metric may get worse before -compare (and the driver) call it a
	// regression. Zero for per-layer metrics, which are never gated.
	Bound float64
	// Floor is the absolute slack -compare adds on top of Bound, in the
	// metric's unit, so that a 3 ms set-up is not failed over 1 ms.
	Floor float64
	// Layer is the repository module a per-layer metric measures.
	Layer string
	// Moves names the end-to-end metric and workload the layer metric
	// is predicted to move (README.md, "How the layers interact").
	Moves string
}

// endToEnd is what a caller of the proxy sees. Every workload reports
// every one of these and none is ever zero; the per-class and
// per-workload numbers the issue also asked for (read/write/rename p50,
// fsyncs/op, bytes/entry, failed ratio) are zero or undefined on some
// workload, so they are reported in the "client" layer instead. So is
// op_p99_us: on stat_hot about 1% of ops run while the collector does,
// which puts p99 on the edge of that cliff (9-19% apart between seeds),
// and the issue moves a p99 that cannot hold its bound to the client
// layer. In a closed loop ops_per_s is clients / mean latency, so a tail
// that matters still moves a gated number. And so is cpu_us_per_op:
// under a hypervisor getrusage counts stolen time, and one busy minute
// on the host raised write_durable's CPU per op by 40% while its
// latency moved 5%; a real CPU regression on the CPU-bound workloads
// lowers ops_per_s anyway.
//
// The three timings of a CPU-bound workload are scaled to a host of
// fixed speed by hostFactor (hostref.go): as the clock reads them, the
// same commit moved 10-28% between minutes on the shared reference VM
// (the driver's ten seeds spread 28-39% on three workloads); scaled,
// ten seeds stay within 2-8%. The readings of the clock are kept beside
// them in the client layer. The timings stay bounded at 0.25, the
// widest the driver allows: a bound has to survive a host the reference
// does not describe. The counts repeat to the third digit and are
// bounded tightly.
var endToEnd = []metricSpec{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Floor: 0.25},
	{Name: "ops_per_s", Unit: "ops/s", Better: "higher", Bound: 0.25},
	{Name: "op_p50_us", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "allocs_per_op", Unit: "allocs", Better: "lower", Bound: 0.08, Floor: 0.5},
	{Name: "rpcs_per_op", Unit: "RPCs", Better: "lower", Bound: 0.05, Floor: 0.02},
}

// perLayer lists the un-gated numbers of the traced run: probes (fixed
// iteration counts on a standalone instance of one layer) and run
// counters (deltas of public accessors and span self-times over the
// traced pass of the workload being run).
var perLayer = []metricSpec{
	// client: what the caller sees, per op class and in the tail.
	{Name: "read_p50_us", Unit: "us", Better: "lower", Layer: "client", Moves: "Stat/Lookup/ListPage median; 0 on write_durable"},
	{Name: "write_p50_us", Unit: "us", Better: "lower", Layer: "client", Moves: "Create/Delete/Mkdir median; 0 on stat_hot, stat_wide"},
	{Name: "rename_p50_us", Unit: "us", Better: "lower", Layer: "client", Moves: "directory Rename median; churn_mixed, write_durable only"},
	{Name: "fsyncs_per_op", Unit: "syncs", Better: "lower", Layer: "client", Moves: "WAL + raft log syncs on every replica per op; write_durable"},
	{Name: "failed_ratio", Unit: "ratio", Better: "lower", Layer: "client", Moves: "failed or wrong ops / attempted; must stay 0"},
	{Name: "resident_bytes_per_entry", Unit: "bytes", Better: "lower", Layer: "client", Moves: "live heap growth of populate / entries; meaningful on stat_wide"},
	{Name: "op_p99_us", Unit: "us", Better: "lower", Layer: "client", Moves: "all ops; >= 80 samples beyond it per round; not gated, see README"},
	{Name: "cpu_us_per_op", Unit: "us", Better: "lower", Layer: "client", Moves: "process user+sys CPU / ops; not gated, see README"},
	{Name: "client.ops_per_s_raw", Unit: "ops/s", Better: "higher", Layer: "client", Moves: "ops_per_s as the clock read it, before hostFactor(host.ref_ms)"},
	{Name: "client.op_p50_us_raw", Unit: "us", Better: "lower", Layer: "client", Moves: "op_p50_us as the clock read it, before hostFactor(host.ref_ms)"},
	{Name: "client.setup_s_raw", Unit: "s", Better: "lower", Layer: "client", Moves: "setup_s as the clock read it, before hostFactor"},
	{Name: "client.read_p99_us", Unit: "us", Better: "lower", Layer: "client", Moves: "tail behind op_p99_us"},
	{Name: "client.write_p99_us", Unit: "us", Better: "lower", Layer: "client", Moves: "tail behind op_p99_us"},
	{Name: "client.rename_p99_us", Unit: "us", Better: "lower", Layer: "client", Moves: "tail behind op_p99_us"},
	{Name: "client.op_p999_us", Unit: "us", Better: "lower", Layer: "client", Moves: "tail behind op_p99_us"},

	{Name: "btree.get_ns", Unit: "ns", Better: "lower", Layer: "btree", Moves: "read_p50_us, op_p50_us on stat_wide; nothing on stat_hot"},
	{Name: "btree.put_ns", Unit: "ns", Better: "lower", Layer: "btree", Moves: "write_p50_us on churn_mixed"},
	{Name: "btree.scan_row_ns", Unit: "ns", Better: "lower", Layer: "btree", Moves: "read_p50_us on stat_wide (ListPage)"},

	{Name: "storage.get_ns", Unit: "ns", Better: "lower", Layer: "storage", Moves: "read_p50_us on stat_wide"},
	{Name: "storage.scan_children_row_ns", Unit: "ns", Better: "lower", Layer: "storage", Moves: "read_p50_us on stat_wide (ListPage)"},
	{Name: "storage.prepare_commit_us", Unit: "us", Better: "lower", Layer: "storage", Moves: "write_p50_us on churn_mixed"},
	{Name: "storage.wal_commit_us", Unit: "us", Better: "lower", Layer: "storage", Moves: "ops_per_s on write_durable"},
	{Name: "storage.wal_syncs_per_op", Unit: "syncs", Better: "lower", Layer: "storage", Moves: "fsyncs_per_op, ops_per_s on write_durable"},
	{Name: "storage.wal_group_fanin", Unit: "ratio", Better: "higher", Layer: "storage", Moves: "fsyncs_per_op, ops_per_s on write_durable"},

	{Name: "txn.direct_2shard_us", Unit: "us", Better: "lower", Layer: "txn", Moves: "rename_p50_us on churn_mixed"},
	{Name: "txn.batcher_2shard_us", Unit: "us", Better: "lower", Layer: "txn", Moves: "rename_p50_us, write_p50_us on churn_mixed"},
	{Name: "txn.batched_share", Unit: "ratio", Better: "higher", Layer: "txn", Moves: "ops_per_s on write_durable"},
	{Name: "txn.txns_per_round", Unit: "ratio", Better: "higher", Layer: "txn", Moves: "ops_per_s, rename_p50_us on write_durable"},

	{Name: "tafdb.stat_us", Unit: "us", Better: "lower", Layer: "tafdb", Moves: "op_p50_us on stat_hot"},
	{Name: "tafdb.create_us", Unit: "us", Better: "lower", Layer: "tafdb", Moves: "write_p50_us on churn_mixed"},
	{Name: "tafdb.readdir_page_us", Unit: "us", Better: "lower", Layer: "tafdb", Moves: "read_p50_us on stat_wide"},
	{Name: "tafdb.txn_p50_us", Unit: "us", Better: "lower", Layer: "tafdb", Moves: "write_p50_us on churn_mixed, write_durable"},
	{Name: "tafdb.retries_per_kop", Unit: "count", Better: "lower", Layer: "tafdb", Moves: "op_p99_us on churn_mixed, write_durable"},
	{Name: "tafdb.txn_commit_self_us", Unit: "us", Better: "lower", Layer: "tafdb", Moves: "write_p50_us on churn_mixed, write_durable"},

	{Name: "raft.propose1_us", Unit: "us", Better: "lower", Layer: "raft", Moves: "rename_p50_us on churn_mixed"},
	{Name: "raft.propose3_us", Unit: "us", Better: "lower", Layer: "raft", Moves: "rename_p50_us on churn_mixed"},
	{Name: "raft.syncs_per_op", Unit: "syncs", Better: "lower", Layer: "raft", Moves: "fsyncs_per_op on write_durable"},
	{Name: "raft.proposals_per_append", Unit: "ratio", Better: "higher", Layer: "raft", Moves: "ops_per_s, fsyncs_per_op on write_durable"},
	{Name: "raft.ingest_wait_us", Unit: "us", Better: "lower", Layer: "raft", Moves: "op_p99_us on write_durable (first-in-batch wait)"},
	{Name: "raft.commit_wait_us", Unit: "us", Better: "lower", Layer: "raft", Moves: "rename_p50_us on write_durable; op_p99_us on churn_mixed"},

	{Name: "indexnode.lookup_hit_us", Unit: "us", Better: "lower", Layer: "indexnode", Moves: "op_p50_us on stat_hot"},
	{Name: "indexnode.lookup_walk_us", Unit: "us", Better: "lower", Layer: "indexnode", Moves: "read_p50_us after invalidation on churn_mixed"},
	{Name: "indexnode.cmd_codec_ns", Unit: "ns", Better: "lower", Layer: "indexnode", Moves: "write_p50_us (Mkdir) on churn_mixed"},
	{Name: "indexnode.cache_hit_ratio", Unit: "ratio", Better: "higher", Layer: "indexnode", Moves: "read_p50_us on stat_hot, stat_wide"},
	{Name: "indexnode.coalesced_per_kop", Unit: "count", Better: "higher", Layer: "indexnode", Moves: "read_p50_us on churn_mixed"},
	{Name: "indexnode.leader_read_share", Unit: "ratio", Better: "lower", Layer: "indexnode", Moves: "ops_per_s on stat_hot"},
	{Name: "indexnode.fallback_reads_per_kop", Unit: "count", Better: "lower", Layer: "indexnode", Moves: "op_p99_us on churn_mixed"},
	{Name: "indexnode.propose_p50_us", Unit: "us", Better: "lower", Layer: "indexnode", Moves: "rename_p50_us on churn_mixed, write_durable"},
	{Name: "indexnode.follower_churn_ops_per_s", Unit: "ops/s", Better: "higher", Layer: "indexnode", Moves: "none: churn_mixed's mix under FollowerRead, where reads wait for followers to catch up"},
	{Name: "indexnode.follower_churn_p99_us", Unit: "us", Better: "lower", Layer: "indexnode", Moves: "none: the follower read-after-write wait, about one heartbeat"},
	{Name: "indexnode.propose_self_us", Unit: "us", Better: "lower", Layer: "indexnode", Moves: "rename_p50_us on churn_mixed, write_durable"},

	{Name: "rpc.call_ns", Unit: "ns", Better: "lower", Layer: "rpc", Moves: "op_p50_us, cpu_us_per_op on stat_hot (2 RPCs per op)"},
	{Name: "rpc.self_us", Unit: "us", Better: "lower", Layer: "rpc", Moves: "op_p50_us on stat_hot"},
	{Name: "rpc.retries_per_kop", Unit: "count", Better: "lower", Layer: "rpc", Moves: "rpcs_per_op anywhere; must stay 0 without faults"},
	{Name: "rpc.timeouts_per_kop", Unit: "count", Better: "lower", Layer: "rpc", Moves: "failed_ratio anywhere; must stay 0 without faults"},

	{Name: "netsim.exec_ns", Unit: "ns", Better: "lower", Layer: "netsim", Moves: "op_p50_us on stat_hot (the simulator's floor)"},
	{Name: "netsim.execs_per_op", Unit: "count", Better: "lower", Layer: "netsim", Moves: "cpu_us_per_op anywhere"},
	{Name: "netsim.indexnode_busy_frac", Unit: "ratio", Better: "lower", Layer: "netsim", Moves: "ops_per_s saturation; 0 while no CPU cost is modelled"},
	{Name: "netsim.tafdb_busy_frac", Unit: "ratio", Better: "lower", Layer: "netsim", Moves: "ops_per_s saturation; 0 while no CPU cost is modelled"},
	{Name: "netsim.queue_wait_p99_us", Unit: "us", Better: "lower", Layer: "netsim", Moves: "op_p99_us under saturation; 0 while no CPU cost is modelled"},

	{Name: "core.stat_us", Unit: "us", Better: "lower", Layer: "core", Moves: "op_p50_us on stat_hot"},
	{Name: "core.lookup_us", Unit: "us", Better: "lower", Layer: "core", Moves: "read_p50_us on stat_wide"},
	{Name: "core.create_us", Unit: "us", Better: "lower", Layer: "core", Moves: "write_p50_us on churn_mixed"},
	{Name: "core.mkdir_us", Unit: "us", Better: "lower", Layer: "core", Moves: "write_p50_us on churn_mixed"},
	{Name: "core.rename_us", Unit: "us", Better: "lower", Layer: "core", Moves: "rename_p50_us on churn_mixed"},
	{Name: "core.stat_self_us", Unit: "us", Better: "lower", Layer: "core", Moves: "op_p50_us, allocs_per_op on stat_hot"},
	{Name: "core.lookup_phase_us", Unit: "us", Better: "lower", Layer: "core", Moves: "op_p50_us on stat_hot, stat_wide"},
	{Name: "core.execute_phase_us", Unit: "us", Better: "lower", Layer: "core", Moves: "write_p50_us on churn_mixed, write_durable"},
	{Name: "core.retries_per_kop", Unit: "count", Better: "lower", Layer: "core", Moves: "rename_p50_us, op_p99_us on churn_mixed"},
	{Name: "core.resolve_self_us", Unit: "us", Better: "lower", Layer: "core", Moves: "op_p50_us on stat_hot"},
	{Name: "core.invalidate_self_us", Unit: "us", Better: "lower", Layer: "core", Moves: "rename_p50_us on churn_mixed; 0 without the proxy cache"},
	{Name: "core.residual_us", Unit: "us", Better: "lower", Layer: "core", Moves: "op_p50_us, allocs_per_op on stat_hot"},

	{Name: "remote.stat_rt_us", Unit: "us", Better: "lower", Layer: "remote", Moves: "op_p50_us on tcp_front only"},
	{Name: "remote.overhead_us", Unit: "us", Better: "lower", Layer: "remote", Moves: "op_p50_us, cpu_us_per_op, allocs_per_op on tcp_front only"},

	{Name: "gateway.http_stat_us", Unit: "us", Better: "lower", Layer: "gateway", Moves: "none yet (no HTTP workload)"},
	{Name: "repl.drain_entries_per_s", Unit: "entries/s", Better: "higher", Layer: "repl", Moves: "none yet (no DR workload)"},

	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "lower", Layer: "trace", Moves: "instrumentation cost line item on stat_hot"},
	{Name: "trace.op_mean_us", Unit: "us", Better: "lower", Layer: "trace", Moves: "the total the span self-times sum to"},

	{Name: "runtime.gc_cpu_frac", Unit: "ratio", Better: "lower", Layer: "runtime", Moves: "cpu_us_per_op, op_p99_us on stat_wide, churn_mixed"},
	{Name: "runtime.gc_cycles", Unit: "count", Better: "lower", Layer: "runtime", Moves: "op_p99_us on stat_wide, churn_mixed"},
	{Name: "runtime.heap_inuse_mb", Unit: "MB", Better: "lower", Layer: "runtime", Moves: "resident_bytes_per_entry on stat_wide"},

	{Name: "host.ref_ms", Unit: "ms", Better: "lower", Layer: "host", Moves: "the host reference kernel, mean over the measured windows; ops_per_s is scaled by it"},
	{Name: "host.calib_us", Unit: "us", Better: "lower", Layer: "host", Moves: "explains a slow slice: the host, not the program"},
	{Name: "host.sleep_floor_us", Unit: "us", Better: "lower", Layer: "host", Moves: "bounds write_durable latency: syncs on the path x floor"},
}

// specs indexes both tiers by metric name.
var specs = specByName()

func specByName() map[string]metricSpec {
	out := make(map[string]metricSpec, len(endToEnd)+len(perLayer))
	for _, m := range endToEnd {
		out[m.Name] = m
	}
	for _, m := range perLayer {
		out[m.Name] = m
	}
	return out
}

// runSeconds is BENCHMARK.json's run_seconds: what the driver passes as
// --seconds.
const runSeconds = 16

// benchmarkJSON renders the root BENCHMARK.json from this file
// (benchmark -spec), so the two cannot drift.
func benchmarkJSON() any {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	out := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{Command: []string{"bash", "benchmark/run.sh"}, Paths: []string{"benchmark"}, RunSeconds: runSeconds}
	for _, w := range workloads {
		out.Workloads = append(out.Workloads, wl{w.name, w.why})
	}
	for _, m := range endToEnd {
		out.EndToEnd = append(out.EndToEnd, e2e{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range perLayer {
		out.PerLayer = append(out.PerLayer, layer{m.Name, m.Unit, m.Better})
	}
	return out
}
