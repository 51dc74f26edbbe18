package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"slices"
	"syscall"
	"time"

	mmetrics "mantle/internal/metrics"
	"mantle/internal/raft"
	"mantle/internal/storage"
	"mantle/internal/trace"
)

// counters is one reading of every public accessor the run counters are
// taken from. A pass reads them before and after; nothing is added
// inside the program.
type counters struct {
	at      time.Time
	cpu     time.Duration // process user+sys
	mallocs uint64
	gcs     uint32
	gcCPU   float64 // seconds
	heapMB  float64

	rpcs                    int64
	wal                     storage.WALStats
	raft                    raft.BatchStats
	raftIngest, raftCommit  time.Duration // cumulative over proposals
	txns, batched, rounds   int64
	dbRetries               int64
	txnLat, proposeLat      [mmetrics.NumBuckets]int64
	queueWait               [mmetrics.NumBuckets]int64
	cacheHits, cacheMisses  int64
	coalesced, fallbacks    int64
	leaderReads, otherReads int64
	rpcRetries, rpcTimeouts int64
	idxExecs, dbExecs       int64
	idxBusy, dbBusy         time.Duration
	idxWorkers, dbWorkers   int
}

func (c *counters) fsyncs() int64 { return c.wal.Syncs + c.raft.Syncs }

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func gcCPUSeconds() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

func (d *deployment) snapshot() counters {
	m := d.cl.Core()
	db, idx := m.DB(), m.Index()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c := counters{
		at: time.Now(), cpu: processCPU(), mallocs: ms.Mallocs, gcs: ms.NumGC,
		gcCPU: gcCPUSeconds(), heapMB: float64(ms.HeapInuse) / (1 << 20),
		rpcs:      m.Caller().Fabric().RPCs(),
		wal:       db.WALStats(),
		raft:      idx.RaftBatchStats(),
		dbRetries: db.Retries(),
		txnLat:    db.TxnLatency().Buckets(), proposeLat: idx.ProposeLatency().Buckets(),
		coalesced: idx.CoalescedWalks(), fallbacks: idx.FallbackReads(),
	}
	c.txns, c.batched, c.rounds = db.Batch2PCStats()
	_, _, c.cacheHits, c.cacheMisses = idx.CacheStats()
	leader, follower, learner := idx.ReadMix()
	c.leaderReads, c.otherReads = leader, follower+learner
	c.rpcRetries, c.rpcTimeouts, _ = m.Caller().Stats()
	for _, r := range idx.Rafts() {
		_, _, proposals, _ := r.MetricsRef().Snapshot()
		ingest, commit := r.MetricsRef().StageWaits() // per-proposal means
		c.raftIngest += ingest * time.Duration(proposals)
		c.raftCommit += commit * time.Duration(proposals)
	}
	for _, n := range idx.Nodes() {
		c.idxExecs += n.Ops()
		c.idxBusy += n.BusyTime()
		c.idxWorkers += n.Workers()
		addBuckets(&c.queueWait, n.QueueWait().Buckets())
	}
	for _, n := range db.Nodes() {
		c.dbExecs += n.Ops()
		c.dbBusy += n.BusyTime()
		c.dbWorkers += n.Workers()
		addBuckets(&c.queueWait, n.QueueWait().Buckets())
	}
	return c
}

func addBuckets(dst *[mmetrics.NumBuckets]int64, src [mmetrics.NumBuckets]int64) {
	for i := range dst {
		dst[i] += src[i]
	}
}

// bucketQuantileUs is the q-quantile of the samples a histogram gained
// between two readings, reported as the upper bound of the bucket the
// rank falls in (buckets are a factor 2^(1/4) apart).
func bucketQuantileUs(before, after [mmetrics.NumBuckets]int64, q float64) float64 {
	var total int64
	for i := range after {
		total += after[i] - before[i]
	}
	if total == 0 {
		return 0
	}
	target := int64(q * float64(total))
	var cum int64
	for i := range after {
		cum += after[i] - before[i]
		if cum > target {
			return float64(mmetrics.BucketBound(i)) / 1e3
		}
	}
	return float64(mmetrics.BucketBound(mmetrics.NumBuckets-2)) / 1e3
}

// Span names the program records today, in the order their self-times
// are reported. Anything else folds into the root's residual.
const (
	spanRoot = iota
	spanResolve
	spanRPC
	spanTxnCommit
	spanPropose
	spanInvalidate
	numSpanNames
)

var spanIndex = map[string]int{
	"path-resolve": spanResolve, "rpc": spanRPC, "txn-commit": spanTxnCommit,
	"raft-propose": spanPropose, "cache-invalidate": spanInvalidate,
}

var spanMetric = [numSpanNames]string{
	"core.residual_us", "core.resolve_self_us", "rpc.self_us",
	"tafdb.txn_commit_self_us", "indexnode.propose_self_us", "core.invalidate_self_us",
}

// spanTotals accumulates self-time per span name, plus the op time the
// self-times must sum to.
type spanTotals struct {
	self  [numSpanNames]time.Duration
	total time.Duration
	ops   int64
}

func (t *spanTotals) add(o *spanTotals) {
	for i := range t.self {
		t.self[i] += o.self[i]
	}
	t.total += o.total
	t.ops += o.ops
}

// spanAttributor splits one op's root interval among its spans: every
// instant belongs to the deepest span open at that instant (the latest
// started when parallel siblings overlap), so the shares sum to the
// root's duration exactly. A span's share is its self time: its
// duration minus the part its children cover.
type spanAttributor struct {
	cuts  []time.Duration
	depth []int // by span ID
}

func (a *spanAttributor) attribute(spans []trace.SpanInfo, into *spanTotals) {
	root := spans[0]
	lo, hi := root.Start, root.Start+root.Duration
	into.total += root.Duration
	into.ops++
	if len(spans) == 1 {
		into.self[spanRoot] += root.Duration
		return
	}
	// Span IDs are 1..n and a parent is always listed before its
	// children, so depth is one pass.
	a.depth = append(a.depth[:0], make([]int, len(spans)+1)...)
	a.cuts = a.cuts[:0]
	for i := range spans {
		s := &spans[i]
		if s.ParentID > 0 {
			a.depth[s.ID] = a.depth[s.ParentID] + 1
		}
		// Clip to the root: a child still open at Finish is reported
		// with the time it had run so far.
		s.Duration = min(s.Start+s.Duration, hi) - max(s.Start, lo)
		s.Start = max(s.Start, lo)
		if s.Duration < 0 {
			s.Duration = 0
		}
		a.cuts = append(a.cuts, s.Start, s.Start+s.Duration)
	}
	slices.Sort(a.cuts)
	for i := 0; i+1 < len(a.cuts); i++ {
		from, to := a.cuts[i], a.cuts[i+1]
		if to == from {
			continue
		}
		owner := 0
		for j := range spans {
			s := &spans[j]
			if s.Start <= from && s.Start+s.Duration >= to && a.depth[s.ID] >= a.depth[spans[owner].ID] {
				owner = j
			}
		}
		into.self[spanIndex[spans[owner].Name]] += to - from // unknown names map to spanRoot
	}
}

// sampledTree is one traced op kept whole (1 in treeSampleEvery).
type sampledTree struct {
	Workload string     `json:"workload"`
	Op       string     `json:"op"`
	Client   int        `json:"client"`
	Spans    []spanJSON `json:"spans"`
}

// spanJSON is one span of a sampled tree: name, start, end (as a
// duration) and the span that caused it.
type spanJSON struct {
	ID      int64   `json:"id"`
	Parent  int64   `json:"parent"`
	Name    string  `json:"name"`
	StartUs float64 `json:"start_us"`
	DurUs   float64 `json:"dur_us"`
}

func sampleTree(workload, op string, client int, spans []trace.SpanInfo) sampledTree {
	t := sampledTree{Workload: workload, Op: op, Client: client}
	for _, s := range spans {
		t.Spans = append(t.Spans, spanJSON{s.ID, s.ParentID, s.Name, float64(s.Start) / 1e3, float64(s.Duration) / 1e3})
	}
	return t
}

// writeTrees writes the sampled span trees kept in memory during the run.
func writeTrees(path string, trees []sampledTree) error {
	b, err := json.Marshal(trees)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// tracedLayer fills in the run counters from the traced pass p.
func tracedLayer(res *workloadResult, p *pass) {
	set := func(name string, v float64) { res.PerLayer[name] = single(name, v) }
	ops := float64(p.ops())
	perOp := func(n int64) float64 { return ratio(float64(n), ops) }
	perKop := func(n int64) float64 { return ratio(1000*float64(n), ops) }
	b, a := &p.before, &p.after

	for i, name := range spanMetric {
		set(name, usPerOp(int64(p.spans.self[i]), p.spans.ops))
	}
	set("trace.op_mean_us", usPerOp(int64(p.spans.total), p.spans.ops))
	set("trace.overhead_ratio", ratio(quantileUs(p.all, 0.50), res.PerLayer["client.op_p50_us_raw"].Value))

	set("core.lookup_phase_us", usPerOp(p.lookupNs, p.ops()))
	set("core.execute_phase_us", usPerOp(p.execNs, p.ops()))
	set("core.retries_per_kop", perKop(p.retries))

	wal := a.wal.Syncs - b.wal.Syncs
	set("storage.wal_syncs_per_op", perOp(wal))
	set("storage.wal_group_fanin", ratio(float64(a.wal.Covered-b.wal.Covered), float64(wal)))
	set("txn.batched_share", ratio(float64(a.batched-b.batched), float64(a.txns-b.txns)))
	set("txn.txns_per_round", ratio(float64(a.txns-b.txns), float64(a.rounds-b.rounds)))
	set("tafdb.txn_p50_us", bucketQuantileUs(b.txnLat, a.txnLat, 0.50))
	set("tafdb.retries_per_kop", perKop(a.dbRetries-b.dbRetries))

	proposals := a.raft.Proposals - b.raft.Proposals
	set("raft.syncs_per_op", perOp(a.raft.Syncs-b.raft.Syncs))
	set("raft.proposals_per_append", ratio(float64(proposals), float64(a.raft.Appends-b.raft.Appends)))
	set("raft.ingest_wait_us", usPerOp(int64(a.raftIngest-b.raftIngest), proposals))
	set("raft.commit_wait_us", usPerOp(int64(a.raftCommit-b.raftCommit), proposals))

	hits, misses := a.cacheHits-b.cacheHits, a.cacheMisses-b.cacheMisses
	set("indexnode.cache_hit_ratio", ratio(float64(hits), float64(hits+misses)))
	set("indexnode.coalesced_per_kop", perKop(a.coalesced-b.coalesced))
	leader, other := a.leaderReads-b.leaderReads, a.otherReads-b.otherReads
	set("indexnode.leader_read_share", ratio(float64(leader), float64(leader+other)))
	set("indexnode.fallback_reads_per_kop", perKop(a.fallbacks-b.fallbacks))
	set("indexnode.propose_p50_us", bucketQuantileUs(b.proposeLat, a.proposeLat, 0.50))

	set("rpc.retries_per_kop", perKop(a.rpcRetries-b.rpcRetries))
	set("rpc.timeouts_per_kop", perKop(a.rpcTimeouts-b.rpcTimeouts))

	wall := a.at.Sub(b.at)
	busyFrac := func(busy time.Duration, workers int) float64 {
		return ratio(float64(busy), float64(wall)*float64(workers))
	}
	set("netsim.execs_per_op", perOp(a.idxExecs-b.idxExecs+a.dbExecs-b.dbExecs))
	set("netsim.indexnode_busy_frac", busyFrac(a.idxBusy-b.idxBusy, a.idxWorkers))
	set("netsim.tafdb_busy_frac", busyFrac(a.dbBusy-b.dbBusy, a.dbWorkers))
	set("netsim.queue_wait_p99_us", bucketQuantileUs(b.queueWait, a.queueWait, 0.99))

	set("runtime.gc_cpu_frac", ratio(a.gcCPU-b.gcCPU, wall.Seconds()*float64(runtime.GOMAXPROCS(0))))
	set("runtime.gc_cycles", float64(a.gcs-b.gcs))
	set("runtime.heap_inuse_mb", a.heapMB)
}
