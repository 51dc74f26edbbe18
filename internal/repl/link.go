// Package repl is Mantle's asynchronous site-to-site replication plane.
// It keeps no log of its own: each primary TafDB shard's WAL is the
// stream. A shard stamps every record at staging — the commit sequence,
// the committing transaction, its piece count and a reading of the
// site's Hybrid Logical Clock (internal/clock) — so the log is in commit
// order and its HLC strictly increases. A Link reads each shard's durable
// records and streams them over the rpc/netsim fabric to a secondary
// site's Applier, which applies them in per-shard sequence order with
// cross-shard transactions grouped atomically and conflicts resolved
// last-writer-wins on the HLC.
//
// The plane is deliberately asynchronous: the primary never waits for
// the secondary, so a site failure loses at most the un-shipped log
// suffix (the loss window the dr experiment measures). Watermarks —
// applied sequence and HLC per shard, lag in entries and bytes,
// conflict counts — are exported through core's metrics registry onto
// /metrics and /status.
package repl

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"mantle/internal/clock"
	"mantle/internal/netsim"
	"mantle/internal/rpc"
	"mantle/internal/storage"
)

// Record is one replicated mutation batch: a primary shard's WAL record
// at a specific sequence number, decoded. Every piece of one cross-shard
// transaction carries the same TxnID and Pieces count, so the Applier
// can reassemble and apply them atomically.
type Record struct {
	Shard int
	// Seq is the shard-local commit sequence (gap-free from 1).
	Seq uint64
	// HLC is the shard's staging timestamp; LWW conflict resolution
	// compares it.
	HLC clock.Timestamp
	// TxnID identifies the committing transaction ("" for relaxed
	// applies); Pieces is how many shards the transaction spans.
	TxnID  string
	Pieces int
	Muts   []storage.Mutation
}

// LinkConfig parameterises a replication link from a primary site's
// shard logs to a secondary site.
type LinkConfig struct {
	// Logs are the primary shards' WALs, indexed by shard.
	Logs []*storage.WAL
	// Offer lands one batch of records on the secondary (normally the
	// Applier's Offer, possibly wrapped).
	Offer func(recs []Record) error
	// Fabric is the inter-site network the shipped batches cross; the
	// chaos tests install fault injectors on it.
	Fabric *netsim.Fabric
	// Node is the secondary's replication endpoint: batches execute
	// there (at no CPU charge), and its name is fault-targetable.
	Node *netsim.Node
	// SrcName names the primary's sending endpoint for edge-scoped
	// fault rules (blackholing it severs the link).
	SrcName string
	// BatchMax bounds records per shipped batch (default 256).
	BatchMax int
	// Interval is the pump period (default 500µs).
	Interval time.Duration
	// Cursor, when non-nil, seeds the per-shard acknowledged sequences
	// (snapshot bootstrap resumes past the cut).
	Cursor []uint64
}

// Link asynchronously pumps the primary shards' durable WAL records to
// the secondary. One goroutine walks the shards every Interval, shipping
// batches in sequence order and advancing per-shard cursors on
// acknowledgment; fabric failures (drops, blackholes, partitions) leave
// the cursor in place, so delivery is at-least-once and the Applier
// deduplicates.
type Link struct {
	cfg    LinkConfig
	caller *rpc.Caller

	mu    sync.Mutex
	acked []uint64

	shipped   atomic.Int64
	shippedBy atomic.Int64
	failures  atomic.Int64
	gapped    atomic.Bool // a cursor fell below its log's trimmed base

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// StartLink builds and starts a link.
func StartLink(cfg LinkConfig) *Link {
	if cfg.BatchMax <= 0 {
		cfg.BatchMax = 256
	}
	if cfg.Interval <= 0 {
		cfg.Interval = 500 * time.Microsecond
	}
	l := &Link{
		cfg:    cfg,
		caller: rpc.NewCaller(cfg.Fabric),
		acked:  make([]uint64, len(cfg.Logs)),
		stop:   make(chan struct{}),
	}
	copy(l.acked, cfg.Cursor)
	l.wg.Add(1)
	go l.pump()
	return l
}

// Stop halts the pump (failover, teardown). Idempotent.
func (l *Link) Stop() {
	l.stopOnce.Do(func() { close(l.stop) })
	l.wg.Wait()
}

func (l *Link) pump() {
	defer l.wg.Done()
	ticker := time.NewTicker(l.cfg.Interval)
	defer ticker.Stop()
	for {
		select {
		case <-l.stop:
			return
		case <-ticker.C:
		}
		l.pumpOnce()
	}
}

// pumpOnce ships every shard's backlog until empty or the site becomes
// unreachable (then it gives up until the next tick — the backoff that
// keeps a blackholed link from spinning).
func (l *Link) pumpOnce() {
	for si, wal := range l.cfg.Logs {
		for {
			l.mu.Lock()
			from := l.acked[si] + 1
			l.mu.Unlock()
			raw, ok := wal.ReadFrom(from, l.cfg.BatchMax)
			if !ok {
				// The log was trimmed past our cursor: this subscriber
				// can no longer catch up from it and needs a snapshot
				// bootstrap. Surface it and stop shipping the shard
				// rather than silently skipping records.
				l.gapped.Store(true)
				break
			}
			if len(raw) == 0 {
				break
			}
			recs, bytes := decode(si, from, raw)
			err := l.caller.Do(l.cfg.Node, 0,
				rpc.CallOpts{Src: l.cfg.SrcName, Bytes: bytes},
				func() error { return l.cfg.Offer(recs) })
			if err != nil {
				l.failures.Add(1)
				return
			}
			l.mu.Lock()
			l.acked[si] = recs[len(recs)-1].Seq
			l.mu.Unlock()
			l.shipped.Add(int64(len(recs)))
			l.shippedBy.Add(bytes)
			if len(recs) < l.cfg.BatchMax {
				break
			}
		}
	}
}

// decode turns shard si's WAL records, numbered from seq, into Records,
// returning them with their total size.
func decode(si int, seq uint64, raw [][]byte) ([]Record, int64) {
	recs := make([]Record, len(raw))
	var bytes int64
	for i, b := range raw {
		r := &recs[i]
		h, err := storage.DecodeRecord(b, func(m storage.Mutation) { r.Muts = append(r.Muts, m) })
		if err != nil {
			// The shard wrote the record with this process's codec; a
			// decode failure is a codec bug, not a runtime condition.
			panic(fmt.Errorf("repl: shard %d record %d: %w", si, seq+uint64(i), err))
		}
		r.Shard, r.Seq, r.HLC, r.TxnID, r.Pieces = si, seq+uint64(i), h.HLC, h.TxnID, h.Pieces
		bytes += int64(len(b))
	}
	return recs, bytes
}

// LinkStats is the link-side replication accounting.
type LinkStats struct {
	Shipped      int64 // records acknowledged by the secondary
	ShippedBytes int64
	Failures     int64 // shipping rounds abandoned on fabric errors
	LagEntries   int64 // durable records not yet acknowledged, summed
	LagBytes     int64 // their bytes in the logs
	Gapped       bool  // a cursor fell below a trimmed log; bootstrap needed
}

// Stats snapshots the link accounting, deriving lag from the shard logs'
// current durable records.
func (l *Link) Stats() LinkStats {
	st := LinkStats{
		Shipped:      l.shipped.Load(),
		ShippedBytes: l.shippedBy.Load(),
		Failures:     l.failures.Load(),
		Gapped:       l.gapped.Load(),
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	for si, wal := range l.cfg.Logs {
		recs, ok := wal.ReadFrom(l.acked[si]+1, 0)
		if !ok { // gapped: the trimmed records count, their bytes are gone
			st.LagEntries += int64(wal.DurableSeq() - l.acked[si])
		}
		st.LagEntries += int64(len(recs))
		for _, r := range recs {
			st.LagBytes += int64(len(r))
		}
	}
	return st
}
