package repl

import (
	"sync"
	"sync/atomic"
	"time"

	"mantle/internal/netsim"
	"mantle/internal/rpc"
)

// LinkConfig parameterises a replication link from a primary Source to
// a secondary site.
type LinkConfig struct {
	// Source is the primary-site oplog feed.
	Source *Source
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

// Link asynchronously pumps oplog records to the secondary. One
// goroutine walks the shards every Interval, shipping batches in
// sequence order and advancing per-shard cursors on acknowledgment;
// fabric failures (drops, blackholes, partitions) leave the cursor in
// place, so delivery is at-least-once and the Applier deduplicates.
type Link struct {
	cfg    LinkConfig
	caller *rpc.Caller

	mu    sync.Mutex
	acked []uint64

	shipped   atomic.Int64
	shippedBy atomic.Int64
	failures  atomic.Int64
	gapped    atomic.Bool // cursor fell behind the oplog GC horizon

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
		acked:  make([]uint64, cfg.Source.Shards()),
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
	src := l.cfg.Source
	for si := 0; si < src.Shards(); si++ {
		for {
			l.mu.Lock()
			from := l.acked[si] + 1
			l.mu.Unlock()
			recs, ok := src.Log(si).ReadFrom(from, l.cfg.BatchMax)
			if !ok {
				// The oplog was trimmed past our cursor: this subscriber
				// can no longer catch up from the log and needs a
				// snapshot bootstrap. Surface it and stop shipping the
				// shard rather than silently skipping records.
				l.gapped.Store(true)
				break
			}
			if len(recs) == 0 {
				break
			}
			var bytes int64
			for i := range recs {
				bytes += int64(recs[i].Bytes)
			}
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

// Acked returns the per-shard acknowledged sequences (the oplog GC low
// watermark for this subscriber).
func (l *Link) Acked() []uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]uint64, len(l.acked))
	copy(out, l.acked)
	return out
}

// LinkStats is the link-side replication accounting.
type LinkStats struct {
	Shipped      int64 // records acknowledged by the secondary
	ShippedBytes int64
	Failures     int64 // shipping rounds abandoned on fabric errors
	LagEntries   int64 // oplog tip minus acknowledged, summed
	LagBytes     int64 // retained-but-unacked oplog bytes (approximate)
	Gapped       bool  // cursor fell behind oplog GC; bootstrap needed
}

// Stats snapshots the link accounting, deriving lag from the source's
// current tips.
func (l *Link) Stats() LinkStats {
	st := LinkStats{
		Shipped:      l.shipped.Load(),
		ShippedBytes: l.shippedBy.Load(),
		Failures:     l.failures.Load(),
		Gapped:       l.gapped.Load(),
	}
	src := l.cfg.Source
	l.mu.Lock()
	for si := 0; si < src.Shards() && si < len(l.acked); si++ {
		log := src.Log(si)
		tip := log.Tip()
		if tip > l.acked[si] {
			st.LagEntries += int64(tip - l.acked[si])
		}
	}
	l.mu.Unlock()
	if st.LagEntries > 0 {
		// Approximate: retained bytes scale with retained records.
		s := src.Stats()
		if s.Records > 0 {
			st.LagBytes = s.Bytes * st.LagEntries / int64(s.Records)
		}
	}
	return st
}
