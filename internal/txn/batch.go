package txn

import (
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"mantle/internal/rpc"
)

// batchGroup accumulates transactions with one participant signature.
type batchGroup struct {
	running bool // a leader is executing rounds for this signature
	pending []*batchTxn
}

// Batcher is a batching 2PC coordinator: independent cross-shard
// transactions destined for the same shard set (e.g. the mkdir storm
// under one parent, or renames between one directory pair) share one
// prepare round and one commit round, so each participant shard sees
// one RPC per round instead of one per transaction — the transaction
// batching HopsFS applies over its store, here over TafDB's shards.
//
// Grouping is in-flight-keyed rather than timer-based: the first
// transaction for a signature executes immediately, and transactions
// arriving while its rounds are in flight queue up and run as the next
// batch. An idle write path therefore pays zero added latency, and
// batching emerges exactly when there is concurrency to amortise.
//
// Transaction outcomes stay independent: a prepare conflict aborts only
// the conflicting transaction, its batch-mates commit. Single-shard
// transactions bypass the batcher — they already commit in one RPC, and
// their fsync amortisation happens in the WAL's group commit.
type Batcher struct {
	mu       sync.Mutex
	groups   map[string]*batchGroup
	maxBatch int

	txns    atomic.Int64 // cross-shard transactions routed through the batcher
	batched atomic.Int64 // transactions that shared their rounds with others
	rounds  atomic.Int64 // prepare/commit round pairs executed
}

// NewBatcher creates a Batcher; maxBatch bounds the transactions folded
// into one round pair (<=0 means 64).
func NewBatcher(maxBatch int) *Batcher {
	if maxBatch <= 0 {
		maxBatch = 64
	}
	return &Batcher{groups: make(map[string]*batchGroup), maxBatch: maxBatch}
}

// Stats reports the batcher's accounting: cross-shard transactions
// coordinated, how many of those shared a round with at least one
// other transaction, and the round pairs executed.
func (b *Batcher) Stats() (txns, batched, rounds int64) {
	return b.txns.Load(), b.batched.Load(), b.rounds.Load()
}

// signature is the grouping key: the sorted participant shard IDs.
func signature(pieces []Piece) string {
	ids := make([]string, len(pieces))
	for i, p := range pieces {
		ids[i] = p.P.Shard.ID()
	}
	sort.Strings(ids)
	return strings.Join(ids, "\x00")
}

// Run implements Runner.
func (b *Batcher) Run(op *rpc.Op, txnID string, pieces []Piece) error {
	if len(pieces) < 2 {
		return Direct{}.Run(op, txnID, pieces)
	}
	b.txns.Add(1)
	t := &batchTxn{op: op, id: txnID, pieces: pieces, done: make(chan error, 1)}
	key := signature(pieces)
	b.mu.Lock()
	g := b.groups[key]
	if g == nil {
		g = &batchGroup{}
		b.groups[key] = g
	}
	g.pending = append(g.pending, t)
	if g.running {
		// A leader is mid-round for this signature; it will pick this
		// transaction up for its next batch.
		b.mu.Unlock()
		return <-t.done
	}
	g.running = true
	for len(g.pending) > 0 {
		batch := g.pending
		var rest []*batchTxn
		if len(batch) > b.maxBatch {
			rest = batch[b.maxBatch:]
			batch = batch[:b.maxBatch]
		}
		g.pending = rest
		b.mu.Unlock()
		b.rounds.Add(1)
		if len(batch) > 1 {
			b.batched.Add(int64(len(batch)))
		}
		for j, err := range rounds(batch) {
			batch[j].done <- err
		}
		b.mu.Lock()
	}
	g.running = false
	delete(b.groups, key)
	b.mu.Unlock()
	return <-t.done
}
