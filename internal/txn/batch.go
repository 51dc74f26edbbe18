package txn

import (
	"errors"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"mantle/internal/rpc"
	"mantle/internal/storage"
)

// batchGroup accumulates transactions with one participant signature.
type batchGroup struct {
	running bool        // a leader is executing rounds for this signature
	pending []*batchTxn // oldest first
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
// batch, led by the oldest of them. An idle write path therefore pays
// zero added latency, and batching emerges exactly when there is
// concurrency to amortise.
//
// Transaction outcomes stay independent: a prepare conflict aborts only
// the conflicting transaction, its batch-mates commit. Single-shard
// transactions bypass the batcher — they already commit in one RPC, and
// their fsync amortisation happens in the WAL's group commit.
type Batcher struct {
	mu       sync.Mutex
	groups   map[batchKey]*batchGroup
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
	return &Batcher{groups: make(map[batchKey]*batchGroup), maxBatch: maxBatch}
}

// Stats reports the batcher's accounting: cross-shard transactions
// coordinated, how many of those shared a round with at least one
// other transaction, and the round pairs executed.
func (b *Batcher) Stats() (txns, batched, rounds int64) {
	return b.txns.Load(), b.batched.Load(), b.rounds.Load()
}

// maxBatchWidth is the widest transaction the Batcher groups: TafDB's
// widest, two shards (mkdir, rmdir, dirrename, setperm). Wider
// transactions run unbatched.
const maxBatchWidth = 2

// batchKey is the grouping key: the participant shards in ID order.
type batchKey [maxBatchWidth]*storage.Shard

// signature returns pieces' grouping key, or false when they are too wide
// to batch.
func signature(pieces []Piece) (k batchKey, ok bool) {
	if len(pieces) > len(k) {
		return k, false
	}
	for i, p := range pieces {
		k[i] = p.P.Shard
	}
	slices.SortFunc(k[:len(pieces)], func(a, b *storage.Shard) int { return strings.Compare(a.ID(), b.ID()) })
	return k, true
}

// Signals on a waiting transaction's done channel, ahead of its outcome:
// errLead hands it the lead of the next batch; errPrepared has it run its
// then while the leader drives the commit round.
var errLead, errPrepared = errors.New("txn: lead"), errors.New("txn: prepared")

// Run implements Runner.
func (b *Batcher) Run(op *rpc.Op, txnID string, pieces []Piece) error {
	return b.RunThen(op, txnID, pieces, nil)
}

// RunThen implements Runner.
func (b *Batcher) RunThen(op *rpc.Op, txnID string, pieces []Piece, then func()) error {
	key, ok := signature(pieces)
	if len(pieces) < 2 || !ok {
		return Direct{}.RunThen(op, txnID, pieces, then)
	}
	b.txns.Add(1)
	// Room for every signal a transaction can receive (errPrepared, then
	// its outcome) so no sender ever blocks.
	t := &batchTxn{op: op, id: txnID, pieces: pieces, then: then, done: make(chan error, 2)}
	b.mu.Lock()
	g := b.groups[key]
	if g == nil {
		g = &batchGroup{}
		b.groups[key] = g
	}
	g.pending = append(g.pending, t)
	if !g.running {
		g.running = true
		b.mu.Unlock()
		return b.lead(key, g)
	}
	// A leader is mid-round for this signature; this transaction joins a
	// later batch, or leads it.
	b.mu.Unlock()
	for {
		switch err := <-t.done; err {
		case errLead:
			return b.lead(key, g)
		case errPrepared:
			t.then()
		default:
			return err
		}
	}
}

// lead runs one batch for the signature: the oldest pending transactions,
// headed by the caller's own (the first arrival, or the one a previous
// leader handed off to). It then hands the lead to the oldest transaction
// still pending, as the WAL hands sync leadership to its oldest uncovered
// waiter, so a caller waits for its own rounds only, never for batches of
// transactions that arrived after it.
func (b *Batcher) lead(key batchKey, g *batchGroup) error {
	b.mu.Lock()
	batch := g.pending[:min(len(g.pending), b.maxBatch)]
	g.pending = g.pending[len(batch):]
	b.mu.Unlock()
	b.rounds.Add(1)
	if len(batch) > 1 {
		b.batched.Add(int64(len(batch)))
	}
	errs := rounds(batch)
	var next *batchTxn
	b.mu.Lock()
	if len(g.pending) > 0 {
		next = g.pending[0] // stays at the head until it leads
	} else {
		g.running = false
		delete(b.groups, key)
	}
	b.mu.Unlock()
	if next != nil {
		next.done <- errLead
	}
	for j, t := range batch[1:] {
		t.done <- errs[j+1]
	}
	return errs[0]
}
