// Package txn implements distributed metadata transactions over storage
// shards — the mechanism the DBtable-based services (and TafDB) use for
// directory mutations that span shards (§2.3 of the paper).
//
// The coordinator is proxy-side: it prepares all participants (one RPC
// round trip per shard), then commits them (another round trip). A
// participant whose RPC can wait — a fabric round trip, a fault hook, a
// node's CPU queue, or in the commit round a WAL sync — gets a goroutine
// of its own, so a round costs one wait, not one per participant; the
// rest step one after another on the coordinator's goroutine, which
// costs them nothing since they never wait. A prepare failure aborts
// every prepared participant. Under the storage layer's no-wait row locking a
// transaction that touches a contended row fails with types.ErrConflict
// and is retried by the caller with backoff — the abort/retry storm of
// Figure 4b.
//
// Transactions touching a single shard use a one-round-trip fast path
// (prepare+commit in one RPC), which is also the "single-shard
// transaction" primitive of the CFS strategy used by the InfiniFS
// baseline.
package txn

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"slices"
	"strconv"
	"sync"
	"time"

	"mantle/internal/netsim"
	"mantle/internal/rpc"
	"mantle/internal/storage"
	"mantle/internal/types"
)

// Participant is one shard and the node that hosts it.
type Participant struct {
	Shard *storage.Shard
	Node  *netsim.Node
	// Cost is the CPU service time charged on Node per transaction
	// phase executed there.
	Cost time.Duration
}

// Piece is the slice of a transaction that lands on one participant.
type Piece struct {
	P      *Participant
	Guards []storage.Guard
	Muts   []storage.Mutation
}

// Merge coalesces pieces that land on the same participant, so builders
// list one piece per row group and never compare shards themselves. The
// survivor sits at the position of the participant's first piece, with
// later pieces' guards and mutations appended in order. With no
// duplicates pieces is returned untouched and nothing is allocated;
// otherwise pieces' backing array is reused for the result, so callers
// pass a slice they own (a build function's fresh result).
func Merge(pieces []Piece) []Piece {
	n := 0
	for _, pc := range pieces {
		k := 0
		for k < n && pieces[k].P != pc.P {
			k++
		}
		if k == n {
			pieces[n] = pc
			n++
			continue
		}
		// Clip before appending: a builder's Guards/Muts arrays are never
		// written past their length.
		into := &pieces[k]
		into.Guards = append(into.Guards[:len(into.Guards):len(into.Guards)], pc.Guards...)
		into.Muts = append(into.Muts[:len(into.Muts):len(into.Muts)], pc.Muts...)
	}
	return pieces[:n]
}

// Runner executes distributed transactions: Direct gives each its own
// 2PC rounds; Batcher shares rounds among independent cross-shard
// transactions with the same participant set.
type Runner interface {
	// Run executes transaction txnID consisting of pieces (at most one
	// per participant — see Merge), issuing RPCs through op. With one
	// piece it is a single prepare+commit RPC; with several it is
	// two-phase commit. On failure every prepared participant is aborted
	// and the error returned (types.ErrConflict means the caller may
	// retry).
	Run(op *rpc.Op, txnID string, pieces []Piece) error
	// RunThen is Run plus then: when non-nil, the work that commits
	// together with the transaction (Mantle's IndexNode entry, paper Fig 9
	// step 8a/8b). It runs once the transaction has prepared on every
	// participant — the decision point — while the transaction's locks
	// are held: inside the single RPC between prepare and commit, or on
	// the coordinator's goroutine while the commit round's waiting RPCs
	// are in flight and before its others are sent (a batch-mate's, on
	// its own goroutine alongside the commit round). RunThen returns
	// after both. then never runs when a prepare fails; an error after it
	// ran is a failed commit round (the RPC, or a participant a crash
	// made forget the transaction), never a retryable conflict.
	RunThen(op *rpc.Op, txnID string, pieces []Piece, then func()) error
}

// Direct is the unbatched Runner: one 2PC round pair per transaction.
type Direct struct{}

// Run implements Runner.
func (d Direct) Run(op *rpc.Op, txnID string, pieces []Piece) error {
	return d.RunThen(op, txnID, pieces, nil)
}

// RunThen implements Runner.
func (Direct) RunThen(op *rpc.Op, txnID string, pieces []Piece, then func()) error {
	switch len(pieces) {
	case 0:
		if then != nil {
			then()
		}
		return nil
	case 1:
		p := pieces[0]
		return op.Call(p.P.Node, p.P.Cost, func() error {
			if err := p.P.Shard.Prepare(txnID, p.Guards, p.Muts); err != nil {
				return err
			}
			if then != nil {
				then()
			}
			return p.P.Shard.Commit(txnID)
		})
	}
	t := newTxn(op, txnID, pieces, then)
	defer t.recycle()
	t.batch = append(t.batch, t)
	return rounds(t.batch)[0]
}

// batchTxn is one transaction in a 2PC round pair. It is pooled (newTxn,
// recycle): a warm coordinator allocates none.
type batchTxn struct {
	op     *rpc.Op
	id     string
	pieces []Piece
	then   func()
	// done carries the Batcher's signals to a waiting transaction: errLead,
	// errPrepared, then its outcome. Unused under Direct.
	done chan error
	// batch, errs and wg are the scratch of the rounds this transaction
	// leads: the batch it heads, the round results and the round's
	// parked RPCs.
	batch []*batchTxn
	errs  []error
	wg    sync.WaitGroup
}

var txnPool = sync.Pool{New: func() any {
	// Room for every signal a transaction can receive (errPrepared, then
	// its outcome) so no sender ever blocks.
	return &batchTxn{done: make(chan error, 2)}
}}

// newTxn takes a transaction from the pool.
func newTxn(op *rpc.Op, id string, pieces []Piece, then func()) *batchTxn {
	t := txnPool.Get().(*batchTxn)
	t.op, t.id, t.pieces, t.then = op, id, pieces, then
	return t
}

// recycle returns t to the pool. Its caller has received t's last signal,
// so done is empty, and no batch it led or joined still reads it.
func (t *batchTxn) recycle() {
	clear(t.batch)
	clear(t.errs)
	t.op, t.id, t.pieces, t.then = nil, "", nil, nil
	t.batch, t.errs = t.batch[:0], t.errs[:0]
	txnPool.Put(t)
}

// pieceOn returns t's piece landing on participant p. Every transaction
// in a batch has exactly one (the signature guarantees the same
// participant set).
func pieceOn(t *batchTxn, p *Participant) Piece {
	for _, pc := range t.pieces {
		if pc.P.Shard == p.Shard {
			return pc
		}
	}
	return Piece{P: p}
}

// rounds is the two-phase-commit driver: one prepare round and one
// commit/abort round for batch, whose transactions all span the
// participants of batch[0]. Outcomes are independent: a transaction
// commits iff every participant prepared it, otherwise it is aborted
// everywhere (abort of a transaction that never prepared is a no-op) and
// its first prepare error, in participant order, is returned in its
// slot. The returned slice is batch[0]'s scratch, valid until it is
// recycled.
//
// Between the rounds every transaction that will commit has its then
// started: batch[0] — the coordinator's own transaction — on this
// goroutine as the commit round's meanwhile, each batch-mate on its own
// waiting goroutine (errPrepared). No goroutine is started for it.
func rounds(batch []*batchTxn) []error {
	lead := batch[0]
	parts, n := len(lead.pieces), len(batch)
	// errs[i*n+j] is participant i's result for transaction j in the
	// current round; the extra last row is the outcome per transaction.
	lead.errs = slices.Grow(lead.errs[:0], (parts+1)*n)[:(parts+1)*n]
	errs := lead.errs
	clear(errs)
	results, outcome := errs[:parts*n], errs[parts*n:]
	firstErr := func(j int) error {
		for ; j < len(results); j += n {
			if results[j] != nil {
				return results[j]
			}
		}
		return nil
	}

	round(batch, results, nil, nil)
	for j, t := range batch {
		outcome[j] = firstErr(j)
		if j > 0 && outcome[j] == nil && t.then != nil {
			t.done <- errPrepared
		}
	}
	clear(results)
	var then func()
	if outcome[0] == nil {
		then = lead.then
	}
	round(batch, results, outcome, then)
	for j, t := range batch {
		if outcome[j] == nil {
			if err := firstErr(j); err != nil {
				outcome[j] = fmt.Errorf("txn %s commit: %w", t.id, err)
			}
		}
	}
	return outcome
}

// round issues one round of RPCs — the only place 2PC traffic is sent:
// the prepare round when outcome is nil, else the round that commits
// transaction j if outcome[j] is nil and aborts it otherwise. Each
// participant receives one RPC (through batch[0]'s op) carrying every
// transaction. The RPCs that can park (parks) are sent first, each on a
// goroutine of its own; then meanwhile, when non-nil, runs on the
// calling goroutine, while every participant still holds the round's
// transactions; then the others are made one after another on the
// calling goroutine. So a round costs one wait however many
// participants wait, and one that cannot wait starts no goroutine and
// allocates nothing.
func round(batch []*batchTxn, results, outcome []error, meanwhile func()) {
	lead, n, wg := batch[0].op, len(batch), &batch[0].wg
	var inline uint64 // bit i: participant i (i < 64) steps on this goroutine
	for i, pc := range batch[0].pieces {
		if i < 64 && !parks(lead, pc.P, outcome != nil) {
			inline |= 1 << i
			continue
		}
		wg.Add(1)
		go func(p *Participant, row []error) {
			defer wg.Done()
			call(lead, p, batch, outcome, row)
		}(pc.P, results[i*n:(i+1)*n])
	}
	if meanwhile != nil {
		meanwhile()
	}
	for i, pc := range batch[0].pieces {
		if inline&(1<<i) != 0 {
			call(lead, pc.P, batch, outcome, results[i*n:(i+1)*n])
		}
	}
	wg.Wait()
}

// parks reports whether participant p's step of a round can park: its
// RPC can (rpc.Op.Parks), or — committing — its WAL charges a sync.
func parks(op *rpc.Op, p *Participant, commit bool) bool {
	return op.Parks(p.Node) || commit && syncs(p.Shard)
}

// syncs reports whether a commit on s waits out a WAL sync.
func syncs(s *storage.Shard) bool {
	w := s.WAL()
	return w != nil && w.SyncCost() > 0
}

// call is participant p's one RPC of the round, issued through lead. When
// the RPC itself fails (fabric fault) the round's result is unknown on p,
// so every transaction fails there and aborts or reports it.
func call(lead *rpc.Op, p *Participant, batch []*batchTxn, outcome, row []error) {
	err := lead.Call(p.Node, p.Cost, func() error {
		runOn(p, batch, outcome, row)
		return nil
	})
	if err != nil {
		for j := range row {
			row[j] = err
		}
	}
}

// runOn executes every transaction's step of the round on p, inside the
// participant's one RPC, each batch-mate charging its own CPU service
// time on the node: the saving is round trips and fsyncs, not CPU. The
// steps run one after another, except the commits on a WAL that charges
// for its syncs: there each batch-mate commits on its own goroutine, so
// the WAL's group commit coalesces the batch onto few syncs.
func runOn(p *Participant, batch []*batchTxn, outcome, row []error) {
	if len(batch) > 1 && outcome != nil && syncs(p.Shard) {
		var mates sync.WaitGroup
		for j := 1; j < len(batch); j++ {
			mates.Add(1)
			go func(j int) {
				defer mates.Done()
				p.Node.Charge(p.Cost)
				row[j] = step(p, batch[j], outcome, j)
			}(j)
		}
		row[0] = step(p, batch[0], outcome, 0)
		mates.Wait()
		return
	}
	row[0] = step(p, batch[0], outcome, 0)
	for j := 1; j < len(batch); j++ {
		p.Node.Charge(p.Cost)
		row[j] = step(p, batch[j], outcome, j)
	}
}

// step is transaction t's (batch slot j's) share of a round on p.
func step(p *Participant, t *batchTxn, outcome []error, j int) error {
	switch {
	case outcome == nil:
		pc := pieceOn(t, p)
		return p.Shard.PreparePiece(t.id, len(t.pieces), pc.Guards, pc.Muts)
	case outcome[j] == nil:
		return p.Shard.Commit(t.id)
	default:
		p.Shard.Abort(t.id)
	}
	return nil
}

// Backoff sleeps an exponential, jittered backoff for the given retry
// attempt (0-based), bounded by max. It is the retry policy the metadata
// services use after types.ErrConflict / types.ErrLocked.
func Backoff(attempt int, base, max time.Duration) {
	if base <= 0 {
		return
	}
	d := base << uint(min(attempt, 10))
	if d > max {
		d = max
	}
	// Full jitter.
	d = time.Duration(rand.Int64N(int64(d) + 1))
	if d > 0 {
		time.Sleep(d)
	}
}

// RunWithRetry runs build() as a transaction through r, retrying on
// ErrConflict or ErrLocked up to maxRetries times with jittered backoff.
// build is re-invoked on every attempt so it can re-read state; it
// returns the transaction pieces or an error that aborts the whole
// operation. then is handed to every attempt's RunThen, so it runs at most
// once: for the attempt that prepared everywhere, which is never retried.
// The retry count consumed is returned.
func RunWithRetry(r Runner, op *rpc.Op, txnID string, maxRetries int, base, maxBackoff time.Duration,
	then func(), build func(attempt int) ([]Piece, error)) (int, error) {

	var lastErr error
	for attempt := 0; attempt <= maxRetries; attempt++ {
		pieces, err := build(attempt)
		if err != nil {
			return attempt, err
		}
		err = r.RunThen(op, AttemptID(txnID, attempt), pieces, then)
		if err == nil {
			return attempt, nil
		}
		if !retryable(err) {
			return attempt, err
		}
		lastErr = err
		Backoff(attempt, base, maxBackoff)
	}
	return maxRetries, fmt.Errorf("%w: %v", types.ErrRetryExhausted, lastErr)
}

// AttemptID is the transaction ID RunWithRetry gives attempt number
// attempt of txnID.
func AttemptID(txnID string, attempt int) string {
	return txnID + "#" + strconv.Itoa(attempt)
}

func retryable(err error) bool {
	return err != nil && (errors.Is(err, types.ErrConflict) || errors.Is(err, types.ErrLocked))
}
