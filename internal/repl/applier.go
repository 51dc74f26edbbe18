package repl

import (
	"fmt"
	"sync"

	"mantle/internal/clock"
	"mantle/internal/storage"
	"mantle/internal/types"
)

// Applier is the secondary-site half of the replication plane: it
// receives shipped records and applies them to the secondary's shards,
// with three properties:
//
//   - Cross-shard transactions apply atomically: a multi-piece record
//     waits until every piece has arrived, then all pieces apply
//     together, so a promoted secondary never sees a torn mkdir or
//     rename.
//   - Conflicts resolve last-writer-wins on the HLC: a row write whose
//     timestamp does not exceed the row's recorded version is skipped
//     and counted. Attribute deltas (link-count increments) are
//     commutative and apply exactly-once instead.
//   - Each shard applies in sequence order, with one exception: a
//     complete transaction's sibling pieces may jump ahead of buffered
//     records on their shards (two 2PCs can commit in opposite orders
//     on two shards, so strict per-shard order for every piece can
//     deadlock). A jump is allowed only over records touching disjoint
//     keys, so per-key apply order always matches the primary's commit
//     order; on a key conflict the transaction waits — deadlock-free by
//     2PC order (txnUnobstructedLocked). The exported watermark stays
//     the contiguous frontier — the sequence below which everything has
//     applied.
//
// Precondition flags (IfAbsent/MustExist/WantKind) are stripped before
// applying, so re-delivered batches and LWW-filtered interleavings
// never fail the relaxed apply path.
type Applier struct {
	clk   *clock.Clock
	apply func(shard int, muts []storage.Mutation) error

	mu        sync.Mutex
	shards    []*applyShard
	pending   map[string]*pendingTxn
	applied   int64
	muts      int64
	conflicts int64
	discarded int64
	finalized bool
}

type applyShard struct {
	// nextSeq is the contiguous apply frontier: every record below it
	// has applied. buf holds arrived-but-unapplied records; done marks
	// records applied above the frontier (ahead of a still-incomplete
	// transaction), absorbed into nextSeq as the gap closes.
	nextSeq    uint64
	buf        map[uint64]Record
	done       map[uint64]bool
	appliedHLC clock.Timestamp
	// vers is the LWW sidecar: the HLC of the last applied write per
	// row, tombstones included (deletes keep their entry so a late
	// out-of-order write cannot resurrect the row).
	vers map[types.Key]clock.Timestamp
}

type pendingTxn struct {
	need int
	recs []Record
}

// NewApplier creates an applier for a secondary with the given shard
// count; apply lands one filtered batch on one secondary shard. site
// feeds the secondary's HLC (advanced past every applied record's
// timestamp, so post-promotion writes sort after replicated history).
func NewApplier(site uint16, shards int, apply func(shard int, muts []storage.Mutation) error) *Applier {
	a := &Applier{
		clk:     clock.New(site),
		apply:   apply,
		shards:  make([]*applyShard, shards),
		pending: make(map[string]*pendingTxn),
	}
	for i := range a.shards {
		a.shards[i] = &applyShard{
			nextSeq: 1,
			buf:     make(map[uint64]Record),
			done:    make(map[uint64]bool),
			vers:    make(map[types.Key]clock.Timestamp),
		}
	}
	return a
}

// SetCursor positions shard's apply frontier just past seq — the
// snapshot-bootstrap entry point: after loading a cut that covers
// sequence seq, replication resumes at seq+1.
func (a *Applier) SetCursor(shard int, seq uint64) {
	a.mu.Lock()
	a.shards[shard].nextSeq = seq + 1
	a.mu.Unlock()
}

// Offer ingests a batch of shipped records (per-shard sequence order,
// as the link delivers them), buffers them, and drains every record
// that has become applicable. Records already applied are duplicates
// from a link retry and are dropped silently, so at-least-once delivery
// is safe. Returns the first apply error (the link will re-offer from
// its acknowledged cursor).
func (a *Applier) Offer(recs []Record) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.finalized {
		return fmt.Errorf("repl: applier finalized (site promoted)")
	}
	for _, r := range recs {
		if r.Shard < 0 || r.Shard >= len(a.shards) {
			return fmt.Errorf("repl: record for unknown shard %d", r.Shard)
		}
		sh := a.shards[r.Shard]
		if r.Seq < sh.nextSeq || sh.done[r.Seq] {
			continue // duplicate of an applied record
		}
		if _, dup := sh.buf[r.Seq]; dup {
			continue
		}
		sh.buf[r.Seq] = r
		if r.Pieces > 1 {
			pt, ok := a.pending[r.TxnID]
			if !ok {
				pt = &pendingTxn{need: r.Pieces}
				a.pending[r.TxnID] = pt
			}
			pt.recs = append(pt.recs, r)
		}
	}
	return a.drainLocked()
}

// drainLocked applies every applicable buffered record until no shard
// can make progress. Each shard scans from its contiguous frontier in
// sequence order and stops at the first gap, incomplete transaction, or
// key-obstructed transaction; applying a complete transaction lands its
// sibling pieces on their shards out of order (marked done and absorbed
// when the frontier catches up). A run of single-piece records at a
// frontier lands with one apply: one WAL record and one sync on a
// durable secondary, not one per record.
func (a *Applier) drainLocked() error {
	for progress := true; progress; {
		progress = false
		for si, sh := range a.shards {
			for {
				seq := sh.nextSeq
				if sh.done[seq] {
					// Sibling piece applied ahead by another shard's scan.
					delete(sh.done, seq)
					sh.nextSeq++
					continue
				}
				r, ok := sh.buf[seq]
				if !ok {
					break // not yet arrived
				}
				if r.Pieces > 1 {
					pt := a.pending[r.TxnID]
					if pt == nil || len(pt.recs) < pt.need || !a.txnUnobstructedLocked(si, pt) {
						break
					}
					for len(pt.recs) > 0 {
						if err := a.applyLocked(pt.recs[0].Shard, pt.recs[:1]); err != nil {
							return err
						}
						// A landed piece leaves the transaction, so the
						// re-drain after a sibling's failed apply cannot
						// land it (and its link-count delta) again.
						pt.recs, pt.need = pt.recs[1:], pt.need-1
					}
					delete(a.pending, r.TxnID)
					progress = true
					continue
				}
				run := []Record{r}
				for next := seq + 1; ; next++ {
					r, ok := sh.buf[next]
					if !ok || r.Pieces > 1 {
						break
					}
					run = append(run, r)
				}
				if err := a.applyLocked(si, run); err != nil {
					return err
				}
				progress = true
			}
		}
	}
	return nil
}

// txnUnobstructedLocked reports whether the complete transaction pt may
// apply from shard home's frontier scan. Every sibling piece on another
// shard jumps the buffered records between that shard's frontier and the
// piece; the jump is legal only when those records touch none of the
// piece's keys. Per-key apply order must match the primary's per-shard
// commit order, or an absolute row write and a commutative attribute
// delta interleave differently on the two sites (double-counting or
// losing an increment). Waiting on a conflict cannot deadlock. If pt's
// piece on shard S waits for a jumped record of transaction U, the two
// write a common key there, so the primary's exclusive row locks
// serialized them: U committed on S before pt prepared on S. Every
// transaction prepares on all its shards before it commits on any, so
// U's first commit precedes pt's. Wait edges point strictly back in
// commit time, and a cycle of two — pt before U on one shard, U before
// pt on another — would need
// U.prepare(S') < U.commit(S) < pt.prepare(S) < pt.commit(S') < U.prepare(S'),
// which no 2PC history has. The argument rests on no shared timestamp.
func (a *Applier) txnUnobstructedLocked(home int, pt *pendingTxn) bool {
	for _, piece := range pt.recs {
		if piece.Shard == home {
			continue
		}
		sh := a.shards[piece.Shard]
		if piece.Seq <= sh.nextSeq {
			continue
		}
		var keys map[types.Key]struct{}
		for w := sh.nextSeq; w < piece.Seq; w++ {
			if sh.done[w] {
				continue // already applied ahead of the frontier
			}
			jumped, ok := sh.buf[w]
			if !ok {
				return false // gap below the piece: wait for delivery
			}
			if keys == nil {
				keys = make(map[types.Key]struct{}, len(piece.Muts))
				for _, m := range piece.Muts {
					keys[m.Key] = struct{}{}
				}
			}
			for _, m := range jumped.Muts {
				if _, hit := keys[m.Key]; hit {
					return false
				}
			}
		}
	}
	return true
}

// stamp is one LWW sidecar write, with what it replaced.
type stamp struct {
	key  types.Key
	prev clock.Timestamp
	had  bool
}

// applyLocked LWW-filters recs, contiguous records of shard si in
// sequence order, and lands what survives with one apply. Each record is
// filtered against the stamps of the writes before it, so the batch
// filters as the records would one by one. The sidecar keeps a stamp
// only once its write has applied: a failed apply takes back the batch's
// stamps and moves nothing, and the link's re-offer lands the records
// again. Once the apply succeeds, each record advances the frontier (or
// marks its slot done when it applied ahead of a gap) and the applied
// watermarks, in sequence order.
func (a *Applier) applyLocked(si int, recs []Record) error {
	sh := a.shards[si]
	var kept []storage.Mutation
	var stamps []stamp
	var skipped int64
	for _, r := range recs {
		for _, m := range r.Muts {
			if m.Kind == storage.MutDeltaAttr {
				// Commutative increment: exactly-once, order-free.
				m.MustExist = false
				kept = append(kept, m)
				continue
			}
			prev, had := sh.vers[m.Key]
			if had && !prev.Less(r.HLC) {
				skipped++
				continue
			}
			stamps = append(stamps, stamp{key: m.Key, prev: prev, had: had})
			sh.vers[m.Key] = r.HLC
			m.IfAbsent = false
			m.MustExist = false
			m.WantKind = 0
			kept = append(kept, m)
		}
	}
	if len(kept) > 0 {
		if err := a.apply(si, kept); err != nil {
			for i := len(stamps) - 1; i >= 0; i-- {
				if st := stamps[i]; st.had {
					sh.vers[st.key] = st.prev
				} else {
					delete(sh.vers, st.key)
				}
			}
			return err
		}
	}
	a.conflicts += skipped
	a.muts += int64(len(kept))
	for _, r := range recs {
		delete(sh.buf, r.Seq)
		if r.Seq == sh.nextSeq {
			sh.nextSeq++
			for sh.done[sh.nextSeq] {
				delete(sh.done, sh.nextSeq)
				sh.nextSeq++
			}
		} else {
			sh.done[r.Seq] = true
		}
		if sh.appliedHLC.Less(r.HLC) {
			sh.appliedHLC = r.HLC
		}
		a.clk.Observe(r.HLC)
		a.applied++
	}
	return nil
}

// Finalize freezes the applier for promotion: buffered records that
// never became applicable (incomplete transactions and any records the
// drain could not reach) are discarded and counted — they are the
// replicated-write loss window beyond the watermark. Returns the
// discard count. Idempotent; Offer fails afterwards.
func (a *Applier) Finalize() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.finalized {
		return int(a.discarded)
	}
	a.finalized = true
	for _, sh := range a.shards {
		a.discarded += int64(len(sh.buf))
		sh.buf = make(map[uint64]Record)
	}
	a.pending = make(map[string]*pendingTxn)
	return int(a.discarded)
}

// ShardMark is one shard's applied watermark.
type ShardMark struct {
	Shard int `json:"shard"`
	// AppliedSeq is the contiguous frontier: every record at or below
	// it has applied.
	AppliedSeq uint64          `json:"applied_seq"`
	AppliedHLC clock.Timestamp `json:"applied_hlc"`
	// Buffered counts arrived-but-unapplied records; Ahead counts
	// records applied above the frontier (past an incomplete
	// transaction's gap).
	Buffered int `json:"buffered"`
	Ahead    int `json:"ahead"`
}

// Watermarks is the applier-side replication state exposed on /status
// and /metrics.
type Watermarks struct {
	Shards []ShardMark `json:"shards"`
	// AppliedHLC is the lagging frontier: the minimum applied HLC
	// across shards that have applied anything (zero before any
	// replication).
	AppliedHLC clock.Timestamp `json:"applied_hlc"`
	Applied    int64           `json:"applied"`   // records applied
	Muts       int64           `json:"muts"`      // mutations applied (post-LWW)
	Conflicts  int64           `json:"conflicts"` // LWW-skipped mutations
	Pending    int             `json:"pending"`   // cross-shard transactions awaiting pieces
	Discarded  int64           `json:"discarded"` // records dropped at Finalize (loss window)
}

// Watermarks snapshots the applied state.
func (a *Applier) Watermarks() Watermarks {
	a.mu.Lock()
	defer a.mu.Unlock()
	w := Watermarks{
		Shards:    make([]ShardMark, len(a.shards)),
		Applied:   a.applied,
		Muts:      a.muts,
		Conflicts: a.conflicts,
		Pending:   len(a.pending),
		Discarded: a.discarded,
	}
	for i, sh := range a.shards {
		w.Shards[i] = ShardMark{
			Shard:      i,
			AppliedSeq: sh.nextSeq - 1,
			AppliedHLC: sh.appliedHLC,
			Buffered:   len(sh.buf),
			Ahead:      len(sh.done),
		}
		if !sh.appliedHLC.IsZero() && (w.AppliedHLC.IsZero() || sh.appliedHLC.Less(w.AppliedHLC)) {
			w.AppliedHLC = sh.appliedHLC
		}
	}
	return w
}

// AppliedSeqs returns each shard's contiguous applied sequence (the
// link's starting cursor).
func (a *Applier) AppliedSeqs() []uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]uint64, len(a.shards))
	for i, sh := range a.shards {
		out[i] = sh.nextSeq - 1
	}
	return out
}
